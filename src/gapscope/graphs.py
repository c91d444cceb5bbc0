"""Gap graphs: the weighted Rauzy digraph on orbit gaps (edges given by
inverse-image overlap, weights by Lebesgue measure), the slot forest
refining it, the outdegree identity, and the distinct-gap-length bounds
they imply.

Both constructions work on one partition of [0, 1), cut by the sorted orbit
segment of 0 and the interior breakpoints of the map.  T is continuous on
each of its atoms and carries the atom into a single gap, its source; the
gap holding the atom is its target.  The digraph has one vertex per gap and
an edge i -> j whenever some atom has source i and target j, that is when
the inverse image of gap i meets gap j; its weight is the length of those
atoms, so the in- and out-weights of every vertex balance its length.  The
forest refines the targets: an atom that ends or starts at a discontinuity
of the map is a left/right slot (the stretch from the discontinuity to the
nearest orbit point) instead of a whole gap, which breaks every cycle and
exposes which lengths generate the distinct-gap-length set.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, replace
from itertools import chain, repeat
from operator import itemgetter
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, DegenerateOrbitError, DomainError
from .gaps import GapReport, cluster_lengths, default_cluster_eps, gap_report, orbit
from .iet import Iet
from .outcomes import (
    VerificationOutcome,
    outcome_fail,
    outcome_not_applicable,
    outcome_pass,
)


# ---------------------------------------------------------------------------
# The partition into atoms
# ---------------------------------------------------------------------------


def _segment(T: Iet, N: int) -> tuple[GapReport, float]:
    """The gap report of the orbit segment of 0 and its ghost point T^N 0."""
    if N < 2:
        raise DomainError(f"gap graphs need N >= 2, got {N}")
    seg = orbit(T, N)
    return gap_report(T, N, points=seg), T.apply(float(seg[-1]))


def _locate(pts: np.ndarray, x, tol: float) -> tuple[np.ndarray, np.ndarray]:
    """For each x in [0, 1): the index of the gap holding it, and whether it
    lies within tol of an orbit point (or of 1), where it counts as that
    point."""
    x = np.asarray(x, dtype=float)
    j = np.searchsorted(pts, x, side="right") - 1
    right = np.append(pts[1:], 1.0)[j]
    return j, (x - pts[j] <= tol) | (right - x <= tol)


def _atoms(T: Iet, pts: np.ndarray, tol: float):
    """The partition of [0, 1) cut by the sorted orbit points ``pts`` and the
    interior breakpoints beta_1 .. beta_{d-1} of T.

    A breakpoint within tol of an orbit point counts as that point and cuts
    nothing.  Atom a is [left[a], right[a]).  ``cut[a]`` is -1 where left[a]
    is an orbit point and k where it is beta_k; ``end[a]`` likewise labels
    right[a], with d for 1.  T is continuous on every atom: its target is
    the gap holding it, its source the gap holding its image, and ``image``
    is T at its midpoint.  Returns (left, right, cut, end, target, source,
    image).
    """
    betas = np.asarray(T.beta[1:-1])
    _, merged = _locate(pts, betas, tol)
    at = np.searchsorted(pts, betas[~merged])
    left = np.insert(pts, at, betas[~merged])
    cut = np.insert(np.full(len(pts), -1), at, np.arange(1, T.d)[~merged])
    right = np.append(left[1:], 1.0)
    end = np.append(cut[1:], T.d)
    mid = 0.5 * (left + right)
    image = mid + np.asarray(T.shifts)[np.searchsorted(T.beta, mid, side="right") - 1]
    target = np.searchsorted(pts, mid, side="right") - 1
    source = np.searchsorted(pts, image, side="right") - 1
    return left, right, cut, end, target, source, image


# ---------------------------------------------------------------------------
# The weighted gap digraph
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapGraph:
    """Weighted digraph on the orbit gaps.

    ``vertices[i]`` is the (left, right) pair of the i-th gap in sorted
    order (the last one wraps to 1); ``weights[i]`` its length.  ``edges``
    maps (i, j) to the measure of (inverse image of gap i) meeting gap j.
    """

    n: int
    d: int
    vertices: tuple[tuple[float, float], ...]
    weights: tuple[float, ...]
    edges: dict
    ghost: float

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def _edge_arrays(self):
        """(sources, targets, weights) of the edges, as arrays."""
        E = self.num_edges
        st = np.fromiter(chain.from_iterable(self.edges), dtype=np.intp, count=2 * E)
        return st[0::2], st[1::2], np.fromiter(self.edges.values(), dtype=float, count=E)

    def degree_table(self):
        """(outdeg, indeg, out_weight, in_weight) arrays, one entry per vertex."""
        V = self.num_vertices
        s, t, w = self._edge_arrays()
        return (
            np.bincount(s, minlength=V),
            np.bincount(t, minlength=V),
            np.bincount(s, w, V),
            np.bincount(t, w, V),
        )

    def has_distinct_cycle(self) -> bool:
        """A directed cycle every vertex of which has indeg = outdeg = 1.

        Such a cycle is an isolated component of the weight flow (the gaps
        on it are permuted among themselves, a periodic structure), which
        is what invalidates the distinct-weight count; minimal maps
        produce none.
        """
        V = self.num_vertices
        s, t, _ = self._edge_arrays()
        ones = (np.bincount(s, minlength=V) == 1) & (np.bincount(t, minlength=V) == 1)
        # succ[v] is v's successor inside the degree-one set, V for none; by
        # pointer doubling as in _check_forest, a vertex still short of V
        # after 2**k > V steps leads into a cycle
        succ = np.full(V + 1, V)
        keep = ones[s] & ones[t]
        succ[s[keep]] = t[keep]
        for _ in range(V.bit_length() + 1):
            succ = succ[succ]
        return bool((succ[:V] != V).any())

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "gap_graph",
            "n": self.n,
            "d": self.d,
            "ghost": self.ghost,
            "vertices": [
                {"id": i, "left": v[0], "right": v[1], "weight": w}
                for i, (v, w) in enumerate(zip(self.vertices, self.weights))
            ],
            "edges": [
                {"source": s, "target": t, "weight": w}
                for (s, t), w in sorted(self.edges.items())
            ],
        }

    def to_edge_list(self) -> str:
        """Plain-text serialization: one vertex or edge per line."""
        lines = [f"# gap graph: N={self.n} d={self.d} ghost={self.ghost!r}"]
        for i, ((l, r), w) in enumerate(zip(self.vertices, self.weights)):
            lines.append(f"v {i} {l!r} {r!r} {w!r}")
        for (s, t), w in sorted(self.edges.items()):
            lines.append(f"e {s} {t} {w!r}")
        return "\n".join(lines) + "\n"


def ggaps_build(T: Iet, N: int) -> GapGraph:
    """Build the weighted gap digraph and verify the weight axioms.

    Raises :class:`ConsistencyError` when the per-vertex in/out weight
    balance fails beyond tolerance (signals duplicated orbit points).
    """
    return _ggaps(T, N, *_segment(T, N))


def _ggaps(T: Iet, N: int, report: GapReport, ghost: float) -> GapGraph:
    """One edge source -> target per distinct pair over the atoms, weighted
    by the total length of its atoms."""
    pts = np.asarray(report.points)
    M = len(pts)
    left, right, _, _, target, source, _ = _atoms(T, pts, report.eps)
    pairs, which = np.unique(source * M + target, return_inverse=True)
    sources, targets = divmod(pairs, M)
    lengths = np.bincount(which, weights=right - left)
    ends = np.append(pts[1:], 1.0)
    graph = GapGraph(
        n=N,
        d=T.d,
        vertices=tuple(zip(pts.tolist(), ends.tolist())),
        weights=tuple((ends - pts).tolist()),
        edges=dict(zip(zip(sources.tolist(), targets.tolist()), lengths.tolist())),
        ghost=ghost,
    )
    _check_weight_axioms(graph)
    return graph


def _check_weight_axioms(graph: GapGraph) -> None:
    tol = default_cluster_eps(graph.n)
    total = math.fsum(graph.weights)
    if abs(total - 1.0) > tol:
        raise ConsistencyError(f"vertex weights sum to {total!r}, not 1")
    _, _, out_w, in_w = graph.degree_table()
    w = np.asarray(graph.weights)
    bad = np.flatnonzero((np.abs(out_w - w) > tol) | (np.abs(in_w - w) > tol))
    if bad.size:
        v = int(bad[0])
        raise ConsistencyError(
            f"weight balance failed at vertex {v}: weight={float(w[v])!r} "
            f"out={float(out_w[v])!r} in={float(in_w[v])!r}"
        )


def outdegree_identity_check(
    T: Iet, N: int, graph: Optional[GapGraph] = None
) -> VerificationOutcome:
    """Per-vertex check that the outdegree equals 1 plus the indicator of
    the ghost point T^N 0 plus the count of interior discontinuities of the
    inverse map inside the gap, and that #E - #V <= d - 1.

    The identity presumes the orbit points separate the discontinuities:
    each gap holds at most one genuine discontinuity of the inverse map
    (those split an inverse image) and at most one of the map itself
    (those bound where the pieces land), and no two pieces of one inverse
    image land in one gap, where their edges merge (the ghost splits an
    inverse image too).  Otherwise the run is reported not-applicable.
    The edge-excess bound holds regardless and is still checked then.
    """
    report, ghost = _segment(T, N)
    if T.d < 2 or report.deduplicated:
        return outcome_not_applicable(
            "outdegree-identity",
            "degenerate orbit (duplicated points or d < 2)",
            n=N,
            d=T.d,
        )
    if graph is None:
        graph = _ggaps(T, N, report, ghost)
    pts = np.asarray(report.points)

    def inside(xs) -> np.ndarray:
        """How many of xs each gap holds in its interior."""
        j, on_point = _locate(pts, xs, report.eps)
        return np.bincount(j[~on_point], minlength=len(pts))

    failures = []
    excess = graph.num_edges - graph.num_vertices
    if excess > T.d - 1:
        failures.append(
            {"what": "edge excess", "expected": f"<= {T.d - 1}", "got": excess}
        )
    details = {"n": N, "d": T.d, "edges": graph.num_edges, "vertices": graph.num_vertices}
    # only genuine discontinuities of the inverse split an inverse image
    alphas = inside([T.alpha[k] for k in T.genuine_alpha_indices()])
    betas = inside([T.beta[k] for k in T.genuine_beta_indices()])
    # a genuine beta inside a gap ends one piece of an inverse image and
    # starts another; when both pieces come from one gap their edges merge
    _, _, cut, _, _, source, _ = _atoms(T, pts, report.eps)
    at = np.flatnonzero(np.isin(cut, T.genuine_beta_indices()))
    if alphas.max() > 1 or betas.max() > 1 or np.any(source[at] == source[at - 1]):
        if failures:
            return outcome_fail("outdegree-identity", failures, **details)
        return outcome_not_applicable(
            "outdegree-identity",
            "orbit points do not separate the discontinuities at this N",
            **details,
        )
    expected = 1 + alphas + inside([ghost])
    outdeg = graph.degree_table()[0]
    for i in np.flatnonzero(outdeg != expected).tolist():
        failures.append(
            {"what": "outdegree", "vertex": i, "expected": int(expected[i]), "got": int(outdeg[i])}
        )
    if failures:
        return outcome_fail("outdegree-identity", failures, **details)
    return outcome_pass("outdegree-identity", **details)


def boshernitzan_bound_check(
    T: Iet, N: int, keane_depth: Optional[int] = None
) -> VerificationOutcome:
    """Distinct vertex weights <= 3(#E - #V) <= 3(d-1), for graphs without
    distinct cycles built from Keane-certified maps; anything uncertified
    downgrades to not-applicable."""
    depth = keane_depth if keane_depth is not None else max(N, 1000)
    keane = T.keane_check(depth=depth)
    if not keane.satisfied:
        return outcome_not_applicable(
            "boshernitzan-bound", "Keane certificate failed", n=N, d=T.d,
            keane=keane.to_json(),
        )
    graph = ggaps_build(T, N)
    if graph.has_distinct_cycle():
        return outcome_not_applicable(
            "boshernitzan-bound", "graph has a distinct cycle", n=N, d=T.d,
        )
    distinct = len(cluster_lengths(graph.weights, default_cluster_eps(N)))
    excess = graph.num_edges - graph.num_vertices
    details = {
        "n": N,
        "d": T.d,
        "distinct_weights": distinct,
        "edge_excess": excess,
        "bound_from_graph": 3 * excess,
        "bound_from_d": 3 * (T.d - 1),
    }
    failures = []
    if distinct > 3 * excess:
        failures.append(
            {"what": "3(#E-#V) bound", "expected": f"<= {3 * excess}", "got": distinct}
        )
    if excess > T.d - 1:
        failures.append(
            {"what": "edge excess", "expected": f"<= {T.d - 1}", "got": excess}
        )
    if failures:
        return outcome_fail("boshernitzan-bound", failures, **details)
    return outcome_pass("boshernitzan-bound", **details)


# ---------------------------------------------------------------------------
# The slot forest
# ---------------------------------------------------------------------------

GAP = "gap"
RIGHT_SLOT = "right_slot"
LEFT_SLOT = "left_slot"


@dataclass(frozen=True)
class ForestVertex:
    kind: str  # gap / right_slot / left_slot
    index: int  # gap index, or discontinuity index for slots
    left: float
    right: float
    slot_label: Optional[str] = None  # for gaps that coincide with a slot

    @property
    def length(self) -> float:
        return self.right - self.left

    @property
    def key(self):
        return (self.kind, self.index)

    def to_json(self) -> dict:
        out = {
            "kind": self.kind,
            "index": self.index,
            "left": self.left,
            "right": self.right,
            "length": self.length,
        }
        if self.slot_label:
            out["slot"] = self.slot_label
        return out


@dataclass(frozen=True)
class GapForest:
    """Forest on gaps and slots: each gap points at the pieces of its
    inverse image; pieces bounded by a discontinuity are slots, which are
    terminal.  The first and last gaps coincide with the slots around 0
    and 1 and are flagged as such.
    """

    n: int
    d: int
    vertices: tuple[ForestVertex, ...]
    edges: tuple[tuple, ...]  # (source_key, target_key, weight)
    ghost: float

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "gap_forest",
            "n": self.n,
            "d": self.d,
            "ghost": self.ghost,
            "vertices": [v.to_json() for v in self.vertices],
            "edges": [
                {
                    "source": list(s),
                    "target": list(t),
                    "weight": w,
                }
                for s, t, w in self.edges
            ],
        }

    def to_edge_list(self) -> str:
        lines = [f"# gap forest: N={self.n} d={self.d} ghost={self.ghost!r}"]
        for v in self.vertices:
            lines.append(
                f"v {v.kind}:{v.index} {v.left!r} {v.right!r} {v.length!r}"
            )
        for s, t, w in self.edges:
            lines.append(f"e {s[0]}:{s[1]} {t[0]}:{t[1]} {w!r}")
        return "\n".join(lines) + "\n"


def fgaps_build(T: Iet, N: int) -> GapForest:
    """Build the slot forest; raises :class:`DegenerateOrbitError` on an
    inverse-image piece between two discontinuities (too small an orbit
    segment) and :class:`ConsistencyError` on a cycle or an in-degree above
    one (duplicated orbit points)."""
    return _fgaps(T, N, *_segment(T, N))


def _fgaps(T: Iet, N: int, report: GapReport, ghost: float) -> GapForest:
    """One edge per atom, from its source gap to the atom itself, in the
    order of the atoms' images.  An atom between two orbit points (or from
    the last one to 1) is a gap; one that starts at beta_k is right slot k,
    one that ends at beta_k left slot k."""
    pts = np.asarray(report.points)
    M, d = len(pts), T.d
    left, right, cut, end, target, source, image = _atoms(T, pts, report.eps)
    stray = np.flatnonzero((cut >= 1) & (end >= 1))
    if stray.size:
        a = int(stray[0])
        raise DegenerateOrbitError(
            f"inverse-image piece ({float(left[a])!r}, {float(right[a])!r}) of gap "
            f"{int(source[a])} runs between two discontinuities and matches no gap or "
            "slot (orbit too short to separate discontinuities)"
        )
    ends = np.append(pts[1:], 1.0)
    vertices = list(map(ForestVertex, repeat(GAP), range(M), pts.tolist(), ends.tolist()))
    vertices[0] = replace(vertices[0], slot_label="R0")  # right slot of beta_0
    vertices[-1] = replace(vertices[-1], slot_label=f"L{d}")  # left slot of beta_d
    gap_keys = [v.key for v in vertices]
    keys = list(map(gap_keys.__getitem__, target.tolist()))
    for kind, atoms, k in (
        (RIGHT_SLOT, np.flatnonzero(cut >= 1), cut),
        (LEFT_SLOT, np.flatnonzero((end >= 1) & (end < d)), end),
    ):
        for a, idx in zip(atoms.tolist(), k[atoms].tolist()):
            vertices.append(ForestVertex(kind, idx, float(left[a]), float(right[a])))
            keys[a] = vertices[-1].key

    order = np.argsort(image)
    forest = GapForest(
        n=N,
        d=d,
        vertices=tuple(vertices),
        edges=tuple(zip(
            map(gap_keys.__getitem__, source[order].tolist()),
            map(keys.__getitem__, order.tolist()),
            (right - left)[order].tolist(),
        )),
        ghost=ghost,
    )
    _check_forest(forest)
    return forest


def _check_forest(forest: GapForest) -> None:
    """Every vertex has in-degree at most one, and the gap -> gap edges
    form no cycle."""
    sources, targets, _ = zip(*forest.edges)
    keys = list(dict.fromkeys(chain(sources, targets)))
    ids = dict(zip(keys, range(len(keys))))
    E, n = len(forest.edges), len(keys)
    src = np.fromiter(map(ids.__getitem__, sources), np.intp, E)
    dst = np.fromiter(map(ids.__getitem__, targets), np.intp, E)
    indeg = np.bincount(dst, minlength=n)
    if indeg.max() > 1:
        v = int(np.argmax(indeg))
        raise ConsistencyError(
            f"forest vertex {keys[v]} has in-degree {int(indeg[v])} (duplicated orbit point?)"
        )
    # each vertex has at most one parent: up[v] starts as v's gap parent,
    # with n for none, and doubles its reach each round; once the reach
    # exceeds every path, a vertex that still has an ancestor hangs below a
    # cycle, and that ancestor lies on it
    up = np.full(n + 1, n)
    on_gap = np.fromiter(map(GAP.__eq__, map(itemgetter(0), targets)), bool, E)
    up[dst[on_gap]] = src[on_gap]
    for _ in range(n.bit_length() + 1):
        up = up[up]
    cyclic = np.flatnonzero(up[:n] != n)
    if cyclic.size:
        raise ConsistencyError(
            f"forest contains a cycle through {keys[up[cyclic[0]]]} "
            "(duplicated orbit point or tolerance failure)"
        )


def gap_lengths_from_forest(forest: GapForest, eps: Optional[float] = None) -> tuple[float, ...]:
    """The distinct gap lengths the forest generates, sorted ascending.

    Contributors: gaps whose inverse image splits (their length is the sum
    of the pieces), slots that absorb a whole single-piece inverse image
    (the chain they terminate shares their length), and the first and last
    gaps, which are slots themselves.
    """
    if eps is None:
        eps = default_cluster_eps(forest.n)
    # slots, and the first and last gaps, which carry the slot labels of 0 and 1
    slots = {v.key: v for v in forest.vertices if v.kind != GAP or v.slot_label}
    count = Counter(map(itemgetter(0), forest.edges))
    pieces = {s: [] for s, c in count.items() if c >= 2}
    lengths = []
    for s, t, w in forest.edges:
        if s in pieces:
            pieces[s].append(w)
        elif t in slots:
            lengths.append(slots[t].length)
    lengths += map(math.fsum, pieces.values())
    ends = sorted(v.index for v in slots.values() if v.kind == GAP)
    lengths += (slots[(GAP, ends[0])].length, slots[(GAP, ends[-1])].length)

    clusters = cluster_lengths(lengths, eps)
    return tuple(c.length for c in clusters)


def verify_forest_lengths(T: Iet, N: int) -> VerificationOutcome:
    """The forest-derived distinct-length set must match the gap-report
    clusters within ``default_cluster_eps(N)``."""
    report, ghost = _segment(T, N)
    derived = gap_lengths_from_forest(_fgaps(T, N, report, ghost))
    expected = tuple(c.length for c in report.clusters)
    failures = []
    if len(derived) != len(expected):
        failures.append(
            {"what": "distinct count", "expected": list(expected), "got": list(derived)}
        )
    else:
        for e, g in zip(expected, derived):
            if abs(e - g) > report.eps:
                failures.append({"what": "length", "expected": e, "got": g})
    details = {"n": N, "d": T.d, "derived": list(derived), "clusters": list(expected)}
    if failures:
        return outcome_fail("forest-lengths", failures, **details)
    return outcome_pass("forest-lengths", **details)


def glue_forest(forest: GapForest, T: Iet) -> dict:
    """Glue each interior left/right slot pair onto the gap containing its
    discontinuity; the result is the edge map of the gap digraph."""
    geo_pts = sorted(v.left for v in forest.vertices if v.kind == GAP)
    gap_map = {}
    for v in forest.vertices:
        if v.kind == GAP:
            gap_map[v.key] = v.index
    num_gaps = len(gap_map)
    pts = tuple(geo_pts)
    for v in forest.vertices:
        if v.kind == GAP:
            continue
        beta = T.beta[v.index]
        j = bisect_right(pts, beta) - 1
        gap_map[v.key] = min(max(j, 0), num_gaps - 1)
    edges: dict = {}
    for s, t, w in forest.edges:
        key = (gap_map[s], gap_map[t])
        edges[key] = edges.get(key, 0.0) + w
    return edges


# ---------------------------------------------------------------------------
# Ghost-position case classification (reporting only)
# ---------------------------------------------------------------------------

#: distinct-length upper bounds per ghost case, keyed (case, last_column)
#: where last_column is True when pi^-1(pi(1) - 1) == d
CASE_BOUNDS = {
    ("I", True): lambda d: d + 1,
    ("I", False): lambda d: d + 2,
    ("II", True): lambda d: d + 1,
    ("II", False): lambda d: d + 1,
    ("III", True): lambda d: d + 1,
    ("III", False): lambda d: d + 2,
    ("IV", True): lambda d: d,
    ("IV", False): lambda d: d + 1,
    ("V", True): lambda d: d,
    ("V", False): lambda d: d + 1,
    ("VI", True): lambda d: d,
    ("VI", False): lambda d: d + 1,
}


def classify_ghost_case(T: Iet, N: int) -> Optional[str]:
    """Which of the six ghost-point configurations holds: the ghost in the
    first gap (V), last gap (VI), a gap holding a discontinuity (IV), a gap
    whose right/left endpoint is the exponent-1 orbit point (II/III), or a
    plain interior gap (I).  None when the ghost sits on an orbit point
    (degenerate)."""
    report, ghost = _segment(T, N)
    pts = np.asarray(report.points)
    (i,), (on_point,) = _locate(pts, [ghost], report.eps)
    if on_point:
        return None
    if i == 0:
        return "V"
    if i == len(pts) - 1:
        return "VI"
    j, on_point = _locate(pts, T.alpha[1:-1], report.eps)
    if np.any((j == i) & ~on_point):
        return "IV"
    if report.sigma[i + 1] == 1:
        return "II"
    if report.sigma[i] == 1:
        return "III"
    return "I"


def case_table_bound(case: str, pi: Sequence[int]) -> int:
    """Distinct-gap-length bound for the detected ghost case."""
    from .gaps import dplus2_bound

    d = len(pi)
    last_col = dplus2_bound(pi) == d + 1
    return CASE_BOUNDS[(case, last_col)](d)
