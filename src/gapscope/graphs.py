"""Gap graphs: the weighted Rauzy digraph on orbit gaps (edges given by
inverse-image overlap, weights by Lebesgue measure), the slot forest
refining it, the outdegree identity, and the distinct-gap-length bounds
they imply.

Both constructions work on the sorted orbit segment of 0.  The digraph has
one vertex per gap and an edge i -> j whenever the inverse image of gap i
meets gap j; Lebesgue measure makes the in- and out-weights of every
vertex balance its length.  The forest refines the targets: pieces of an
inverse image that land against a discontinuity of the map are recorded as
right/left slots (the stretch from the discontinuity to the nearest orbit
point) instead of whole gaps, which breaks every cycle and exposes which
lengths generate the distinct-gap-length set.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence

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
# Shared geometry helpers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _Geometry:
    """Sorted orbit points, gaps, ghost point, and located discontinuities."""

    T: Iet
    N: int
    report: GapReport
    points: tuple[float, ...]
    ghost: float
    tol: float

    @property
    def num_gaps(self) -> int:
        return len(self.points)

    def gap_interval(self, i: int) -> tuple[float, float]:
        pts = self.points
        return (pts[i], pts[i + 1]) if i + 1 < len(pts) else (pts[-1], 1.0)

    def gap_length(self, i: int) -> float:
        left, right = self.gap_interval(i)
        return right - left

    def locate_point(self, x: float) -> Optional[int]:
        """Index of the gap whose *open* interior contains x, else None."""
        pts = self.points
        j = bisect_right(pts, x) - 1
        if j < 0:
            return None
        left, right = self.gap_interval(j)
        if x - left > self.tol and right - x > self.tol:
            return j
        return None

    def match_orbit_point(self, x: float) -> Optional[int]:
        pts = self.points
        j = bisect_left(pts, x - self.tol)
        if j < len(pts) and abs(pts[j] - x) <= self.tol:
            return j
        return None

    def interior_cuts(self, left: float, right: float, cuts: Sequence[float]):
        return [c for c in cuts if left + self.tol < c < right - self.tol]


def _geometry(T: Iet, N: int) -> _Geometry:
    if N < 2:
        raise DomainError(f"gap graphs need N >= 2, got {N}")
    seg = orbit(T, N)
    report = gap_report(T, N, points=seg)
    ghost = T.apply(float(seg[-1]))
    return _Geometry(
        T=T, N=N, report=report, points=report.points, ghost=ghost,
        tol=default_cluster_eps(N),
    )


def _preimage_pieces(geo: _Geometry, inv: Iet, left: float, right: float):
    """The inverse-image intervals of (left, right), split at the interior
    discontinuities and interior orbit points, as (x, y) intervals."""
    T = geo.T
    pieces = []
    cuts = geo.interior_cuts(left, right, T.alpha[1:-1])
    bounds = [left] + list(cuts) + [right]
    for u, v in zip(bounds, bounds[1:]):
        mid = 0.5 * (u + v)
        img_mid = inv.apply(mid)
        x = img_mid - (mid - u)
        y = x + (v - u)
        # split at orbit points interior to the image
        inner = []
        pts = geo.points
        j = bisect_right(pts, x + geo.tol)
        while j < len(pts) and pts[j] < y - geo.tol:
            inner.append(pts[j])
            j += 1
        seq = [x] + inner + [y]
        pieces.extend(zip(seq, seq[1:]))
    return pieces


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

    def degree_table(self):
        """(outdeg, indeg, out_weight, in_weight) arrays in one pass."""
        V = self.num_vertices
        outdeg = [0] * V
        indeg = [0] * V
        out_w = [0.0] * V
        in_w = [0.0] * V
        for (s, t), w in self.edges.items():
            outdeg[s] += 1
            indeg[t] += 1
            out_w[s] += w
            in_w[t] += w
        return outdeg, indeg, out_w, in_w

    def has_distinct_cycle(self) -> bool:
        """A directed cycle every vertex of which has indeg = outdeg = 1.

        Such a cycle is an isolated component of the weight flow (the gaps
        on it are permuted among themselves, a periodic structure), which
        is what invalidates the distinct-weight count; minimal maps
        produce none.
        """
        outdeg, indeg, _, _ = self.degree_table()
        ones = {
            v
            for v in range(self.num_vertices)
            if indeg[v] == 1 and outdeg[v] == 1
        }
        succ = {}
        for (s, t) in self.edges:
            if s in ones and t in ones:
                succ[s] = t
        visited = set()
        for start in succ:
            if start in visited:
                continue
            path = {}
            node = start
            step = 0
            while node in succ and node not in visited:
                if node in path:
                    return True  # closed within the degree-one set
                path[node] = step
                step += 1
                node = succ[node]
            visited |= path.keys()
        return False

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
    geo = _geometry(T, N)
    M = geo.num_gaps
    inv = T.inverse()
    edges: dict = {}
    for i in range(M):
        left, right = geo.gap_interval(i)
        for (x, y) in _preimage_pieces(geo, inv, left, right):
            _accumulate_overlaps(geo, i, x, y, edges)
    graph = GapGraph(
        n=N,
        d=T.d,
        vertices=tuple(geo.gap_interval(i) for i in range(M)),
        weights=tuple(geo.gap_length(i) for i in range(M)),
        edges=edges,
        ghost=geo.ghost,
    )
    _check_weight_axioms(graph)
    return graph


def _accumulate_overlaps(geo: _Geometry, source: int, x: float, y: float, edges: dict):
    pts = geo.points
    j = min(bisect_right(pts, x + geo.tol) - 1, geo.num_gaps - 1)
    j = max(j, 0)
    while j < geo.num_gaps:
        gl, gr = geo.gap_interval(j)
        if gl >= y - geo.tol:
            break
        overlap = min(y, gr) - max(x, gl)
        if overlap > geo.tol:
            key = (source, j)
            edges[key] = edges.get(key, 0.0) + overlap
        j += 1


def _check_weight_axioms(graph: GapGraph) -> None:
    tol = default_cluster_eps(graph.n)
    total = math.fsum(graph.weights)
    if abs(total - 1.0) > tol:
        raise ConsistencyError(f"vertex weights sum to {total!r}, not 1")
    _, _, out_w, in_w = graph.degree_table()
    for v, w in enumerate(graph.weights):
        if abs(out_w[v] - w) > tol or abs(in_w[v] - w) > tol:
            raise ConsistencyError(
                f"weight balance failed at vertex {v}: weight={w!r} "
                f"out={out_w[v]!r} in={in_w[v]!r}"
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
    (those bound where the pieces land).  Otherwise two pieces of one
    inverse image can land in a single gap, the parallel edges merge, and
    the run is reported not-applicable.  The edge-excess bound holds
    regardless and is still checked in that case.
    """
    geo = _geometry(T, N)
    if T.d < 2 or geo.report.deduplicated:
        return outcome_not_applicable(
            "outdegree-identity",
            "degenerate orbit (duplicated points or d < 2)",
            n=N,
            d=T.d,
        )
    if graph is None:
        graph = ggaps_build(T, N)
    failures = []
    # only genuine discontinuities of the inverse split an inverse image
    alphas = [T.alpha[k] for k in T.genuine_alpha_indices()]
    outdeg, _, _, _ = graph.degree_table()
    excess = graph.num_edges - graph.num_vertices
    if excess > T.d - 1:
        failures.append(
            {"what": "edge excess", "expected": f"<= {T.d - 1}", "got": excess}
        )
    details = {"n": N, "d": T.d, "edges": graph.num_edges, "vertices": graph.num_vertices}
    betas = [T.beta[k] for k in T.genuine_beta_indices()]
    separated = True
    per_vertex = []
    for i in range(graph.num_vertices):
        left, right = graph.vertices[i]
        expected = 1
        if left + geo.tol < geo.ghost < right - geo.tol:
            expected += 1
        inside = sum(1 for a in alphas if left + geo.tol < a < right - geo.tol)
        inside_beta = sum(1 for b in betas if left + geo.tol < b < right - geo.tol)
        if inside > 1 or inside_beta > 1:
            separated = False
        expected += inside
        per_vertex.append((i, expected, outdeg[i]))
    if not separated:
        if failures:
            return outcome_fail("outdegree-identity", failures, **details)
        return outcome_not_applicable(
            "outdegree-identity",
            "orbit points do not separate the discontinuities at this N",
            **details,
        )
    for i, expected, got in per_vertex:
        if got != expected:
            failures.append(
                {"what": "outdegree", "vertex": i, "expected": expected, "got": got}
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

    def vertex(self, key) -> ForestVertex:
        return self._index()[key]

    def _index(self):
        if not hasattr(self, "_by_key"):
            object.__setattr__(self, "_by_key", {v.key: v for v in self.vertices})
        return self._by_key

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
    """Build the slot forest; raises :class:`ConsistencyError` on a cycle,
    an in-degree above one, or an unclassifiable piece (all signs of
    duplicated orbit points or too small an orbit segment)."""
    geo = _geometry(T, N)
    M = geo.num_gaps
    pts = geo.points
    d = T.d
    tol = geo.tol

    # slot data around each discontinuity of T
    betas = T.beta
    right_slots = {}
    left_slots = {}
    for idx in range(0, d):  # right slots at beta_0..beta_{d-1}
        r = _nearest_right(pts, betas[idx], tol)
        if r is not None:
            right_slots[idx] = (betas[idx], r)
    for idx in range(1, d + 1):  # left slots at beta_1..beta_d
        l = _nearest_left(pts, betas[idx], tol)
        if l is not None:
            left_slots[idx] = (l, betas[idx])

    vertices: dict = {}
    for i in range(M):
        left, right = geo.gap_interval(i)
        label = None
        if i == 0:
            label = "R0"  # first gap == right slot of beta_0
        if i == M - 1:
            label = f"L{d}"  # last gap == left slot of beta_d
        vertices[(GAP, i)] = ForestVertex(GAP, i, left, right, slot_label=label)
    for idx, (l, r) in right_slots.items():
        if idx == 0:
            continue  # identified with the first gap
        vertices[(RIGHT_SLOT, idx)] = ForestVertex(RIGHT_SLOT, idx, l, r)
    for idx, (l, r) in left_slots.items():
        if idx == d:
            continue  # identified with the last gap
        vertices[(LEFT_SLOT, idx)] = ForestVertex(LEFT_SLOT, idx, l, r)

    inv = T.inverse()
    edges = []
    for i in range(M):
        left, right = geo.gap_interval(i)
        for (x, y) in _preimage_pieces(geo, inv, left, right):
            key = _classify_piece(geo, betas, right_slots, left_slots, x, y)
            if key == (RIGHT_SLOT, 0):
                key = (GAP, 0)
            if key == (LEFT_SLOT, d):
                key = (GAP, M - 1)
            if key not in vertices:
                raise DegenerateOrbitError(
                    f"inverse-image piece ({x!r}, {y!r}) of gap {i} matches no "
                    "gap or slot (orbit too short to separate discontinuities)"
                )
            edges.append(((GAP, i), key, y - x))

    forest = GapForest(
        n=N,
        d=d,
        vertices=tuple(vertices.values()),
        edges=tuple(edges),
        ghost=geo.ghost,
    )
    _check_forest(forest)
    return forest


def _nearest_right(pts, x, tol):
    j = bisect_right(pts, x + tol)
    return pts[j] if j < len(pts) else None


def _nearest_left(pts, x, tol):
    j = bisect_left(pts, x - tol) - 1
    return pts[j] if j >= 0 else None


def _classify_piece(geo, betas, right_slots, left_slots, x, y):
    """Match a piece (x, y) to a gap or a slot by its endpoints."""
    j = geo.match_orbit_point(x)
    if j is not None:
        left, right = geo.gap_interval(j) if j < geo.num_gaps else (None, None)
        if left is not None and abs(right - y) <= geo.tol:
            return (GAP, j)
    for idx, (l, r) in right_slots.items():
        if abs(l - x) <= geo.tol and abs(r - y) <= geo.tol:
            return (RIGHT_SLOT, idx)
    for idx, (l, r) in left_slots.items():
        if abs(l - x) <= geo.tol and abs(r - y) <= geo.tol:
            return (LEFT_SLOT, idx)
    return None


def _check_forest(forest: GapForest) -> None:
    indeg = {}
    for _s, t, _w in forest.edges:
        indeg[t] = indeg.get(t, 0) + 1
        if indeg[t] > 1:
            raise ConsistencyError(
                f"forest vertex {t} has in-degree {indeg[t]} (duplicated orbit point?)"
            )
    # cycle detection over gap -> gap edges
    adj = {}
    for s, t, _w in forest.edges:
        if t[0] == GAP:
            adj.setdefault(s, []).append(t)
    state = {}
    for start in adj:
        if state.get(start):
            continue
        stack = [(start, iter(adj.get(start, ())))]
        state[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if state.get(nxt) == 1:
                    raise ConsistencyError(
                        f"forest contains a cycle through {nxt} "
                        "(duplicated orbit point or tolerance failure)"
                    )
                if not state.get(nxt):
                    state[nxt] = 1
                    stack.append((nxt, iter(adj.get(nxt, ()))))
                    advanced = True
                    break
            if not advanced:
                state[node] = 2
                stack.pop()


def gap_lengths_from_forest(forest: GapForest, eps: Optional[float] = None) -> tuple[float, ...]:
    """The distinct gap lengths the forest generates, sorted ascending.

    Contributors: gaps whose inverse image splits (their length is the sum
    of the pieces), slots that absorb a whole single-piece inverse image
    (the chain they terminate shares their length), and the first and last
    gaps, which are slots themselves.
    """
    if eps is None:
        eps = default_cluster_eps(forest.n)
    by_key = {v.key: v for v in forest.vertices}
    out_count: dict = {}
    for s, _t, _w in forest.edges:
        out_count[s] = out_count.get(s, 0) + 1

    lengths = []
    for s, c in out_count.items():
        if c >= 2:
            total = math.fsum(w for (src, _t, w) in forest.edges if src == s)
            lengths.append(total)
    for s, t, _w in forest.edges:
        if out_count[s] == 1:
            target = by_key[t]
            if target.kind != GAP or target.slot_label:
                lengths.append(target.length)
    gap_keys = sorted(k for k in by_key if k[0] == GAP)
    lengths.append(by_key[gap_keys[0]].length)  # first gap (right slot of 0)
    lengths.append(by_key[gap_keys[-1]].length)  # last gap (left slot of 1)

    clusters = cluster_lengths(lengths, eps)
    return tuple(c.length for c in clusters)


def verify_forest_lengths(T: Iet, N: int) -> VerificationOutcome:
    """The forest-derived distinct-length set must match the gap-report
    clusters within ``default_cluster_eps(N)``."""
    forest = fgaps_build(T, N)
    derived = gap_lengths_from_forest(forest)
    report = gap_report(T, N)
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
    geo = _geometry(T, N)
    i = geo.locate_point(geo.ghost)
    if i is None:
        return None
    M = geo.num_gaps
    if i == 0:
        return "V"
    if i == M - 1:
        return "VI"
    left, right = geo.gap_interval(i)
    if geo.interior_cuts(left, right, T.alpha[1:-1]):
        return "IV"
    t1 = float(orbit(T, 2)[1])  # the exponent-1 orbit point
    if abs(right - t1) <= geo.tol:
        return "II"
    if abs(left - t1) <= geo.tol:
        return "III"
    return "I"


def case_table_bound(case: str, pi: Sequence[int]) -> int:
    """Distinct-gap-length bound for the detected ghost case."""
    from .gaps import dplus2_bound

    d = len(pi)
    last_col = dplus2_bound(pi) == d + 1
    return CASE_BOUNDS[(case, last_col)](d)
