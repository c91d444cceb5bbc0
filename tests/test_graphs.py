import math
from bisect import bisect_left, bisect_right
from fractions import Fraction

import numpy as np
import pytest

from gapscope.errors import ConsistencyError, DegenerateOrbitError
from gapscope.gaps import default_cluster_eps, gap_report, orbit
from gapscope.graphs import (
    GAP,
    GapGraph,
    LEFT_SLOT,
    RIGHT_SLOT,
    boshernitzan_bound_check,
    case_table_bound,
    classify_ghost_case,
    fgaps_build,
    gap_lengths_from_forest,
    ggaps_build,
    outdegree_identity_check,
    verify_forest_lengths,
)
from gapscope.iet import Iet, random_iet


def orbit_points(T, n):
    seg = orbit(T, n)
    return {k: float(seg[k]) for k in range(n)}


# ---------------------------------------------------------------------------
# The weighted digraph
# ---------------------------------------------------------------------------


def test_ggaps_rotation_level_nine():
    G = ggaps_build(Iet.rotation("sqrt(1/2)"), 9)
    assert G.num_vertices == 9
    assert G.num_edges - G.num_vertices <= 1  # d - 1 for a rotation
    assert not G.has_distinct_cycle()
    assert abs(math.fsum(G.weights) - 1.0) < 1e-12


def test_ggaps_demo_iet(demo_iet):
    G = ggaps_build(demo_iet, 8)
    assert G.num_vertices == 8
    assert G.num_edges - G.num_vertices <= 2


def test_ggaps_minimal_segment():
    G = ggaps_build(Iet.rotation(0.3), 2)
    assert G.num_vertices == 2
    _, _, out_w, in_w = G.degree_table()
    for v, w in enumerate(G.weights):
        assert abs(out_w[v] - w) < 1e-12
        assert abs(in_w[v] - w) < 1e-12


def test_ggaps_weight_axioms_random(rng):
    for _ in range(40):
        d = int(rng.integers(2, 6))
        T = random_iet(d, rng)
        N = int(rng.integers(2, 250))
        G = ggaps_build(T, N)  # weight axioms enforced inside
        _, _, out_w, in_w = G.degree_table()
        for v, w in enumerate(G.weights):
            assert abs(out_w[v] - w) < 1e-10
            assert abs(in_w[v] - w) < 1e-10
        assert G.num_edges - G.num_vertices <= d - 1


def test_rational_rotation_graph_has_isolated_cycle():
    G = ggaps_build(Iet.rotation(Fraction(1, 3)), 7)
    assert G.has_distinct_cycle()


def _reference_has_distinct_cycle(G):
    """The walk over the degree-one successor dict."""
    outdeg, indeg, _, _ = G.degree_table()
    ones = set(np.flatnonzero((indeg == 1) & (outdeg == 1)).tolist())
    succ = {s: t for (s, t) in G.edges if s in ones and t in ones}
    visited = set()
    for start in succ:
        path = set()
        node = start
        while node in succ and node not in visited:
            if node in path:
                return True
            path.add(node)
            node = succ[node]
        visited |= path
    return False


def test_has_distinct_cycle_equals_the_walk(reference_maps):
    found = 0
    for T in reference_maps[::2]:
        for N in (2, 7, 60):
            G = ggaps_build(T, N)
            assert G.has_distinct_cycle() == _reference_has_distinct_cycle(G), (T, N)
            found += G.has_distinct_cycle()
    assert found > 0
    # hand-made graphs: a cycle beside a chain, a self-loop, a chain alone,
    # and a cycle broken by a vertex of in-degree two
    for edges, cyclic in (
        ({(0, 1): 0.1, (1, 2): 0.1, (2, 0): 0.1, (3, 4): 0.1}, True),
        ({(0, 0): 0.5, (1, 2): 0.5}, True),
        ({(0, 1): 0.2, (1, 2): 0.2, (2, 3): 0.2}, False),
        ({(0, 1): 0.2, (1, 2): 0.2, (2, 0): 0.2, (3, 0): 0.2}, False),
    ):
        V = 1 + max(max(e) for e in edges)
        sources, targets = np.array(list(edges)).T
        G = GapGraph(n=V, d=2, pts=np.arange(V) / V, ends=np.arange(1, V + 1) / V,
                     sources=sources, targets=targets,
                     edge_weights=np.array(list(edges.values())), ghost=0.0)
        assert G.has_distinct_cycle() is cyclic
        assert _reference_has_distinct_cycle(G) is cyclic


def test_outdegree_identity_golden_cases(demo_iet):
    assert outdegree_identity_check(Iet.rotation("sqrt(1/2)"), 9).passed
    assert outdegree_identity_check(demo_iet, 8).passed


def test_outdegree_identity_degenerate_skips():
    out = outdegree_identity_check(Iet.identity(), 5)
    assert not out.applicable


def test_outdegree_identity_fake_discontinuity():
    # inverse continuous at alpha_1: the nominal count would overshoot
    T = Iet.new([0.195161, 0.678272, 0.126567], (3, 1, 2), normalize=True)
    assert outdegree_identity_check(T, 119).passed


def test_outdegree_identity_unseparated_is_not_applicable():
    # a huge gap swallows two discontinuities at this tiny N
    T = Iet.new([0.896684, 0.010871, 0.016543, 0.075902], (3, 1, 4, 2), normalize=True)
    out = outdegree_identity_check(T, 90)
    assert out.status == "not_applicable"


def test_outdegree_identity_ghost_beside_a_discontinuity_is_not_applicable():
    # at N = 2 gap 0 = [0, 0.567) holds the ghost 0.412 and alpha_1 = 0.279:
    # three pieces of its inverse image, two of them in gap 1
    T = Iet.new([0.4334, 0.2875, 0.2791], (3, 2, 1), normalize=True)
    assert outdegree_identity_check(T, 2).status == "not_applicable"
    assert outdegree_identity_check(T, 3).passed
    assert outdegree_identity_check(T, 50).passed


def test_outdegree_identity_never_fails_on_short_random_orbits():
    rng = np.random.default_rng(7)
    for d in range(2, 7):
        for _ in range(24):
            T = random_iet(d, rng)
            for N in (2, 3):
                out = outdegree_identity_check(T, N)
                assert out.status != "fail", (T, N, out.to_json())


def test_boshernitzan_bound_cases(demo_iet):
    out = boshernitzan_bound_check(Iet.rotation("sqrt(1/2)"), 9)
    assert out.passed and out.details["distinct_weights"] <= 3
    out = boshernitzan_bound_check(demo_iet, 8)
    assert out.passed and out.details["distinct_weights"] == 3
    # rational rotation: Keane fails, check downgrades
    out = boshernitzan_bound_check(Iet.rotation(0.5), 8)
    assert not out.applicable


def test_boshernitzan_random_four_iets(rng):
    done = 0
    while done < 12:
        T = random_iet(4, rng)
        N = int(rng.integers(10, 500))
        # the depth the check certifies to, so every draw applies
        if not T.keane_check(depth=max(N, 1000)).satisfied:
            continue
        out = boshernitzan_bound_check(T, N)
        assert out.status != "fail", out.to_json()
        if out.applicable:
            assert out.details["distinct_weights"] <= 9
        done += 1


def test_graph_serialization(demo_iet):
    G = ggaps_build(demo_iet, 8)
    data = G.to_json()
    assert data["kind"] == "gap_graph"
    assert len(data["vertices"]) == G.num_vertices
    assert len(data["edges"]) == G.num_edges
    text = G.to_edge_list()
    v_lines = [l for l in text.splitlines() if l.startswith("v ")]
    e_lines = [l for l in text.splitlines() if l.startswith("e ")]
    assert len(v_lines) == G.num_vertices and len(e_lines) == G.num_edges


# ---------------------------------------------------------------------------
# The slot forest
# ---------------------------------------------------------------------------


def test_forest_chain_and_split_structure(demo_iet):
    F = fgaps_build(demo_iet, 8)
    pts = gap_report(demo_iet, 8).points
    t = orbit_points(demo_iet, 8)

    def gap_key(value):
        return (GAP, pts.tolist().index(min(pts, key=lambda p: abs(p - value))))

    def targets(key):
        return [e[1] for e in F.edges if e[0] == key]

    # the long chain of equal gaps, ending at the first gap (a slot)
    chain = [gap_key(t[4]), gap_key(t[3]), gap_key(t[2]), gap_key(t[1])]
    for a, b in zip(chain, chain[1:]):
        assert targets(a) == [b]
    assert targets(chain[-1]) == [(GAP, 0)]

    # the splitting gap and its three slot pieces
    assert targets(gap_key(t[7])) == [gap_key(t[6])]
    M = len(pts)
    assert set(targets(gap_key(t[6]))) == {(GAP, M - 1), (RIGHT_SLOT, 1), (LEFT_SLOT, 2)}

    by_key = {v.key: v for v in F.vertices}
    assert abs(by_key[(GAP, 0)].length - 0.138193) < 1e-5  # right slot of 0
    assert abs(by_key[(GAP, M - 1)].length - 0.016508) < 1e-5  # left slot of 1
    assert abs(by_key[(RIGHT_SLOT, 1)].length - 0.121685) < 1e-5
    assert abs(by_key[(LEFT_SLOT, 2)].length - 0.008072) < 1e-5
    assert by_key[(GAP, 0)].slot_label == "R0"
    assert by_key[(GAP, M - 1)].slot_label == "L3"


def test_forest_lengths_demo_iet(demo_iet):
    F = fgaps_build(demo_iet, 8)
    lengths = gap_lengths_from_forest(F)
    want = sorted([0.138193, 0.016508, 0.016508 + 0.121685 + 0.008072])
    assert len(lengths) == 3
    for got, expect in zip(lengths, want):
        assert abs(got - expect) < 1e-5


def test_forest_lengths_rotation_match_three_gap():
    F = fgaps_build(Iet.rotation("sqrt(1/2)"), 9)
    lengths = gap_lengths_from_forest(F)
    gold = sorted([5 - 7 / math.sqrt(2), 3 / math.sqrt(2) - 2, 3 - 4 / math.sqrt(2)])
    assert len(lengths) == 3
    for got, expect in zip(lengths, gold):
        assert abs(got - expect) < 1e-10


@pytest.mark.parametrize(
    "alpha, N",
    [
        ("sqrt(1/2)", 10**4),
        ("sqrt(2/7)", 10**4),
        ("sqrt(5) - 2", 10**4),
        ("sqrt(1/2)", 10**5),
        ("sqrt(1/2)", 2 * 10**5),
        ("demo", 2 * 10**5),  # the demo 3-IET
        ("sqrt(1/2)", 10**6),
        ("demo", 10**6),
    ],
)
def test_graph_checks_pass_on_long_rotation_orbits(alpha, N, demo_iet):
    T = demo_iet if alpha == "demo" else Iet.rotation(alpha)
    for check in (verify_forest_lengths, outdegree_identity_check, boshernitzan_bound_check):
        out = check(T, N)
        assert out.passed, out.to_json()


def test_forest_rotation_slot_counts():
    F = fgaps_build(Iet.rotation("sqrt(1/2)"), 9)
    rights = [v for v in F.vertices if v.kind == RIGHT_SLOT] + [
        v for v in F.vertices if v.kind == GAP and v.slot_label == "R0"
    ]
    lefts = [v for v in F.vertices if v.kind == LEFT_SLOT] + [
        v for v in F.vertices if v.kind == GAP and v.slot_label == "L2"
    ]
    assert len(rights) == 2 and len(lefts) == 2


def test_forest_minimal_segment():
    F = fgaps_build(Iet.rotation("sqrt(1/2)"), 2)
    gaps = [v for v in F.vertices if v.kind == GAP]
    assert len(gaps) == 2


def test_forest_cycle_error_for_periodic_orbit():
    # the message names one gap on the cycle, as a plain tuple of str and int
    for p, q, N, through in ((1, 3, 7, 2), (2, 5, 11, 2), (1, 4, 9, 0)):
        with pytest.raises(ConsistencyError) as err:
            fgaps_build(Iet.rotation(Fraction(p, q)), N)
        assert str(err.value) == (
            f"forest contains a cycle through ('gap', {through}) "
            "(duplicated orbit point or tolerance failure)"
        )


def test_forest_degenerate_orbit_error():
    # at this N the orbit misses the last exchanged interval entirely
    T = Iet.new(
        [0.084419, 0.409868, 0.224306, 0.268097, 0.013310], (2, 5, 1, 4, 3),
        normalize=True,
    )
    with pytest.raises(DegenerateOrbitError):
        fgaps_build(T, 277)


def test_forest_verification_and_glue_random(rng):
    done = skipped = 0
    while done < 25:
        d = int(rng.integers(2, 6))
        T = random_iet(d, rng)
        N = int(rng.integers(5, 250))
        if not T.keane_check(depth=300).satisfied:
            continue
        try:
            fgaps_build(T, N)
        except DegenerateOrbitError:
            skipped += 1
            continue
        assert verify_forest_lengths(T, N).passed, (T, N)
        done += 1


# ---------------------------------------------------------------------------
# Reference: both graphs built gap by gap
# ---------------------------------------------------------------------------


def _reference_graphs(T, N):
    """The per-gap construction: each gap's inverse image is rebuilt piece
    by piece, and every piece is matched back to gaps and slots by its
    endpoints under default_cluster_eps(N).  Returns the digraph's edge map
    and the forest's vertex keys and edges; raises DegenerateOrbitError for
    a piece that matches no gap or slot."""
    pts = gap_report(T, N).points
    tol = default_cluster_eps(N)
    M, d = len(pts), T.d
    inv = T.inverse()

    def gap(i):
        return (pts[i], pts[i + 1]) if i + 1 < M else (pts[-1], 1.0)

    def pieces(left, right):
        cuts = [c for c in T.alpha[1:-1] if left + tol < c < right - tol]
        bounds = [left, *cuts, right]
        out = []
        for u, v in zip(bounds, bounds[1:]):
            mid = 0.5 * (u + v)
            x = inv.apply(mid) - (mid - u)
            y = x + (v - u)
            j = bisect_right(pts, x + tol)
            inner = []
            while j < M and pts[j] < y - tol:
                inner.append(pts[j])
                j += 1
            seq = [x, *inner, y]
            out.extend(zip(seq, seq[1:]))
        return out

    def overlaps(x, y):
        j = max(min(bisect_right(pts, x + tol) - 1, M - 1), 0)
        while j < M and gap(j)[0] < y - tol:
            overlap = min(y, gap(j)[1]) - max(x, gap(j)[0])
            if overlap > tol:
                yield j, overlap
            j += 1

    right_slots = {}
    for k in range(d):
        j = bisect_right(pts, T.beta[k] + tol)
        if j < M:
            right_slots[k] = (T.beta[k], pts[j])
    left_slots = {}
    for k in range(1, d + 1):
        j = bisect_left(pts, T.beta[k] - tol) - 1
        if j >= 0:
            left_slots[k] = (pts[j], T.beta[k])

    def classify(x, y):
        j = bisect_left(pts, x - tol)
        if j < M and abs(pts[j] - x) <= tol and abs(gap(j)[1] - y) <= tol:
            return (GAP, j)
        for kind, slots in ((RIGHT_SLOT, right_slots), (LEFT_SLOT, left_slots)):
            for k, (l, r) in slots.items():
                if abs(l - x) <= tol and abs(r - y) <= tol:
                    return {(RIGHT_SLOT, 0): (GAP, 0), (LEFT_SLOT, d): (GAP, M - 1)}.get(
                        (kind, k), (kind, k))
        return None

    keys = [(GAP, i) for i in range(M)]
    keys += [(RIGHT_SLOT, k) for k in right_slots if k != 0]
    keys += [(LEFT_SLOT, k) for k in left_slots if k != d]
    known = set(keys)
    edges, forest_edges = {}, []
    for i in range(M):
        for x, y in pieces(*gap(i)):
            for j, overlap in overlaps(x, y):
                edges[(i, j)] = edges.get((i, j), 0.0) + overlap
            key = classify(x, y)
            if key not in known:
                raise DegenerateOrbitError(f"piece ({x!r}, {y!r}) of gap {i} matches nothing")
            forest_edges.append(((GAP, i), key, y - x))
    return edges, keys, forest_edges


def _reference_maps():
    rng = np.random.default_rng(20261018)
    maps = [
        ("demo", Iet.new(["sqrt(1/3)", "sqrt(1/2) - sqrt(1/3)", "1 - sqrt(1/2)"], (3, 2, 1))),
        ("sqrt(1/2)", Iet.rotation("sqrt(1/2)")),
    ]
    return maps + [(f"random {d}-IET", random_iet(d, rng)) for d in (3, 4, 5, 6)]


@pytest.mark.parametrize("N", [2, 8, 1000, 20_000])
@pytest.mark.parametrize("name, T", _reference_maps())
def test_graphs_equal_the_per_gap_reference(name, T, N):
    eps = default_cluster_eps(N)
    try:
        edges, keys, forest_edges = _reference_graphs(T, N)
    except DegenerateOrbitError:
        with pytest.raises(DegenerateOrbitError):
            fgaps_build(T, N)
        edges = None
    G = ggaps_build(T, N)
    if edges is not None:
        assert set(G.edges) == set(edges)
        for k, w in edges.items():
            assert abs(G.edges[k] - w) <= eps, (k, G.edges[k], w)
        F = fgaps_build(T, N)
        assert [v.key for v in F.vertices] == keys
        assert [(s, t) for s, t, _w in F.edges] == [(s, t) for s, t, _w in forest_edges]
        for (_s, _t, w), (_rs, _rt, rw) in zip(F.edges, forest_edges):
            assert abs(w - rw) <= eps


def _plain(value) -> bool:
    """Whether value is built of dicts with str keys, lists, and Python
    ints, floats and strs only (no numpy scalars)."""
    if isinstance(value, dict):
        return all(type(k) is str and _plain(v) for k, v in value.items())
    if isinstance(value, list):
        return all(map(_plain, value))
    return type(value) in (int, float, str)


def test_graph_and_forest_views_are_cached_and_arrays_read_only(demo_iet):
    G, F = ggaps_build(demo_iet, 500), fgaps_build(demo_iet, 500)
    # a view rebuilt per access would make lookups in a loop quadratic
    assert G.vertices is G.vertices and G.edges is G.edges and G.weights is G.weights
    assert F.vertices is F.vertices and F.edges is F.edges
    assert len(G.edges) == G.num_edges and len(F.vertices) == len(F.kind)
    arrays = [v for obj in (G, F) for v in vars(obj).values() if isinstance(v, np.ndarray)]
    assert len(arrays) == 5 + 1 + 7  # GapGraph fields, its weights, GapForest fields
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0] = arr[0]
    with pytest.raises(TypeError):
        G.edges[(0, 0)] = 1.0
    assert _plain(G.to_json()) and _plain(F.to_json())


def test_forest_serialization(demo_iet):
    F = fgaps_build(demo_iet, 8)
    data = F.to_json()
    assert data["kind"] == "gap_forest"
    text = F.to_edge_list()
    assert any(line.startswith("v gap:")
               for line in text.splitlines())
    assert any(line.startswith("e gap:") for line in text.splitlines())


# ---------------------------------------------------------------------------
# Ghost-case classification and bound table
# ---------------------------------------------------------------------------


def test_demo_iet_ghost_case(demo_iet):
    # the ghost lands in a gap containing a discontinuity of the inverse
    assert classify_ghost_case(demo_iet, 8) == "IV"
    bound = case_table_bound("IV", demo_iet.pi)
    assert bound == 4
    assert len(gap_report(demo_iet, 8).clusters) <= bound


def test_case_bound_table_columns():
    # rotations satisfy the last-column condition
    assert case_table_bound("I", (2, 1)) == 3
    assert case_table_bound("IV", (2, 1)) == 2
    assert case_table_bound("I", (3, 2, 1)) == 5
    assert case_table_bound("VI", (3, 2, 1)) == 4


def test_case_classification_respects_table(rng):
    done = 0
    while done < 30:
        d = int(rng.integers(2, 6))
        T = random_iet(d, rng)
        N = int(rng.integers(10, 400))
        if not T.keane_check(depth=300).satisfied:
            continue
        case = classify_ghost_case(T, N)
        if case is None:
            continue
        assert case in {"I", "II", "III", "IV", "V", "VI"}
        assert len(gap_report(T, N).clusters) <= case_table_bound(case, T.pi)
        done += 1
