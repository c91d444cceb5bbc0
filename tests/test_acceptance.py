"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line.  Run with ``pytest tests/test_acceptance.py -v -s``.

The sweeps are seeded and deterministic; stated tolerances and runtime
budgets are asserted, not just reported.
"""

import math
import time
from fractions import Fraction

import numpy as np

from gapscope.distribution import (
    arc_cutoff_kernel,
    avg_gap_rotation_exact,
    farey_arc_sum,
    limit_gap_distribution,
)
from gapscope.gaps import (
    dplus2_bound,
    gap_report,
    orbit,
    sigma_recursion,
    three_gap_predict,
)
from gapscope.graphs import ggaps_build, outdegree_identity_check, fgaps_build, gap_lengths_from_forest
from gapscope.iet import Iet, random_iet
from gapscope.zipper import check_gap_zipper_correspondence, zipper_torus

A_GOLD = 3 / math.sqrt(2) - 2
B_GOLD = 3 - 4 / math.sqrt(2)
C_GOLD = 5 - 7 / math.sqrt(2)


def report(name, ok, extra=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {name}: {status} {extra}")
    assert ok, f"{name} failed: {extra}"


def test_criterion_1_golden_rotation_gap_report():
    """alpha = 1/sqrt(2), N = 9: counts (6, 1, 2), lengths within 1e-10,
    gap_report runtime under 1 ms."""
    R = Iet.rotation("sqrt(1/2)")
    gap_report(R, 9)  # warm up
    t0 = time.perf_counter()
    rep = gap_report(R, 9)
    elapsed = time.perf_counter() - t0
    got = {c.count: c.length for c in rep.clusters}
    ok = (
        set(got) == {6, 1, 2}
        and abs(got[6] - A_GOLD) <= 1e-10
        and abs(got[1] - B_GOLD) <= 1e-10
        and abs(got[2] - C_GOLD) <= 1e-10
        and elapsed < 1e-3
    )
    report("1 (golden three-gap case)", ok, f"runtime {elapsed*1e6:.0f} us")


def test_criterion_2_sigma_recursion_oracle():
    """500 random irrational alpha, N <= 1000: the recursion equals the
    sorting permutation exactly; under 10 s total."""
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(500):
        alpha = float(rng.uniform(1e-6, 1 - 1e-6))
        N = int(rng.integers(2, 1001))
        pred = three_gap_predict(alpha, N)
        if pred.is_rational:  # floats are never here in practice
            continue
        sigma = sigma_recursion(N, pred.lower[1], pred.upper[1])
        sorted_perm = tuple(int(v) for v in np.argsort(orbit(Iet.rotation(alpha), N)))
        assert sigma == sorted_perm, (alpha, N)
        checked += 1
    elapsed = time.perf_counter() - t0
    report("2 (sigma recursion oracle)", checked == 500 and elapsed < 10.0,
           f"{checked} cases in {elapsed:.1f}s")


def test_criterion_3_three_gap_sweep():
    """1000 random (alpha, N): at most 3 clusters matching the prediction;
    rational alpha = a/q gives q gaps of 1/q within 1e-10."""
    rng = np.random.default_rng(202)
    for _ in range(800):
        alpha = float(rng.uniform(1e-6, 1 - 1e-6))
        N = int(rng.integers(1, 1001))
        rep = gap_report(Iet.rotation(alpha), N)
        assert len(rep.clusters) <= 3, (alpha, N)
        pred = three_gap_predict(alpha, N)
        expected = pred.expected_clusters()
        assert len(expected) == len(rep.clusters), (alpha, N)
        for e, g in zip(expected, rep.clusters):
            assert e.count == g.count and abs(e.length - g.length) <= 1e-9, (alpha, N)
    for _ in range(200):
        q = int(rng.integers(2, 200))
        a = int(rng.integers(1, q))
        g = math.gcd(a, q)
        a, q = a // g, q // g
        if q < 2:
            continue
        N = int(rng.integers(q, 1001))
        rep = gap_report(Iet.rotation(Fraction(a, q)), N)
        assert rep.num_points == q, (a, q, N)
        assert len(rep.clusters) == 1
        assert rep.clusters[0].count == q
        assert abs(rep.clusters[0].length - 1.0 / q) <= 1e-10
    report("3 (three-gap sweep incl. rational)", True, "1000 cases")


def test_criterion_4_zipper_invariants_and_correspondence():
    """Unit area within 1e-10 plus the generic relations on 10^4 random
    (alpha, N); the gap <-> rectangle correspondence on 10^3 cases."""
    rng = np.random.default_rng(303)
    for _ in range(10_000):
        alpha = float(rng.uniform(1e-6, 1 - 1e-6))
        N = int(rng.integers(1, 1001))
        zr = zipper_torus(alpha, N)
        assert abs(zr.area() - 1.0) <= 1e-10, (alpha, N)
        if zr.case == "generic":
            assert abs(sum(zr.widths) - 1.0) <= 1e-10
            assert abs(zr.heights[1] - zr.heights[0] - zr.heights[2]) <= 1e-10
    for _ in range(1000):
        alpha = float(rng.uniform(1e-4, 1 - 1e-4))
        N = int(rng.integers(1, 500))
        out = check_gap_zipper_correspondence(alpha, N)
        assert out.passed, (alpha, N, out.to_json())
    report("4 (zipper invariants + correspondence)", True, "10^4 + 10^3 cases")


def test_criterion_5_dplus2_sweep():
    """200 Keane-certified random d-IETs per d in {3,4,5}, each at
    N in {100, 500, 1000}: distinct lengths respect the d+1/d+2 bound and
    3(d-1); under 2 minutes."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    for d in (3, 4, 5):
        done = 0
        while done < 200:
            T = random_iet(d, rng)
            if not T.keane_check(depth=1000).satisfied:
                continue
            seg = orbit(T, 1000)
            bound = dplus2_bound(T.pi)
            for N in (100, 500, 1000):
                rep = gap_report(T, N, points=seg[:N])
                count = rep.distinct_count
                assert count <= bound, (T, N, count, bound)
                assert count <= 3 * (d - 1), (T, N, count)
            done += 1
    elapsed = time.perf_counter() - t0
    report("5 (d+2 theorem sweep)", elapsed < 120.0,
           f"600 maps x 3 levels in {elapsed:.1f}s")


def test_criterion_6_forest_golden_case(demo_iet):
    """The running-example 3-IET at N = 8: the slot forest is acyclic and derives
    exactly the three distinct lengths, within 1e-5 of the values implied
    by the listed orbit points."""
    forest = fgaps_build(demo_iet, 8)  # acyclicity asserted inside
    lengths = gap_lengths_from_forest(forest)
    r0 = 0.138193
    l3 = 1 - 0.983492
    want = sorted([r0, l3, l3 + 0.121685 + 0.008072])
    ok = len(lengths) == 3 and all(
        abs(got - expect) <= 1e-5 for got, expect in zip(lengths, want)
    )
    report("6 (demo-IET forest case)", ok,
           f"lengths {[round(v, 6) for v in lengths]}")


def test_criterion_7_gap_graph_axioms():
    """Weight-function axioms and the outdegree identity on 500 random
    (T, N); edge count never exceeds vertices by more than d - 1."""
    rng = np.random.default_rng(505)
    checked = retried = 0
    while checked < 500:
        d = int(rng.integers(2, 6))
        T = random_iet(d, rng)
        N = int(rng.integers(30, 400))
        if not T.keane_check(depth=300).satisfied:
            continue
        G = ggaps_build(T, N)  # raises if weight axioms fail
        assert G.num_edges - G.num_vertices <= d - 1, (T, N)
        out = outdegree_identity_check(T, N, graph=G)
        assert out.status != "fail", (T, N, out.to_json())
        if not out.applicable:
            # orbit too short to separate the discontinuities; retry longer
            retried += 1
            N2 = 4 * N
            out = outdegree_identity_check(T, N2)
            if not out.applicable:
                continue
            assert out.passed, (T, N2, out.to_json())
        checked += 1
    report("7 (gap graph axioms)", True, f"500 instances ({retried} rerun longer)")


def test_criterion_8_distribution_convergence():
    """|exact(0,1,z,N) - limit(z)| nonincreasing along N in {50, 200, 800}
    and at most 0.01 at N = 800 for z in {0.25, 0.5, 0.75}; the limit is
    continuous across z = 1 and z = 2 within 1e-4; under 1 minute."""
    t0 = time.perf_counter()
    for z in (0.25, 0.5, 0.75):
        target = limit_gap_distribution(z)
        errs = [
            abs(avg_gap_rotation_exact(0.0, 1.0, z, N) - target)
            for N in (50, 200, 800)
        ]
        assert errs[0] >= errs[1] >= errs[2], (z, errs)
        assert errs[2] <= 0.01, (z, errs)
    for boundary in (1.0, 2.0):
        jump = abs(
            limit_gap_distribution(boundary - 1e-6)
            - limit_gap_distribution(boundary + 1e-6)
        )
        assert jump <= 1e-4, (boundary, jump)
    elapsed = time.perf_counter() - t0
    report("8 (distribution convergence)", elapsed < 60.0, f"{elapsed:.1f}s")


def test_criterion_9_arc_sum_consistency():
    """The Farey-arc sum of the closed-form kernel equals the exact
    average to 1e-9 at the same level, and the arc count at N = 1000 is
    within 2% of 3/pi^2."""
    for z, N in [(0.5, 500), (1.5, 500)]:
        lhs = farey_arc_sum(arc_cutoff_kernel(z), N)
        rhs = avg_gap_rotation_exact(0.0, 1.0, z, N)
        assert abs(lhs - rhs) <= 1e-9, (z, N, abs(lhs - rhs))
    count_sum = farey_arc_sum(lambda x, y: 1.0, 1000)
    rel = abs(count_sum - 3 / math.pi**2) / (3 / math.pi**2)
    assert rel <= 0.02, rel
    report("9 (arc-sum consistency)", True, f"arc-count rel err {rel:.4f}")
