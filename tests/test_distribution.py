import json
import math
import tracemalloc

import numpy as np
import pytest
from scipy import integrate

from gapscope.distribution import (
    DistributionCurve,
    SIX_OVER_PI_SQ,
    _arc_cutoff_integral,
    arc_cutoff_kernel,
    avg_gap_rotation_exact,
    farey_arc_sum,
    iet_curve,
    limit_curve,
    limit_gap_distribution,
    rotation_curve,
    verify_distribution_convergence,
)
from gapscope.errors import DomainError
from gapscope.iet import Iet
from gapscope.numerics import _farey_pair_ints, farey_arc_blocks
from gapscope.zipper import cutoff_f, zipper_torus


# ---------------------------------------------------------------------------
# Exact average over rotations
# ---------------------------------------------------------------------------


def test_exact_average_at_zero_is_one():
    for N in (1, 2, 17, 120):
        assert abs(avg_gap_rotation_exact(0, 1, 0.0, N) - 1.0) < 1e-12


def test_exact_average_monotone_in_z():
    vals = [avg_gap_rotation_exact(0, 1, z, 60) for z in (0.0, 0.3, 0.8, 1.1, 1.9, 3.0)]
    for a, b in zip(vals, vals[1:]):
        assert b <= a + 1e-14
    assert all(0.0 <= v <= 1.0 for v in vals)


def test_exact_average_matches_monte_carlo():
    # independent oracle: sample the rectangle cut-off at random alpha
    rng = np.random.default_rng(987)
    M = 100_000
    z, N = 1.5, 50
    vals = np.fromiter(
        (cutoff_f(zipper_torus(float(a), N), z) for a in rng.uniform(1e-9, 1 - 1e-9, M)),
        dtype=float,
        count=M,
    )
    mc = float(vals.mean())
    sem = float(vals.std() / math.sqrt(M))
    exact = avg_gap_rotation_exact(0, 1, z, N)
    assert abs(mc - exact) <= 3 * sem


def test_exact_average_partial_window():
    rng = np.random.default_rng(55)
    M = 40_000
    z, N, a, b = 1.0, 60, 0.3, 0.7
    vals = np.fromiter(
        (cutoff_f(zipper_torus(float(x), N), z) for x in rng.uniform(a, b, M)),
        dtype=float,
        count=M,
    )
    mc, sem = float(vals.mean()), float(vals.std() / math.sqrt(M))
    exact = avg_gap_rotation_exact(a, b, z, N)
    assert abs(mc - exact) <= 3.5 * sem


def test_exact_average_domain():
    with pytest.raises(DomainError):
        avg_gap_rotation_exact(0.7, 0.3, 1.0, 10)
    with pytest.raises(DomainError):
        avg_gap_rotation_exact(0, 1, -1.0, 10)


def _per_arc_average(a, b, z, N):
    """The exact average summed arc by arc along the Farey walk."""
    parts = []
    for a1, q1, a2, q2 in _farey_pair_ints(N, a, b):
        t_lo = max(0.0, q1 * q2 * a - q2 * a1)
        t_hi = min(1.0, q1 * q2 * b - q2 * a1)
        if t_hi <= t_lo:
            continue
        val = _arc_cutoff_integral(q1 / N, q2 / N, z, t_lo, t_hi)
        parts.append(val / (q1 * q2))
    return math.fsum(parts) / (b - a)


@pytest.mark.parametrize("window", [(0.0, 1.0), (1 / 3, 0.5), (0.43, 0.68), (0.5, 1.0)])
@pytest.mark.parametrize("N", [1, 2, 3, 17, 200, 400])
def test_rotation_curve_equals_per_arc_sum(N, window):
    # bit for bit; at N = 400 the walk to b = 0.68 stops at 17/25 although
    # the float 0.68 lies above it, so the arc that starts there is left out
    a, b = window
    zs = [0.0, 0.4, 1.0, 1.5, 2.0, 3.25]
    assert list(rotation_curve(zs, N, a, b).values) == [_per_arc_average(a, b, z, N) for z in zs]


def _arc_list(N, a=0, b=1):
    arcs = []
    for a1, q1, a2, q2 in farey_arc_blocks(N, a, b):
        assert np.all(a2 * q1 - a1 * q2 == 1)
        arcs += zip(a1.tolist(), q1.tolist(), a2.tolist(), q2.tolist())
    return arcs


def test_arc_blocks_enumerate_each_farey_arc_once():
    for N in [*range(1, 61), 400]:
        arcs = _arc_list(N)
        assert len(arcs) == len(set(arcs))
        assert set(arcs) == set(_farey_pair_ints(N, 0, 1))


def test_arc_blocks_match_the_walk_at_float_neighbours_of_fractions():
    # windows that start or end on, or one float beside, a Farey fraction
    for N in (7, 25, 60):
        for p, q in ((1, 3), (2, 5), (17, 25), (1, 2)):
            v = p / q
            for a in (math.nextafter(v, 0), v, math.nextafter(v, 1)):
                for b in (math.nextafter(a, 1), math.nextafter(v, 1), 0.9):
                    if a < b:
                        assert sorted(_arc_list(N, a, b)) == sorted(_farey_pair_ints(N, a, b))


def test_rotation_curve_memory_stays_at_block_scale():
    # the per-arc list of the arc-by-arc sum peaks at 1.5 MB here
    tracemalloc.start()
    try:
        rotation_curve([0.25 * k for k in range(16)], 400)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3_000_000


# ---------------------------------------------------------------------------
# Limit distribution
# ---------------------------------------------------------------------------


def test_limit_first_branch_value():
    assert abs(limit_gap_distribution(0.5) - (1 - 3 / math.pi**2)) < 1e-15
    # linear branch: g(z) = 1 - (6/pi^2) z on (0, 1)
    for z in (0.1, 0.25, 0.75, 0.99):
        assert abs(limit_gap_distribution(z) - (1 - SIX_OVER_PI_SQ * z)) < 1e-14


def test_limit_tends_to_one_at_zero():
    assert abs(limit_gap_distribution(1e-12) - 1.0) < 1e-11


def test_limit_continuity_at_branch_points():
    for boundary in (1.0, 2.0):
        below = limit_gap_distribution(boundary - 1e-6)
        above = limit_gap_distribution(boundary + 1e-6)
        at = limit_gap_distribution(boundary)
        assert abs(below - above) <= 1e-4
        assert min(below, above) - 1e-5 <= at <= max(below, above) + 1e-5


def test_limit_positive_and_decreasing_tail():
    zs = [0.5, 1.5, 2.5, 4.0, 8.0, 20.0]
    vals = [limit_gap_distribution(z) for z in zs]
    assert all(v > 0 for v in vals)
    for a, b in zip(vals, vals[1:]):
        assert b < a


def test_limit_matches_finite_level_in_all_branches():
    # the closed form is the N -> infinity limit of the exact average
    for z in (0.5, 1.5, 2.5):
        err = abs(avg_gap_rotation_exact(0, 1, z, 400) - limit_gap_distribution(z))
        assert err < 1e-4


def test_limit_domain():
    with pytest.raises(DomainError):
        limit_gap_distribution(0.0)
    with pytest.raises(DomainError):
        limit_gap_distribution(-1.0)


# ---------------------------------------------------------------------------
# Arc kernel, Farey sums, and the integral over Omega
# ---------------------------------------------------------------------------


def test_arc_sum_of_ones_counts_arcs():
    # (#arcs in F(N)) / N^2 approaches 3/pi^2
    val = farey_arc_sum(lambda x, y: 1.0, 300)
    assert abs(val - 3 / math.pi**2) / (3 / math.pi**2) < 0.02


def test_arc_sum_of_kernel_equals_exact_average():
    for z, N in [(0.5, 150), (1.5, 150)]:
        lhs = farey_arc_sum(arc_cutoff_kernel(z), N)
        rhs = avg_gap_rotation_exact(0, 1, z, N)
        assert abs(lhs - rhs) < 1e-9


def test_arc_sum_converges_to_region_integral():
    # smooth test kernel: the normalized sum approaches the integral
    # (6/pi^2) times the integral of x + y over Omega, which is 2/3
    F = lambda x, y: x + y
    target = 4 / math.pi**2
    assert abs(farey_arc_sum(F, 1000) - target) < 1e-2


def test_kernel_domain_error_outside_region():
    F = arc_cutoff_kernel(0.5)
    with pytest.raises(DomainError):
        F(0.2, 0.3)  # x + y <= 1
    with pytest.raises(DomainError):
        F(0.0, 1.0)


def test_kernel_at_zero_threshold_is_reciprocal_product():
    # widths sum to 1, so F(x, y) = 1/(x y) at z = 0
    F = arc_cutoff_kernel(0.0)
    for x, y in [(0.5, 0.9), (0.8, 0.7), (1.0, 1.0)]:
        assert abs(F(x, y) - 1.0 / (x * y)) < 1e-12


def test_kernel_against_midpoint_quadrature():
    # the unit t-integral of the total width with height >= 1, breaking
    # where h1 = t/y and h3 = (1-t)/x cross 1
    x, y = 0.5, 0.9
    w1, w2, w3 = 1 - x, x + y - 1, 1 - y

    def width_above_one(t):
        heights = (t / y, (1 / y - 1 / x) * t + 1 / x, (1 - t) / x)
        return sum(w for w, h in zip((w1, w2, w3), heights) if h >= 1.0)

    numeric, _err = integrate.quad(
        width_above_one, 0, 1, points=[y, 1 - x], epsabs=1e-13, epsrel=1e-13
    )
    assert abs(arc_cutoff_kernel(1.0)(x, y) - numeric / (x * y)) < 1e-10


def test_kernel_symmetry_probe():
    # swapping the endpoint roles with t -> 1-t swaps the outer widths
    F = arc_cutoff_kernel(0.7)
    for x, y in [(0.6, 0.9), (0.55, 0.75), (0.95, 0.8)]:
        assert abs(F(x, y) - F(y, x)) < 1e-12


@pytest.mark.parametrize("z", [0.5, 1.5, 2.5, 4.0])
def test_region_integral_of_kernel_matches_limit(z):
    F = arc_cutoff_kernel(z)
    val, _err = integrate.dblquad(
        lambda y, x: F(x, y), 0, 1, lambda x: 1 - x, lambda x: 1.0,
        epsabs=1e-9, epsrel=1e-9,
    )
    assert abs(SIX_OVER_PI_SQ * val - limit_gap_distribution(z)) < 1e-8


def test_arc_sum_rejects_non_finite_kernels():
    with pytest.raises(DomainError):
        farey_arc_sum(lambda x, y: float("inf"), 10)


def test_arc_sum_window_restricts_pairs():
    # count the arcs actually summed (F == 1 alone cannot distinguish the
    # windows: the Farey arcs are symmetric about 1/2)
    seen = []

    def counting(x, y):
        seen.append((x, y))
        return 1.0

    farey_arc_sum(counting, 40, 0.0, 1.0)
    total = len(seen)
    seen.clear()
    farey_arc_sum(counting, 40, 0.0, 0.5)
    assert 0 < len(seen) < total
    assert all(x + y > 1.0 for x, y in seen)


# ---------------------------------------------------------------------------
# Empirical averages for IET compositions
# ---------------------------------------------------------------------------


def test_empirical_identity_matches_exact():
    em = iet_curve(Iet.identity(), [0.5], 25, grid=1500).values[0]
    ex = avg_gap_rotation_exact(0, 1, 0.5, 25)
    assert abs(em - ex) < 0.01


def test_empirical_at_zero_threshold(demo_iet):
    val = iet_curve(demo_iet, [0.0], 60, grid=40, a=0.1, b=0.9).values[0]
    assert val > 0.999


def test_empirical_curve_monotone(demo_iet):
    curve = iet_curve(demo_iet, [0.0, 0.5, 1.0, 1.5, 2.5], 100, grid=50, a=0.1, b=0.9)
    assert all(0.0 <= v <= 1.0 + 1e-9 for v in curve.values)
    for a, b in zip(curve.values, curve.values[1:]):
        assert b <= a + 1e-12


# ---------------------------------------------------------------------------
# Curves and the convergence verification
# ---------------------------------------------------------------------------


def test_rotation_curve_and_csv_rows():
    curve = rotation_curve([0.25, 0.5, 1.0], 80)
    assert curve.kind == "exact"
    rows = list(curve.csv_rows())
    assert [r["z"] for r in rows] == [0.25, 0.5, 1.0]
    assert [r["value"] for r in rows] == list(curve.values)


def test_curve_validation_rejects_increasing_values():
    with pytest.raises(DomainError):
        DistributionCurve((0.1, 0.2), (0.5, 0.9), N=10, a=0, b=1, kind="exact")
    with pytest.raises(DomainError):
        DistributionCurve((0.2, 0.1), (0.9, 0.5), N=10, a=0, b=1, kind="exact")


def test_curve_json_roundtrip():
    curve = limit_curve([0.5, 1.5, 2.5])
    data = json.loads(json.dumps(curve.to_json()))
    assert (data["curve_kind"], data["n"], data["a"], data["b"]) == ("limit", 0, 0.0, 1.0)
    assert [(p["z"], p["value"]) for p in data["points"]] == list(zip(curve.z_values, curve.values))


def test_verify_distribution_convergence_small():
    out = verify_distribution_convergence(n_values=(50, 200))
    assert out.passed and out.details["tol_final"] == 0.01
    errs = out.details["errors"]["0.5"]
    assert errs[1] <= errs[0]
