import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapscope.errors import DomainError
from gapscope.gaps import (
    GapCluster,
    GapReport,
    ThreeGapPrediction,
    cluster_lengths,
    default_cluster_eps,
    dplus2_bound,
    gap_report,
    orbit,
    sigma_recursion,
    three_gap_predict,
    verify_dplus2,
    verify_three_gap,
)
from gapscope.iet import Iet, random_iet

A_GOLD = 3 / math.sqrt(2) - 2
B_GOLD = 3 - 4 / math.sqrt(2)
C_GOLD = 5 - 7 / math.sqrt(2)


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def test_orbit_of_demo_iet(demo_iet):
    got = orbit(demo_iet, 8)
    expect = [0, 0.42265, 0.845299, 0.138193, 0.560842, 0.983492, 0.276385, 0.699035]
    assert np.allclose(got, expect, atol=2e-6)


def test_orbit_identity_is_constant():
    assert np.all(orbit(Iet.identity(), 5) == 0.0)


def test_rotation_orbit_fractional_parts():
    # rotations take the direct fractional parts {n * theta}
    got = orbit(Iet.rotation("sqrt(1/2)"), 3)
    assert np.allclose(got, [0.0, 0.7071067811865476, 0.41421356237309515])


# ---------------------------------------------------------------------------
# Gap reports
# ---------------------------------------------------------------------------


def test_gap_report_golden_case():
    rep = gap_report(Iet.rotation("sqrt(1/2)"), 9)
    assert rep.num_points == 9
    assert [(c.count) for c in rep.clusters] == [2, 6, 1]  # sorted by length
    for c, (length, count) in zip(rep.clusters, [(C_GOLD, 2), (A_GOLD, 6), (B_GOLD, 1)]):
        assert abs(c.length - length) < 1e-10
        assert c.count == count
    assert abs(rep.gap_sum() - 1.0) < 1e-12


def test_gap_report_rational_deduplicates():
    rep = gap_report(Iet.rotation(Fraction(1, 3)), 7)
    assert rep.deduplicated
    assert rep.num_points == 3
    assert len(rep.clusters) == 1
    assert rep.clusters[0].count == 3
    assert abs(rep.clusters[0].length - 1 / 3) < 1e-12
    # sigma carries one representative exponent per distinct point
    assert rep.sigma[0] == 0 and len(rep.sigma) == 3
    pts = orbit(Iet.rotation(Fraction(1, 3)), 7)
    for k, exp in enumerate(rep.sigma):
        assert abs(pts[exp] - rep.points[k]) <= rep.eps


def test_gap_report_raw_multiset_flag():
    rep = gap_report(Iet.rotation(Fraction(1, 3)), 7, keep_duplicates=True)
    assert rep.num_points == 7
    assert not rep.deduplicated
    zero = sum(c.count for c in rep.clusters if c.length < 1e-12)
    assert zero == 4  # 7 points on 3 distinct values


def test_gap_report_demo_iet(demo_iet):
    rep = gap_report(demo_iet, 8)
    expected = [(0.016508, 1), (0.138193, 5), (0.146264, 2)]
    assert len(rep.clusters) == 3
    for c, (length, count) in zip(rep.clusters, expected):
        assert abs(c.length - length) < 2e-6 and c.count == count


def test_gap_sum_is_one_for_random_maps(rng):
    for _ in range(25):
        d = int(rng.integers(2, 7))
        T = random_iet(d, rng)
        N = int(rng.integers(2, 400))
        rep = gap_report(T, N)
        assert abs(rep.gap_sum() - 1.0) < 1e-10
        assert sum(c.count for c in rep.clusters) == rep.num_points


SURDS = ["sqrt(1/2)", "sqrt(2/7)", "sqrt(5) - 2"]


@pytest.mark.parametrize("N", [10**4, 10**5, 10**6])
@pytest.mark.parametrize("alpha", SURDS)
def test_gap_report_matches_prediction_at_large_n(alpha, N):
    rep = gap_report(Iet.rotation(alpha), N)
    pred = three_gap_predict(alpha, N)
    want = sorted((l, c) for l, c in zip(pred.lengths, pred.counts) if c > 0)
    assert [c.count for c in rep.clusters] == [c for _, c in want]
    for got, (length, _) in zip(rep.clusters, want):
        assert abs(got.length - length) <= rep.eps


def test_gap_report_json_roundtrip(demo_iet):
    rep = gap_report(demo_iet, 8)
    back = GapReport.from_json(rep.to_json())
    assert back == rep


# ---------------------------------------------------------------------------
# Reference: clusters one element at a time
# ---------------------------------------------------------------------------


def _reference_clusters(values, eps):
    """The per-element clustering loop."""
    if len(values) == 0:
        return ()
    svals = np.sort(np.asarray(values, dtype=float))
    clusters = []
    start = 0
    for i in range(1, len(svals) + 1):
        if i == len(svals) or svals[i] - svals[i - 1] > eps:
            chunk = svals[start:i]
            clusters.append(GapCluster(length=float(chunk.mean()), count=int(len(chunk))))
            start = i
    return tuple(clusters)


def test_cluster_lengths_equals_the_per_element_reference(reference_maps):
    for T in reference_maps:
        for N in (2, 50, 500):
            gaps = np.diff(np.sort(orbit(T, N)))
            for eps in (0.0, default_cluster_eps(N), 1e-3):
                assert repr(cluster_lengths(gaps, eps)) == repr(_reference_clusters(gaps, eps))
    for values in ([], [0.5], [0.1, 0.1, 0.1], (0.3, 0.1, 0.2 + 1e-17), [1.0, 1.0 + 2e-16, 3.0]):
        for eps in (0.0, 2e-16, 0.15):
            assert repr(cluster_lengths(values, eps)) == repr(_reference_clusters(values, eps))


# ---------------------------------------------------------------------------
# Predictions
# ---------------------------------------------------------------------------


def test_predict_golden_case():
    p = three_gap_predict("sqrt(1/2)", 9)
    assert p.kind == "generic"
    assert (p.lower, p.upper) == ((2, 3), (5, 7))
    assert p.counts == (6, 1, 2)
    assert abs(p.lengths[0] - A_GOLD) < 1e-14
    assert abs(p.lengths[1] - B_GOLD) < 1e-14
    assert abs(p.lengths[2] - C_GOLD) < 1e-14


def test_predict_rational_case():
    p = three_gap_predict(Fraction(1, 3), 7)
    assert p.is_rational and p.q == 3 and abs(p.length - 1 / 3) < 1e-15


def test_predict_zero_count_on_first_arc():
    p = three_gap_predict(0.05, 10)
    assert (p.lower, p.upper) == ((0, 1), (1, 10))
    assert p.counts == (9, 1, 0)
    assert len(p.expected_clusters(1e-10)) == 2


def test_prediction_json_roundtrip():
    for alpha, N in [("sqrt(1/2)", 9), (Fraction(1, 3), 7)]:
        p = three_gap_predict(alpha, N)
        back = ThreeGapPrediction.from_json(p.to_json())
        assert back == p


# ---------------------------------------------------------------------------
# Sigma recursion
# ---------------------------------------------------------------------------


def test_sigma_recursion_examples():
    assert sigma_recursion(9, 3, 7) == (0, 3, 6, 2, 5, 8, 1, 4, 7)
    assert sigma_recursion(2, 1, 2) == (0, 1)
    assert sigma_recursion(10, 1, 10) == tuple(range(10))


def test_sigma_recursion_matches_sorting_permutation():
    s = tuple(int(v) for v in np.argsort(orbit(Iet.rotation("sqrt(1/2)"), 9)))
    assert s == sigma_recursion(9, 3, 7)


def test_sigma_recursion_validates_pair():
    with pytest.raises(DomainError):
        sigma_recursion(9, 3, 5)  # q1 + q2 <= N
    with pytest.raises(DomainError):
        sigma_recursion(9, 6, 8)  # gcd 2
    with pytest.raises(DomainError):
        sigma_recursion(9, 3, 10)  # q2 > N


def test_sigma_recursion_random_oracle(rng):
    for _ in range(60):
        alpha = float(rng.uniform(1e-4, 1 - 1e-4))
        N = int(rng.integers(2, 1000))
        p = three_gap_predict(alpha, N)
        if p.is_rational:
            continue
        sigma = sigma_recursion(N, p.lower[1], p.upper[1])
        assert sigma == tuple(int(v) for v in np.argsort(orbit(Iet.rotation(alpha), N)))


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verify_three_gap_golden():
    assert verify_three_gap("sqrt(1/2)", 9, 1e-10).passed


def test_verify_three_gap_rational():
    out = verify_three_gap(Fraction(1, 3), 12, 1e-10)
    assert out.passed and out.details["case"] == "rational"


def test_verify_three_gap_reports_both_sides_on_mismatch():
    # an unreasonably tight tolerance forces a structured failure
    out = verify_three_gap("sqrt(1/2)", 9, 1e-18)
    if not out.passed:
        assert out.failures
        assert any("expected" in f or "what" in f for f in out.failures)


def test_verify_dplus2_demo_iet(demo_iet):
    out = verify_dplus2(demo_iet, 8)
    assert out.passed
    assert out.details["distinct_lengths"] == 3
    assert out.details["bound"] == 5
    assert out.details["boshernitzan_bound"] == 6


def test_verify_dplus2_not_applicable_without_keane():
    out = verify_dplus2(Iet.rotation(0.5), 8)
    assert not out.applicable


def test_dplus2_bound_condition():
    assert dplus2_bound((2, 1)) == 3  # rotations: bound d+1 = 3
    assert dplus2_bound((3, 2, 1)) == 5
    assert dplus2_bound((2, 3, 1)) == 4  # value below pi(1) sits at position d
    assert dplus2_bound((2, 4, 1, 3)) == 6


def test_dplus2_random_sweep(rng):
    for d in (3, 4, 5):
        done = 0
        while done < 10:
            T = random_iet(d, rng)
            if not T.keane_check(depth=500).satisfied:
                continue
            N = int(rng.integers(20, 1000))
            out = verify_dplus2(T, N, keane_depth=500)
            assert out.passed, out.to_json()
            done += 1


@given(st.floats(min_value=1e-4, max_value=1 - 1e-4), st.integers(min_value=1, max_value=400))
def test_three_gap_cluster_count_at_most_three(alpha, N):
    rep = gap_report(Iet.rotation(alpha), N)
    assert len(rep.clusters) <= 3
