import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapscope import gaps as gaps_module
from gapscope.errors import DomainError
from gapscope.gaps import (
    GapCluster,
    cluster_lengths,
    default_cluster_eps,
    dplus2_bound,
    gap_report,
    orbit,
    sigma_recursion,
    three_gap_predict,
    verify_dplus2,
    verify_three_gap,
    _follows_sigma_recursion,
    _mediant_walk,
)
from gapscope.iet import Iet, random_iet
from gapscope.zipper import check_gap_zipper_correspondence

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


REFERENCE_SURDS = ["sqrt(1/2)", "sqrt(2/7)", "sqrt(5) - 2", "sqrt(11/13)"]


@pytest.mark.parametrize("theta", [1e-9, 1 - 2.0**-53, *REFERENCE_SURDS])
def test_rotation_orbit_is_the_remainder_bit_for_bit(theta):
    T = Iet.rotation(theta)
    for N in (1, 2, 17, 1000, 99991, 10**6):
        want = np.arange(N, dtype=float) * T.lengths[1] % 1.0
        assert np.array_equal(orbit(T, N).view(np.int64), want.view(np.int64))


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


def test_gap_report_orders_equal_points_by_exponent():
    # planted exact ties, -0.0 against 0.0 among them: ties keep exponent order
    pts = np.random.default_rng(5).choice([0.0, -0.0, 0.25, 0.5, 0.75], size=3000)
    stable = np.argsort(pts, kind="stable")
    T = Iet.rotation("sqrt(1/2)")
    raw = gap_report(T, len(pts), keep_duplicates=True, points=pts)
    assert np.array_equal(raw.sigma, stable)
    assert np.array_equal(raw.points.view(np.int64), pts[stable].view(np.int64))
    assert np.array_equal(raw.gaps[:-1].view(np.int64), np.diff(pts[stable]).view(np.int64))
    rep = gap_report(T, len(pts), points=pts)
    assert rep.sigma.tolist() == [int(np.flatnonzero(pts == v)[0]) for v in (0.0, 0.25, 0.5, 0.75)]


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
    assert verify_three_gap(alpha, N).passed
    assert check_gap_zipper_correspondence(alpha, N).passed


def test_gap_report_json_roundtrip(demo_iet):
    rep = gap_report(demo_iet, 8)
    data = json.loads(json.dumps(rep.to_json()))
    assert (data["n"], data["eps"], data["deduplicated"]) == (rep.n, rep.eps, rep.deduplicated)
    assert (data["points"], data["sigma"], data["gaps"]) == (
        rep.points.tolist(), rep.sigma.tolist(), rep.gaps.tolist()
    )
    assert [GapCluster(**c) for c in data["clusters"]] == list(rep.clusters)


@pytest.mark.parametrize(
    "alpha, N, raw", [("sqrt(1/2)", 9, False), (Fraction(1, 3), 7, False), (Fraction(1, 3), 7, True)]
)
def test_gap_report_fields_are_read_only_arrays(alpha, N, raw):
    rep = gap_report(Iet.rotation(alpha), N, keep_duplicates=raw)
    data = rep.to_json()
    for field, dtype in (("points", np.float64), ("sigma", np.int64), ("gaps", np.float64)):
        arr = getattr(rep, field)
        assert isinstance(arr, np.ndarray) and arr.dtype == dtype
        with pytest.raises(ValueError):
            arr[0] = 0
    assert all(type(v) is float for v in data["points"] + data["gaps"])
    assert all(type(v) is int for v in data["sigma"])


# ---------------------------------------------------------------------------
# Rotation reports sorted by the mediant walk
# ---------------------------------------------------------------------------


def test_mediant_walk_is_the_sigma_recursion():
    pairs = 0
    for N in range(1, 41):
        for q1 in range(1, N + 1):
            for q2 in range(N + 1 - q1, N + 1):
                if math.gcd(q1, q2) == 1:
                    walk = _mediant_walk(N, q1, q2)
                    assert walk.dtype == np.int64
                    assert walk.tolist() == list(sigma_recursion(N, q1, q2))
                    pairs += 1
    assert pairs == 6979  # every coprime q1, q2 <= N < q1 + q2 for N <= 40


def _comparison_sorted_report(monkeypatch, T, N, keep_duplicates):
    """The report with the walk switched off: the comparison sort alone."""
    with monkeypatch.context() as m:
        m.setattr(gaps_module, "_mediant_walk", lambda N, q1, q2: None)
        return gap_report(T, N, keep_duplicates=keep_duplicates)


def _assert_same_report(got, want):
    assert (got.n, got.eps, got.clusters, got.deduplicated) == (
        want.n, want.eps, want.clusters, want.deduplicated
    )
    for a, b in ((got.points, want.points), (got.sigma, want.sigma), (got.gaps, want.gaps)):
        assert a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def _walk_spy(m):
    """Record every candidate the walk hands to ``gap_report``."""
    real, seen = gaps_module._mediant_walk, []

    def spy(N, q1, q2):
        seen.append(real(N, q1, q2))
        return seen[-1]

    m.setattr(gaps_module, "_mediant_walk", spy)
    return seen


_SEEDED_THETAS = [float(t) for t in np.random.default_rng(27).uniform(1e-3, 1 - 1e-3, 2)]


@pytest.mark.parametrize("N", [1, 2, 3, 17, 1000, 99991, 10**6])
@pytest.mark.parametrize("theta", [*REFERENCE_SURDS, *_SEEDED_THETAS])
def test_walk_sorted_report_equals_the_comparison_sort(monkeypatch, theta, N):
    T = Iet.rotation(theta)
    for keep in (False, True):
        want = _comparison_sorted_report(monkeypatch, T, N, keep)
        with monkeypatch.context() as m:
            seen = _walk_spy(m)
            _assert_same_report(gap_report(T, N, keep_duplicates=keep), want)
        # the walk was taken: its candidate is the raw report's sigma
        assert len(seen) == 1
        assert not keep or np.array_equal(seen[0], want.sigma)


@pytest.mark.parametrize(
    "theta, N",
    [(1 / 3, 17), (1 / 3, 10**4), (0.25, 1000)]
    + [(a / q + s * 2.0**-50, N) for a, q, N in ((1, 3, 1000), (2, 7, 1000), (1, 2, 1000),
                                               (13, 97, 10**4), (355, 1000, 10**4))
       for s in (1, -1)],
)
def test_walk_is_rejected_near_a_farey_fraction(monkeypatch, theta, N):
    T = Iet.rotation(theta)
    pts = orbit(T, N)
    for keep in (False, True):
        want = _comparison_sorted_report(monkeypatch, T, N, keep)
        with monkeypatch.context() as m:
            seen = _walk_spy(m)
            _assert_same_report(gap_report(T, N, keep_duplicates=keep), want)
        # the fallback ran: there was no candidate (theta is a Farey
        # fraction of order N), or one that does not sort the points strictly
        assert len(seen) == (0 if theta == 0.25 else 1)
        assert all(not (np.diff(pts[c]) > 0).all() for c in seen)


@pytest.mark.parametrize("N", [17, 1000, 10**5])
@pytest.mark.parametrize("theta", REFERENCE_SURDS)
def test_planted_wrong_walk_falls_back_to_the_sort(monkeypatch, theta, N):
    T = Iet.rotation(theta)
    real = gaps_module._mediant_walk
    for keep in (False, True):
        want = _comparison_sorted_report(monkeypatch, T, N, keep)
        for i, j in ((0, 1), (N // 3, N - 1)):
            def planted(N, q1, q2):
                walk = real(N, q1, q2)
                walk[[i, j]] = walk[[j, i]]
                return walk

            with monkeypatch.context() as m:
                m.setattr(gaps_module, "_mediant_walk", planted)
                _assert_same_report(gap_report(T, N, keep_duplicates=keep), want)


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
    assert len(p.expected_clusters()) == 2


def test_prediction_json_roundtrip():
    for alpha, N in [("sqrt(1/2)", 9), (Fraction(1, 3), 7)]:
        p = three_gap_predict(alpha, N)
        data = json.loads(json.dumps(p.to_json()))
        assert (data["n"], data["case"]) == (p.n, p.kind)
        if p.is_rational:
            assert (data["q"], data["length"]) == (p.q, p.length)
        else:
            assert (data["lower"]["numerator"], data["lower"]["denominator"]) == p.lower
            assert (data["upper"]["numerator"], data["upper"]["denominator"]) == p.upper
            assert (tuple(data["counts"]), tuple(data["lengths"])) == (p.counts, p.lengths)


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


def test_sigma_check_agrees_with_the_recursion(rng):
    checked = 0
    for _ in range(60):
        alpha = float(rng.uniform(1e-4, 1 - 1e-4))
        N = int(rng.integers(2, 1000))
        p = three_gap_predict(alpha, N)
        if p.is_rational:
            continue
        q1, q2 = p.lower[1], p.upper[1]
        sigma = np.array(sigma_recursion(N, q1, q2))
        assert _follows_sigma_recursion(sigma, N, q1, q2)
        i, j = rng.choice(N, 2, replace=False)
        swapped = sigma.copy()
        swapped[[i, j]] = swapped[[j, i]]
        assert not _follows_sigma_recursion(swapped, N, q1, q2)
        assert not _follows_sigma_recursion(sigma[:-1], N, q1, q2)
        assert not _follows_sigma_recursion(np.roll(sigma, 1), N, q1, q2)
        checked += 1
    assert checked > 40
    with pytest.raises(DomainError):
        _follows_sigma_recursion(np.arange(9), 9, 3, 5)  # q1 + q2 <= N


# ---------------------------------------------------------------------------
# Verification
# ---------------------------------------------------------------------------


def test_verify_three_gap_golden():
    assert verify_three_gap("sqrt(1/2)", 9).passed


def test_verify_three_gap_rational():
    out = verify_three_gap(Fraction(1, 3), 12)
    assert out.passed and out.details["case"] == "rational"


def test_verify_three_gap_reports_both_sides_on_mismatch(planted_prediction):
    out = verify_three_gap("sqrt(1/2)", 9)
    assert not out.passed
    (failure,) = out.failures
    assert failure["what"] == "cluster"
    assert failure["expected"]["count"] == failure["got"]["count"] == 6
    assert failure["expected"]["length"] > failure["got"]["length"]


def test_verifiers_keep_a_near_mediant_length_apart():
    # A and C differ by 5e-13, far above the noise of N = 4: three lengths
    alpha, N = "3/5 + 1/10000000000000", 4
    assert len(gap_report(Iet.rotation(alpha), N).clusters) == 3
    assert len(three_gap_predict(alpha, N).expected_clusters()) == 3
    assert verify_three_gap(alpha, N).passed
    assert check_gap_zipper_correspondence(alpha, N).passed


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
            N = int(rng.integers(20, 1000))
            # the depth verify_dplus2 certifies to, so every draw applies
            if not T.keane_check(depth=max(N, 1000)).satisfied:
                continue
            out = verify_dplus2(T, N)
            assert out.passed, out.to_json()
            done += 1


@given(st.floats(min_value=1e-4, max_value=1 - 1e-4), st.integers(min_value=1, max_value=400))
def test_three_gap_cluster_count_at_most_three(alpha, N):
    rep = gap_report(Iet.rotation(alpha), N)
    assert len(rep.clusters) <= 3
