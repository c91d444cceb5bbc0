import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapscope.errors import DomainError
from gapscope.zipper import (
    check_gap_zipper_correspondence,
    cutoff_f,
    zipper_torus,
)

GOLD = 3 / math.sqrt(2) - 2  # the short gap scale at level 9


def test_zipper_golden_case():
    zr = zipper_torus("sqrt(1/2)", 9)
    assert zr.case == "generic" and zr.pi == (3, 2, 1)
    assert np.allclose(zr.widths, [2 / 3, 1 / 9, 2 / 9], atol=1e-14)
    A, C = GOLD, 5 - 7 / math.sqrt(2)
    assert np.allclose(zr.heights, [9 * A, 9 * (A + C), 9 * C], atol=1e-12)


def test_zipper_rational_case():
    zr = zipper_torus(Fraction(1, 2), 4)
    assert zr.case == "rational" and zr.pi == (2, 1)
    assert np.allclose(zr.widths, [0.25, 0.25])
    assert np.allclose(zr.heights, [2.0, 2.0])
    # mod-inverse width split: alpha = 2/5, n1 = 3 -> widths (2/10, 3/10)
    zr2 = zipper_torus(Fraction(2, 5), 10)
    assert np.allclose(zr2.widths, [0.2, 0.3])
    assert np.allclose(zr2.heights, [2.0, 2.0])


def _arc_point(a1, q1, q2, t):
    """alpha = a1/q1 + t/(q1 q2), exactly: the point at t on the Farey arc
    that starts at a1/q1 and has q2 as its right denominator."""
    return Fraction(a1, q1) + Fraction(t) / (q1 * q2)


def test_arc_parameter_and_consistency():
    # heights are affine in the arc coordinate: ((N/q2) t,
    # (N/q2 - N/q1) t + N/q1, (N/q1)(1 - t)) on the arc (2/3, 5/7) of F(9)
    q1, q2, N = 3, 7, 9
    for t in (0.125, 0.5, 0.875):
        zr = zipper_torus(_arc_point(2, q1, q2, t), N)
        assert zr.case == "generic"
        assert zr.widths == (1 - q1 / N, (q1 + q2) / N - 1, 1 - q2 / N)
        expected = ((N / q2) * t, (N / q2 - N / q1) * t + N / q1, (N / q1) * (1 - t))
        assert np.allclose(zr.heights, expected, rtol=0, atol=1e-12)


def test_cutoff_functions():
    zr = zipper_torus("sqrt(1/2)", 9)
    assert abs(cutoff_f(zr, 1.2) - 1 / 9) < 1e-14  # only the middle height clears 1.2
    assert abs(cutoff_f(zr, 0.0) - 1.0) < 1e-12
    with pytest.raises(DomainError):
        cutoff_f(zr, -1.0)


def test_heights_affine_in_t_three_point_collinearity(rng):
    for _ in range(50):
        N = int(rng.integers(2, 500))
        alpha = float(rng.uniform(1e-6, 1 - 1e-6))
        from gapscope.numerics import farey_neighbors

        fb = farey_neighbors(alpha, N)
        if fb.is_exact:
            continue
        a1, q1, q2 = fb.lower.a, fb.lower.q, fb.upper.q
        z1, z2, z3 = (zipper_torus(_arc_point(a1, q1, q2, t), N) for t in (0.25, 0.5, 0.75))
        for h1, h2, h3 in zip(z1.heights, z2.heights, z3.heights):
            assert abs(h2 - 0.5 * (h1 + h3)) < 1e-9


@given(
    st.floats(min_value=1e-5, max_value=1 - 1e-5),
    st.integers(min_value=1, max_value=1000),
)
def test_invariants_area_widths_heights(alpha, N):
    from gapscope.errors import AmbiguousValueError

    try:
        zr = zipper_torus(alpha, N)
    except AmbiguousValueError:
        return  # float landed in the guard band of a Farey element
    assert abs(zr.area() - 1.0) < 1e-10
    if zr.case == "generic":
        assert abs(sum(zr.widths) - 1.0) < 1e-10
        assert abs(zr.heights[1] - zr.heights[0] - zr.heights[2]) < 1e-10


def test_correspondence_examples():
    assert check_gap_zipper_correspondence("sqrt(1/2)", 9).passed
    assert check_gap_zipper_correspondence(Fraction(1, 3), 7).passed
    golden_ratio_minus_one = "(1 + 1*sqrt(5))/2 - 1"
    assert check_gap_zipper_correspondence(golden_ratio_minus_one, 13).passed


def test_correspondence_random_sweep(rng):
    for _ in range(150):
        alpha = float(rng.uniform(1e-3, 1 - 1e-3))
        N = int(rng.integers(1, 400))
        out = check_gap_zipper_correspondence(alpha, N)
        assert out.passed, (alpha, N, out.to_json())


def test_correspondence_fails_on_a_planted_height(planted_height):
    out = check_gap_zipper_correspondence("sqrt(1/2)", 9)
    assert not out.passed
    (failure,) = out.failures
    assert failure["what"] == "cluster"
    assert failure["expected"]["count"] == failure["got"]["count"] == 6
    assert failure["expected"]["length"] > failure["got"]["length"]


def test_zipper_json_roundtrip():
    zr = zipper_torus("sqrt(1/2)", 9)
    data = json.loads(json.dumps(zr.to_json()))
    assert (data["kind"], data["case"]) == ("zippered_rectangles", zr.case)
    assert (tuple(data["widths"]), tuple(data["heights"]), tuple(data["pi"])) == (
        zr.widths, zr.heights, zr.pi
    )
