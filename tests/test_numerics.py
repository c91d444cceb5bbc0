import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapscope.errors import (
    AmbiguousValueError,
    DomainError,
    NoInverseError,
    ParseError,
)
from gapscope.numerics import (
    FareyFraction,
    _farey_pair_ints,
    decimal_str,
    dilog,
    farey_neighbors,
    farey_successor,
    mod_inverse,
    parse_surd,
)

SQRT_HALF = parse_surd("sqrt(1/2)")


# ---------------------------------------------------------------------------
# Farey neighbors
# ---------------------------------------------------------------------------


def test_neighbors_of_sqrt_half_order_9():
    fb = farey_neighbors(SQRT_HALF, 9)
    assert not fb.is_exact
    assert (fb.lower.a, fb.lower.q) == (2, 3)
    assert (fb.upper.a, fb.upper.q) == (5, 7)


def test_exact_hit():
    fb = farey_neighbors(Fraction(1, 2), 3)
    assert fb.is_exact and (fb.exact.a, fb.exact.q) == (1, 2)


def test_pi_fraction_bracket():
    fb = farey_neighbors(0.1415926535897931, 7)
    assert (fb.lower.a, fb.lower.q) == (0, 1)
    assert (fb.upper.a, fb.upper.q) == (1, 7)


def test_domain_and_ambiguity_errors():
    with pytest.raises(DomainError):
        farey_neighbors(1.5, 10)
    with pytest.raises(DomainError):
        farey_neighbors(0.5, 0)
    with pytest.raises(AmbiguousValueError):
        farey_neighbors(0.5 + 1e-15, 10)
    # exact inputs are never ambiguous
    fb = farey_neighbors(Fraction(1, 2) + Fraction(1, 10**30), 10)
    assert (fb.lower.a, fb.lower.q) == (1, 2)


def _farey_brute(N):
    """F(N) in increasing order, from every a/q with q <= N."""
    return sorted({Fraction(a, q) for q in range(1, N + 1) for a in range(q + 1)})


def _brute_bracket(x, N):
    """The largest a/q <= x and the smallest a/q >= x over q <= N, as (a, q)."""
    x = Fraction(x)
    lo = max(Fraction(math.floor(x * q), q) for q in range(1, N + 1))
    hi = min(Fraction(math.ceil(x * q), q) for q in range(1, N + 1))
    return (lo.numerator, lo.denominator), (hi.numerator, hi.denominator)


def test_neighbors_match_brute_force_enumeration(rng):
    # 1000 random x against the full enumeration, N <= 200
    for _ in range(1000):
        N = int(rng.integers(1, 201))
        x = float(rng.uniform(1e-9, 1 - 1e-9))
        fb = farey_neighbors(x, N)
        lo, hi = _brute_bracket(x, N)
        assert (fb.lower.a, fb.lower.q) == lo
        assert (fb.upper.a, fb.upper.q) == hi


@given(
    st.fractions(
        min_value=Fraction(1, 10**6),
        max_value=Fraction(10**6 - 1, 10**6),
        max_denominator=10**9,
    ),
    st.integers(min_value=1, max_value=10_000),
)
def test_neighbor_pair_identities(x, N):
    fb = farey_neighbors(x, N)
    if fb.is_exact:
        assert fb.exact.q <= N
        assert fb.exact.as_fraction() == x
        return
    assert fb.upper.a * fb.lower.q - fb.lower.a * fb.upper.q == 1
    assert fb.lower.q + fb.upper.q > N
    assert fb.lower.as_fraction() < x < fb.upper.as_fraction()


def test_large_order_surd_bracket_is_exact_arithmetic():
    fb = farey_neighbors(SQRT_HALF, 10**6)
    assert fb.upper.a * fb.lower.q - fb.lower.a * fb.upper.q == 1
    assert fb.lower.q + fb.upper.q > 10**6
    v = 2**-0.5
    assert fb.lower.value < v < fb.upper.value


# ---------------------------------------------------------------------------
# Farey sequence enumeration
# ---------------------------------------------------------------------------


def _walk(N):
    """F(N) along the Farey walk of [0, 1], as strings."""
    pairs = list(_farey_pair_ints(N, 0.0, 1.0))
    return [f"{pairs[0][0]}/{pairs[0][1]}"] + [f"{a2}/{q2}" for _, _, a2, q2 in pairs]


def test_farey_fractions_small_orders():
    assert _walk(1) == ["0/1", "1/1"]
    assert _walk(3) == ["0/1", "1/3", "1/2", "2/3", "1/1"]


def test_farey_sequence_length_is_totient_sum():
    def phi(n):
        return sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)

    for N in (1, 2, 5, 13, 40):
        assert len(_walk(N)) == 1 + sum(phi(q) for q in range(1, N + 1))


def test_successor_agrees_with_enumeration():
    for N in (1, 2, 3, 7, 20):
        seq = [FareyFraction(f.numerator, f.denominator) for f in _farey_brute(N)]
        for prev, cur in zip(seq, seq[1:]):
            assert farey_successor(prev, N) == cur


def test_pairs_covering_full_range_equals_all_pairs():
    seq = [(f.numerator, f.denominator) for f in _farey_brute(30)]
    full = [(a1, q1, a2, q2) for (a1, q1), (a2, q2) in zip(seq, seq[1:])]
    assert list(_farey_pair_ints(30, 0.0, 1.0)) == full


def test_pairs_covering_window():
    arcs = list(_farey_pair_ints(5, 0.3, 0.7))
    assert arcs[0][0] / arcs[0][1] <= 0.3 <= arcs[0][2] / arcs[0][3]
    assert arcs[-1][0] / arcs[-1][1] <= 0.7 <= arcs[-1][2] / arcs[-1][3]
    for (_, _, a2, q2), (a1, q1, _, _) in zip(arcs, arcs[1:]):
        assert (a2, q2) == (a1, q1)


# ---------------------------------------------------------------------------
# Modular inverse
# ---------------------------------------------------------------------------


def test_mod_inverse_examples():
    assert mod_inverse(1, 7) == 1
    assert mod_inverse(2, 3) == 2
    assert mod_inverse(5, 7) == 3


def test_mod_inverse_all_coprime_pairs_up_to_1000():
    for q in range(2, 1001):
        for a in range(1, q):
            if math.gcd(a, q) == 1:
                n1 = mod_inverse(a, q)
                assert 1 <= n1 < q
                assert n1 * a % q == 1


def test_mod_inverse_errors():
    with pytest.raises(NoInverseError):
        mod_inverse(2, 4)
    with pytest.raises(DomainError):
        mod_inverse(1, 1)


# ---------------------------------------------------------------------------
# Dilogarithm
# ---------------------------------------------------------------------------


def test_dilog_endpoints_and_half():
    assert dilog(0.0) == 0.0
    assert abs(dilog(1.0) - math.pi**2 / 6) < 1e-15
    # Li2(1/2) = pi^2/12 - ln(2)^2/2 = 0.5822405264650125...
    assert abs(dilog(0.5) - 0.5822405264650125) < 1e-14


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_dilog_reflection_identity(x):
    lhs = dilog(x) + dilog(1.0 - x)
    rhs = math.pi**2 / 6 - math.log(x) * math.log(1.0 - x)
    assert abs(lhs - rhs) < 1e-10


def test_dilog_against_mpmath():
    for x in np.linspace(0.01, 0.999, 41):
        assert abs(dilog(float(x)) - float(mpmath.polylog(2, float(x)))) < 1e-12


def test_dilog_domain():
    with pytest.raises(DomainError):
        dilog(-0.1)
    with pytest.raises(DomainError):
        dilog(1.1)


# ---------------------------------------------------------------------------
# Surd expressions and the grammar
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "text,value",
    [
        ("2/3", 2 / 3),
        ("7", 7.0),
        ("0.1415926", 0.1415926),
        ("sqrt(2)", math.sqrt(2)),
        ("sqrt(1/2)", 2**-0.5),
        ("(1+0*sqrt(2))/1", 1.0),
        ("(1 + 2*sqrt(2))/3", (1 + 2 * math.sqrt(2)) / 3),
        ("(3 - 1*sqrt(5))/2", (3 - math.sqrt(5)) / 2),
        ("1 - sqrt(1/2)", 1 - 2**-0.5),
        ("sqrt(1/2) - sqrt(1/3)", 2**-0.5 - 3**-0.5),
        ("-1/2", -0.5),
    ],
)
def test_parse_and_evaluate(text, value):
    assert abs(float(parse_surd(text)) - value) < 1e-13


@pytest.mark.parametrize(
    "text,pos",
    [
        ("sqrt(2", 6),
        ("2//3", 2),
        ("sqrt(x)", 5),
        ("1 +", 3),
        ("1/0", 2),
        ("", 0),
    ],
)
def test_parse_errors_carry_position(text, pos):
    with pytest.raises(ParseError) as err:
        parse_surd(text)
    assert err.value.position == pos


def test_surd_normalization_folds_square_factors():
    # sqrt(8) = 2 sqrt(2), so sqrt(8) - 2*sqrt(2) is exactly zero
    e = parse_surd("sqrt(8) - 2*sqrt(2)")
    assert e.is_rational and e.as_fraction() == 0


def test_compare_rational_is_exact():
    e = parse_surd("sqrt(1/2)")
    # 707106781186547/10^15 < 1/sqrt(2) < 707106781186548/10^15
    assert e.compare_rational(707106781186547, 10**15) == 1
    assert e.compare_rational(707106781186548, 10**15) == -1
    two = parse_surd("sqrt(4)")
    assert two.compare_rational(2, 1) == 0


def test_compare_rational_multi_term():
    e = parse_surd("sqrt(1/2) - sqrt(1/3)")
    v = 2**-0.5 - 3**-0.5
    for num, den in [(1, 8), (13, 100), (1298, 10**4), (129757, 10**6)]:
        assert e.compare_rational(num, den) == (1 if v > num / den else -1)


def test_eval_fraction_precision_scales():
    e = parse_surd("sqrt(2)")
    approx = e.eval_fraction(200)
    assert abs(approx * approx - 2) < Fraction(1, 2**190)


def test_number_json_roundtrip():
    for text in ["2/3", "0.25", "sqrt(1/2)", "1 - sqrt(1/2)"]:
        e = parse_surd(text)
        data = e.to_json()
        if data["kind"] == "surd":
            assert tuple(
                (t["radicand"], Fraction(t["coefficient_numerator"], t["coefficient_denominator"]))
                for t in data["terms"]
            ) == e.terms
        elif data["kind"] == "rational":
            assert Fraction(data["numerator"], data["denominator"]) == e.as_fraction()
        else:
            assert Fraction(data["text"]) == e.as_fraction()
    j = parse_surd("sqrt(1/2)").to_json()
    assert j["kind"] == "surd"
    assert j["decimal"].startswith("0.7071067811865")
    assert parse_surd("2/3").to_json()["kind"] == "rational"
    assert parse_surd("0.25").to_json()["kind"] == "decimal"


def test_decimal_rendering():
    assert decimal_str(Fraction(1, 3), 6) == "0.333333"
    assert decimal_str(Fraction(-1, 4), 3) == "-0.250"
    assert decimal_str(Fraction(7, 1), 2) == "7.00"


def test_farey_fraction_validation():
    with pytest.raises(DomainError):
        FareyFraction(a=2, q=4)
    with pytest.raises(DomainError):
        FareyFraction(a=3, q=2)
    assert FareyFraction(a=1, q=2).value == 0.5
