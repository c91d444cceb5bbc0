import math
from bisect import bisect_right
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gapscope.errors import DomainError, ValidationError
from gapscope.gaps import orbit
from gapscope.iet import (
    Iet,
    KeaneResult,
    is_arc_exchange,
    is_irreducible,
    parse_permutation,
    perm_inverse,
    random_iet,
    singularity_at_origin,
    surface_invariants,
)

ULP4 = 4 * math.ulp(1.0)


def random_lengths(rng, d):
    lam = rng.dirichlet([1.0] * d)
    while min(lam) < 1e-4:
        lam = rng.dirichlet([1.0] * d)
    return list(lam)


def random_perm(rng, d):
    while True:
        p = list(rng.permutation(d) + 1)
        if is_irreducible(p):
            return tuple(int(v) for v in p)


# ---------------------------------------------------------------------------
# Construction
# ---------------------------------------------------------------------------


def test_construction_validation():
    with pytest.raises(ValidationError):
        Iet.new([0.5, -0.5], (2, 1), normalize=True)
    with pytest.raises(ValidationError):
        Iet.new([0.5, 0.5], (2, 2))
    with pytest.raises(ValidationError):
        Iet.new([0.5, 0.6], (2, 1))  # sum != 1 without normalize
    T = Iet.new([0.5, 0.6], (2, 1), normalize=True)
    assert abs(sum(T.lengths) - 1.0) < 1e-15


def test_rotation_and_identity():
    R = Iet.rotation(0.2)
    assert R.pi == (2, 1)
    assert abs(R.apply(0.9) - 0.1) < 1e-15
    assert abs(R.apply(0.0) - 0.2) < 1e-15
    I = Iet.identity()
    assert I.apply(0.37) == 0.37


def test_breakpoints_of_demo_iet(demo_iet):
    assert abs(demo_iet.beta[1] - 3**-0.5) < 1e-15
    assert abs(demo_iet.beta[2] - 2**-0.5) < 1e-15
    assert abs(demo_iet.alpha[1] - (1 - 2**-0.5)) < 1e-15
    assert abs(demo_iet.alpha[2] - (1 - 3**-0.5)) < 1e-15


def test_demo_iet_orbit_values(demo_iet):
    # reference decimals computed from the surd lengths, incl. the
    # point one step past the segment
    expect = [0.42265, 0.845299, 0.138193, 0.560842, 0.983492, 0.276385, 0.699035, 0.414578]
    x = 0.0
    for e in expect:
        x = demo_iet.apply(x)
        assert abs(x - e) < 5e-6


def test_apply_matches_displayed_formula(rng):
    for _ in range(30):
        d = int(rng.integers(2, 9))
        T = Iet.new(random_lengths(rng, d), random_perm(rng, d), normalize=True)
        for x in rng.uniform(0, 1, 40):
            i = bisect_right(T.beta, float(x)) - 1
            expect = (
                x
                - sum(T.lengths[:i])
                + sum(l for k, l in enumerate(T.lengths) if T.pi[k] < T.pi[i])
            )
            assert abs(T.apply(float(x)) - expect) < 1e-13


def test_apply_domain():
    R = Iet.rotation(0.25)
    with pytest.raises(DomainError):
        R.apply(1.0)
    with pytest.raises(DomainError):
        R.apply(-0.1)


# ---------------------------------------------------------------------------
# Inverse
# ---------------------------------------------------------------------------


def test_inverse_of_demo_iet(demo_iet):
    Ti = demo_iet.inverse()
    assert Ti.pi == (3, 2, 1)
    assert abs(Ti.lengths[0] - (1 - 2**-0.5)) < 1e-15
    assert abs(Ti.lengths[1] - (2**-0.5 - 3**-0.5)) < 1e-15
    assert abs(Ti.lengths[2] - 3**-0.5) < 1e-15


def test_inverse_roundtrip_4ulps(rng):
    for _ in range(25):
        d = int(rng.integers(2, 9))
        T = Iet.new(random_lengths(rng, d), random_perm(rng, d), normalize=True)
        Ti = T.inverse()
        for x in rng.uniform(0, 1, 400):
            x = float(x)
            assert abs(Ti.apply(T.apply(x)) - x) <= ULP4


def test_inverse_maps_alpha_intervals_onto_beta_intervals(rng):
    for _ in range(20):
        d = int(rng.integers(2, 7))
        T = Iet.new(random_lengths(rng, d), random_perm(rng, d), normalize=True)
        Ti = T.inverse()
        inv = perm_inverse(T.pi)
        for i in range(1, d + 1):
            j = inv[i - 1]
            # endpoint images tested from just inside (the breakpoint float
            # itself is owned by the half-open rule and may differ by an ulp
            # between T.alpha and Ti.beta after renormalization)
            width = T.alpha[i] - T.alpha[i - 1]
            x = T.alpha[i - 1] + 1e-9 * width
            assert abs((Ti.apply(x) - (x - T.alpha[i - 1])) - T.beta[j - 1]) <= 1e-12
            mid = 0.5 * (T.alpha[i - 1] + T.alpha[i])
            assert T.beta[j - 1] - ULP4 <= Ti.apply(mid) <= T.beta[j] + ULP4


def test_rotation_inverse_is_complementary_rotation(rng):
    R = Iet.rotation(0.3)
    Ri = R.inverse()
    R7 = Iet.rotation(0.7)
    for x in rng.uniform(0, 1, 200):
        assert abs(Ri.apply(float(x)) - R7.apply(float(x))) < 1e-15


# ---------------------------------------------------------------------------
# Composition with rotations
# ---------------------------------------------------------------------------


def test_compose_identity_gives_rotation(rng):
    C = Iet.identity().compose_rotation(0.3)
    R = Iet.rotation(0.3)
    assert C.d == 2
    for x in rng.uniform(0, 1, 100):
        assert abs(C.apply(float(x)) - R.apply(float(x))) < 1e-14


def test_compose_two_rotations_drops_zero_pieces(rng):
    C = Iet.rotation(0.2).compose_rotation(0.3)
    R5 = Iet.rotation(0.5)
    assert C.d == 2
    for x in rng.uniform(0, 1, 1000):
        assert abs(C.apply(float(x)) - R5.apply(float(x))) < 1e-12


def test_compose_demo_iet_pointwise(demo_iet, rng):
    C = demo_iet.compose_rotation(0.1)
    assert C.d == 4
    for x in rng.uniform(0, 1, 1000):
        x = float(x)
        y = x + 0.1
        if y >= 1.0:
            y -= 1.0
        assert abs(C.apply(x) - demo_iet.apply(y)) < 1e-12


def test_compose_at_exact_breakpoint_still_valid(demo_iet, rng):
    # rotation by beta_1 makes one pulled-back cut collide with 1 - alpha
    angle = demo_iet.beta[1]
    C = demo_iet.compose_rotation(angle)
    assert C.d <= demo_iet.d + 1
    for x in rng.uniform(0, 1, 300):
        x = float(x)
        y = x + angle
        if y >= 1.0:
            y -= 1.0
        assert abs(C.apply(x) - demo_iet.apply(y)) < 1e-12


def test_compose_rejects_bad_angle(demo_iet):
    with pytest.raises(DomainError):
        demo_iet.compose_rotation(0.0)
    with pytest.raises(DomainError):
        demo_iet.compose_rotation(1.0)


# ---------------------------------------------------------------------------
# Keane certificate
# ---------------------------------------------------------------------------


def test_keane_violated_for_period_two_rotation():
    res = Iet.rotation(0.5).keane_check(depth=10)
    assert not res.satisfied
    assert res.witness is not None


def test_keane_satisfied_for_irrational_rotation():
    res = Iet.rotation("sqrt(1/2)").keane_check(depth=1000, tol=1e-10)
    assert res.satisfied


def test_keane_satisfied_for_demo_iet(demo_iet):
    assert demo_iet.keane_check(depth=1000).satisfied


def test_keane_identity_is_vacuous():
    assert Iet.identity().keane_check(depth=5).satisfied


# ---------------------------------------------------------------------------
# Reference: the float-step kernel and the Keane check, one apply at a time
# ---------------------------------------------------------------------------


def _reference_apply(T, x):
    """One step: the interval index, one shift, and the clamp."""
    if not 0.0 <= x < 1.0:
        raise DomainError(f"point {x!r} outside [0, 1)")
    y = x + T.shifts[min(bisect_right(T.beta, x) - 1, T.d - 1)]
    if y >= 1.0:
        y = math.nextafter(1.0, 0.0)
    elif y < 0.0:
        y = 0.0
    return y


def _reference_iterate(T, x, n):
    out = []
    for _ in range(n):
        out.append(x)
        x = _reference_apply(T, x)
    return np.array(out, dtype=float)


def _reference_keane(T, depth, tol=None):
    """The check as a sort of (x, i, n) tuples, one apply per step."""
    if tol is None:
        tol = 1e-10 / T.d
    if T.d < 2:
        return KeaneResult(satisfied=True, depth=depth, tol=tol)
    inv = T.inverse()
    labeled = []
    for i in range(1, T.d):
        x = T.alpha[i]
        labeled.append((x, i, 0))
        for n in range(1, depth + 1):
            x = _reference_apply(inv, x)
            labeled.append((x, i, n))
    labeled.sort()
    for (x1, i, n), (x2, j, m) in zip(labeled, labeled[1:]):
        if x2 - x1 < tol:
            return KeaneResult(satisfied=False, depth=depth, tol=tol, witness=(i, j, n, m))
    return KeaneResult(satisfied=True, depth=depth, tol=tol)


@pytest.mark.parametrize("depth", [1, 7, 300])
def test_keane_check_equals_the_tuple_sort_reference(reference_maps, depth):
    failed = 0
    for T in reference_maps:
        got, ref = T.keane_check(depth=depth), _reference_keane(T, depth)
        assert (got.satisfied, got.witness, got.tol, got.depth) == (
            ref.satisfied, ref.witness, ref.tol, ref.depth), T
        failed += not ref.satisfied
    # rational maps fail with a witness at every depth (17 of them at depth 1)
    assert failed >= 17


def test_keane_check_with_tolerance_equals_the_reference(reference_maps):
    for T in reference_maps[::7]:
        for tol in (0.0, 1e-3):
            assert T.keane_check(depth=50, tol=tol) == _reference_keane(T, 50, tol), T


def test_iterate_equals_the_apply_loop(reference_maps):
    for T in reference_maps:
        for x in (0.0, *T.alpha[1:-1], T.beta[-2]):
            got = T.iterate(x, 500)
            assert got.dtype == float and got.shape == (500,)
            assert got.tobytes() == _reference_iterate(T, x, 500).tobytes(), (T, x)
            assert T.apply(x) == _reference_apply(T, x)


def test_iet_orbit_equals_the_apply_loop(reference_maps):
    for T in reference_maps:
        if T.pi != (2, 1):  # rotations take the fractional parts {n * theta}
            assert orbit(T, 2000).tobytes() == _reference_iterate(T, 0.0, 2000).tobytes(), T


def test_iterate_edge_cases(demo_iet):
    assert demo_iet.iterate(0.3, 0).shape == (0,)
    assert demo_iet.iterate(0.3, 1).tolist() == [0.3]
    top = math.nextafter(1.0, 0.0)
    for T in (demo_iet, Iet.rotation(0.25), Iet.identity()):
        assert T.iterate(top, 40).tobytes() == _reference_iterate(T, top, 40).tobytes()
    for x in (1.0, -0.1, -1e-300, math.nan, math.inf):
        with pytest.raises(DomainError):
            demo_iet.iterate(x, 3)


# ---------------------------------------------------------------------------
# Permutation predicates and surface invariants
# ---------------------------------------------------------------------------


def test_permutation_parsing():
    assert parse_permutation([3, 2, 1]) == (3, 2, 1)
    assert parse_permutation([[1, 5, 2, 3, 4]], notation="cycles") == (5, 3, 4, 1, 2)
    assert parse_permutation([[2, 1], [3]], notation="cycles") == (2, 1, 3)
    with pytest.raises(ValidationError):
        parse_permutation([1, 1, 2])
    with pytest.raises(ValidationError):
        parse_permutation([[1, 2], [2, 3]], notation="cycles")


def test_irreducibility():
    assert is_irreducible((2, 1))
    assert is_irreducible((3, 2, 1))
    assert not is_irreducible((1, 3, 2))
    assert not is_irreducible((2, 1, 3))


def test_arc_exchange_predicates():
    assert is_arc_exchange((2, 1))
    assert is_arc_exchange((1,))
    assert not is_arc_exchange((3, 2, 1))
    assert singularity_at_origin((3, 2, 1))
    with pytest.raises(ValidationError):
        is_arc_exchange((1, 3, 2))


def test_surface_invariants_genus_two_example():
    pi = parse_permutation([[1, 5, 2, 3, 4]], notation="cycles")
    inv = surface_invariants(pi)
    assert inv.cone_angles == (3, 1, 1)  # 6*pi, 2*pi, 2*pi
    assert inv.genus == 2
    assert inv.num_vertices == 3
    assert inv.num_singularities == 1


def test_surface_invariants_rotation_torus():
    inv = surface_invariants((2, 1))
    assert inv.genus == 1
    assert all(a == 1 for a in inv.cone_angles)
    assert inv.num_singularities == 0


def test_surface_invariants_symmetric_three():
    inv = surface_invariants((3, 2, 1))
    assert inv.cone_angles == (3,)
    assert inv.genus == 2


def test_surface_invariants_exhaustive_identities():
    # every irreducible permutation with d <= 7
    for d in range(1, 8):
        for perm in permutations(range(1, d + 1)):
            if not is_irreducible(perm):
                continue
            si = surface_invariants(perm)
            # total cone angle is 2*pi*d and the excess is the even 2g-2
            assert sum(si.cone_angles) == d
            assert sum(a - 1 for a in si.cone_angles) == 2 * si.genus - 2
            assert si.genus >= 1
            # closed-vertical suspension: 2g + #vertices - 1 = d + 1 always
            assert si.d_S == d + 1
            # origin is regular exactly for arc exchanges
            assert (si.origin_angle == 1) == is_arc_exchange(perm)


def test_genuine_discontinuity_indices():
    # (3,1,2): inverse is continuous at alpha_1 (pi^-1 = (2,3,1))
    T = Iet.new([0.2, 0.5, 0.3], (3, 1, 2))
    assert T.genuine_alpha_indices() == (2,)
    # (3,1,2) has pi(3) = pi(2)+1, so beta_2 is fake for the map itself
    assert T.genuine_beta_indices() == (1,)
    U = Iet.new([0.2, 0.5, 0.3], (3, 2, 1))
    assert U.genuine_alpha_indices() == (1, 2)
    assert U.genuine_beta_indices() == (1, 2)


def test_random_iet_is_genuine_and_normalized(rng):
    for d in (2, 3, 4, 5):
        T = random_iet(d, rng)
        assert T.d == d
        assert abs(sum(T.lengths) - 1.0) < 1e-12
        assert is_irreducible(T.pi)
        if d >= 3:
            assert len(T.genuine_alpha_indices()) == d - 1
            assert len(T.genuine_beta_indices()) == d - 1


def test_iet_json():
    T = Iet.new([0.25, 0.75], (2, 1))
    data = T.to_json()
    back = Iet.new(data["lengths"], data["permutation"])
    assert back.lengths == T.lengths and back.pi == T.pi


@given(st.floats(min_value=1e-6, max_value=1 - 1e-6))
def test_rotation_orbit_point_roundtrip(theta):
    R = Iet.rotation(theta)
    Ri = R.inverse()
    x = 0.37
    assert abs(Ri.apply(R.apply(x)) - x) <= ULP4
