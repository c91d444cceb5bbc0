from fractions import Fraction
from math import gcd

import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from gapscope import Iet
from gapscope.iet import is_irreducible, random_iet

settings.register_profile(
    "default",
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@pytest.fixture
def demo_iet() -> Iet:
    """Running-example 3-IET with breakpoints at 1/sqrt(3) and 1/sqrt(2)."""
    return Iet.new(
        ["sqrt(1/3)", "sqrt(1/2) - sqrt(1/3)", "1 - sqrt(1/2)"], (3, 2, 1)
    )


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20260810)



@pytest.fixture(scope="session")
def reference_maps() -> list[Iet]:
    """Maps for the comparisons against per-step reference loops: seeded
    random 2- to 6-IETs, the rational rotations p/q with q <= 30, and
    IETs with rational lengths k/Q, which have connections (orbits of
    discontinuities that meet exactly)."""
    rng = np.random.default_rng(20261019)
    generic = [random_iet(int(rng.integers(2, 7)), rng) for _ in range(60)]
    rotations = [
        Iet.rotation(Fraction(p, q)) for q in range(2, 31) for p in range(1, q) if gcd(p, q) == 1
    ]
    rational = []
    while len(rational) < 60:
        d = int(rng.integers(2, 7))
        perm = [int(v) + 1 for v in rng.permutation(d)]
        if is_irreducible(perm):
            Q = int(rng.integers(d, 40))
            cuts = np.sort(rng.choice(np.arange(1, Q), size=d - 1, replace=False)).tolist()
            ks = np.diff([0, *cuts, Q]).tolist()
            rational.append(Iet.new([Fraction(k, Q) for k in ks], perm, normalize=True))
    return generic + rotations + rational
