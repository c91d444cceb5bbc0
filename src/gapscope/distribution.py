"""Gap-counting statistics: the exact per-arc average over rotation
numbers, empirical averages for IET-rotation compositions, the closed-form
limiting distribution, and Farey-arc sums of kernels on the region
Omega = {(x, y) in (0,1]^2 : x + y > 1}.

The exact average needs no quadrature: on each Farey arc the rectangle
heights are affine in the arc coordinate t, so each cut-off integrates to
the width times the measure of a subinterval of the t-window, in closed
form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, GapscopeError
from .gaps import gap_report
from .iet import Iet
from .numerics import _farey_pair_ints, dilog, farey_arc_blocks
from .outcomes import VerificationOutcome, outcome_fail, outcome_pass

SIX_OVER_PI_SQ = 6.0 / (math.pi * math.pi)


# ---------------------------------------------------------------------------
# Exact average over rotation numbers
# ---------------------------------------------------------------------------


def _window_measure(lo: float, hi: float) -> float:
    return hi - lo if hi > lo else 0.0


def _arc_cutoff_integral(x: float, y: float, z: float, t_lo: float, t_hi: float) -> float:
    """Integral over [t_lo, t_hi] of the total width above height z.

    Widths (1-x, x+y-1, 1-y); heights h1(t) = t/y, h2(t) affine from 1/x
    to 1/y, h3(t) = (1-t)/x, for (x, y) = (q1/N, q2/N) on the arc.
    """
    w1 = 1.0 - x
    w2 = x + y - 1.0
    w3 = 1.0 - y
    if z <= 0.0:
        return (w1 + w2 + w3) * _window_measure(t_lo, t_hi)
    # h1 >= z  <=>  t >= z*y
    m1 = _window_measure(max(t_lo, z * y), t_hi)
    # h3 >= z  <=>  t <= 1 - z*x
    m3 = _window_measure(t_lo, min(t_hi, 1.0 - z * x))
    # h2 affine between 1/x and 1/y
    h_left = 1.0 / x
    h_right = 1.0 / y
    if h_left == h_right:
        m2 = _window_measure(t_lo, t_hi) if h_left >= z else 0.0
    else:
        t_star = (z - h_left) / (h_right - h_left)
        if h_right > h_left:  # increasing: h2 >= z for t >= t_star
            m2 = _window_measure(max(t_lo, t_star), t_hi)
        else:  # decreasing: h2 >= z for t <= t_star
            m2 = _window_measure(t_lo, min(t_hi, t_star))
    return w1 * m1 + w2 * m2 + w3 * m3


def _arc_cutoff_integrals(x, y, z: float, t_lo, t_hi) -> np.ndarray:
    """:func:`_arc_cutoff_integral` elementwise over arrays of arcs, with
    the same IEEE operations in the same order.  ``np.maximum`` and
    ``np.minimum`` pick what ``max`` and ``min`` pick up to the sign of a
    zero, which no measure below depends on."""
    w1 = 1.0 - x
    w2 = x + y - 1.0
    w3 = 1.0 - y
    if z <= 0.0:
        return (w1 + w2 + w3) * _window_measures(t_lo, t_hi)
    m1 = _window_measures(np.maximum(t_lo, z * y), t_hi)
    m3 = _window_measures(t_lo, np.minimum(t_hi, 1.0 - z * x))
    h_left = 1.0 / x
    h_right = 1.0 / y
    with np.errstate(divide="ignore", invalid="ignore"):
        t_star = (z - h_left) / (h_right - h_left)
    m2 = np.where(
        h_right > h_left,
        _window_measures(np.maximum(t_lo, t_star), t_hi),
        _window_measures(t_lo, np.minimum(t_hi, t_star)),
    )
    flat = h_left == h_right  # only the arc (0/1, 1/1) of F(1)
    if flat.any():
        m2[flat] = np.where(h_left >= z, _window_measures(t_lo, t_hi), 0.0)[flat]
    return w1 * m1 + w2 * m2 + w3 * m3


def _window_measures(lo, hi) -> np.ndarray:
    return np.where(hi > lo, hi - lo, 0.0)


def _rotation_averages(a: float, b: float, z_values: Sequence[float], N: int) -> list[float]:
    """:func:`avg_gap_rotation_exact` for every z in ``z_values``, from one
    enumeration of the arcs.

    An arc inside the window has t_lo = 0.0 and t_hi = 1.0, so its block
    keeps only (q1, q2) as int32; the window clips at most the two end arcs.
    Each z is one ``fsum`` over the blocks; it is correctly rounded whatever
    the order, so the values equal the arc-by-arc sum bit for bit.
    """
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"invalid averaging range [{a}, {b}]")
    for z in z_values:
        if z < 0:
            raise DomainError(f"threshold must be >= 0, got {z}")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    blocks = []
    for a1, q1, _, q2 in farey_arc_blocks(N, a, b):
        # t = q1*q2*(alpha - a1/q1) in (0, 1) on the arc; clip to [a, b]
        t_lo = np.maximum(0.0, q1 * q2 * a - q2 * a1)
        t_hi = np.minimum(1.0, q1 * q2 * b - q2 * a1)
        whole = (t_lo == 0.0) & (t_hi == 1.0)
        blocks.append((q1[whole].astype(np.int32), q2[whole].astype(np.int32), 0.0, 1.0))
        clipped = ~whole & (t_hi > t_lo)
        if clipped.any():
            blocks.append((q1[clipped], q2[clipped], t_lo[clipped], t_hi[clipped]))

    def parts(z):
        for q1, q2, t_lo, t_hi in blocks:
            val = _arc_cutoff_integrals(q1 / N, q2 / N, z, t_lo, t_hi)
            yield memoryview(val / (q1 * q2.astype(np.float64)))

    return [math.fsum(chain.from_iterable(parts(z))) / (b - a) for z in z_values]


def avg_gap_rotation_exact(a: float, b: float, z: float, N: int) -> float:
    """The average over alpha in [a, b] of (number of normalized rotation
    gaps >= z)/N, integrated arc by arc in closed form.

    Exact up to roundoff: the integrand on each Farey arc is a sum of
    widths times Iverson brackets of affine heights, so each arc
    contributes width * measure / (q1*q2).  Rational alpha form a measure
    zero set and do not contribute.
    """
    return _rotation_averages(a, b, [z], N)[0]


# ---------------------------------------------------------------------------
# Empirical average for IET compositions
# ---------------------------------------------------------------------------


def _avg_gap_iet_values(T, a, b, z_values, N, grid):
    """Midpoint-rule averages of the normalized gap count of T o R_alpha
    over ``grid`` equispaced alpha in [a, b], one per z.  Grid points where
    the composition degenerates are skipped."""
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"invalid averaging range [{a}, {b}]")
    if grid < 1:
        raise DomainError(f"grid must be >= 1, got {grid}")
    totals = [0.0] * len(z_values)
    used = 0
    step = (b - a) / grid
    for j in range(grid):
        alpha = a + (j + 0.5) * step
        if alpha <= 0.0 or alpha >= 1.0:
            continue
        try:
            comp = T.compose_rotation(alpha)
            rep = gap_report(comp, N)
        except GapscopeError:
            continue
        used += 1
        gaps = rep.gaps * N
        for i, z in enumerate(z_values):
            totals[i] += float(np.count_nonzero(gaps >= z)) / N
    if used == 0:
        raise DomainError("every grid point degenerated; nothing to average")
    return [t / used for t in totals]


# ---------------------------------------------------------------------------
# The limiting distribution
# ---------------------------------------------------------------------------

#: value of the limit at the branch points, by taking the limit of the
#: adjacent branches (both sides agree; the distribution is continuous)
_LIMIT_AT_1 = SIX_OVER_PI_SQ * (math.pi * math.pi / 6.0 - 1.0)
_LIMIT_AT_2 = SIX_OVER_PI_SQ * (-1.0 + 3.0 * math.log(2.0) - 2.0 * math.log(2.0) ** 2)


def limit_gap_distribution(z: float) -> float:
    """The closed-form limit of the average rotation gap distribution.

    Piecewise in z with breaks at 1 and 2; all dilogarithm arguments lie
    in [0, 1].  At z = 1 and z = 2 the one-sided limits agree and that
    common value is returned.
    """
    if z <= 0:
        raise DomainError(f"threshold must be > 0, got {z}")
    c = SIX_OVER_PI_SQ
    if z < 1.0:
        return c * (math.pi * math.pi / 6.0 - z)
    if z == 1.0:
        return _LIMIT_AT_1
    if z < 2.0:
        log2 = math.log(2.0)
        return c * (
            log2 * log2
            - 2.0 * math.pi * math.pi / 3.0
            - 1.0
            + (z / 2.0 - 2.0 / z) * math.log((2.0 - z) / (z - 1.0))
            + (3.0 * z / 2.0) * math.log(z / (z - 1.0))
            - math.log(4.0 / z) * math.log(z)
            + 4.0 * dilog(1.0 / z)
            + 2.0 * dilog(z / 2.0)
        )
    if z == 2.0:
        return _LIMIT_AT_2
    return c * (
        -1.0
        + (z / 2.0 - 2.0 / z) * math.log((z - 2.0) / (z - 1.0))
        + 1.5 * z * math.log(z / (z - 1.0))
        + 4.0 * dilog(1.0 / z)
        - 2.0 * dilog(2.0 / z)
    )


# ---------------------------------------------------------------------------
# Farey-arc sums
# ---------------------------------------------------------------------------


def arc_cutoff_kernel(z: float) -> Callable[[float, float], float]:
    """The per-arc kernel F(x, y): 1/(xy) times the closed-form unit
    t-integral of the height cut-off at z, defined on Omega.

    Summing F(q1/N, q2/N)/N^2 over consecutive Farey pairs reproduces the
    exact rotation average; integrating (6/pi^2) F over Omega gives its
    N -> infinity limit.
    """

    def F(x: float, y: float) -> float:
        if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0 and x + y > 1.0):
            raise DomainError(f"({x}, {y}) lies outside Omega")
        return _arc_cutoff_integral(x, y, z, 0.0, 1.0) / (x * y)

    return F


def farey_arc_sum(
    F: Callable[[float, float], float], N: int, a: float = 0.0, b: float = 1.0
) -> float:
    """(1/(b-a)) * sum of F(q1/N, q2/N) / N^2 over consecutive Farey pairs
    of order N with a <= a1/q1 < a2/q2 <= b."""
    if not 0.0 <= a < b <= 1.0:
        raise DomainError(f"invalid range [{a}, {b}]")
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    inv_n2 = 1.0 / (N * N)
    parts = []
    for a1, q1, a2, q2 in _farey_pair_ints(N, a, b):
        if a1 < a * q1 or a2 > b * q2:
            continue
        val = F(q1 / N, q2 / N)
        if not math.isfinite(val):
            raise DomainError(f"kernel returned non-finite value at ({a1}/{q1}, {a2}/{q2})")
        parts.append(val * inv_n2)
    return math.fsum(parts) / (b - a)


# ---------------------------------------------------------------------------
# Distribution curves
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DistributionCurve:
    """A sampled distribution curve: values of a gap-count average on a
    grid of thresholds.  Nonincreasing in z by construction."""

    z_values: tuple[float, ...]
    values: tuple[float, ...]
    N: int
    a: float
    b: float
    kind: str  # "exact" | "empirical" | "limit"

    def __post_init__(self):
        if len(self.z_values) != len(self.values):
            raise DomainError("z grid and values differ in length")
        if any(z2 <= z1 for z1, z2 in zip(self.z_values, self.z_values[1:])):
            raise DomainError("z grid must be strictly increasing")
        if any(v2 > v1 + 1e-12 for v1, v2 in zip(self.values, self.values[1:])):
            raise DomainError("distribution values must be nonincreasing in z")

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "distribution_curve",
            "curve_kind": self.kind,
            "n": self.N,
            "a": self.a,
            "b": self.b,
            "points": [
                {"z": z, "value": v} for z, v in zip(self.z_values, self.values)
            ],
        }

    def csv_rows(self):
        for z, v in zip(self.z_values, self.values):
            yield {"z": z, "value": v, "N": self.N, "a": self.a, "b": self.b, "kind": self.kind}


def rotation_curve(z_values: Sequence[float], N: int, a: float = 0.0, b: float = 1.0) -> DistributionCurve:
    vals = tuple(_rotation_averages(a, b, z_values, N))
    return DistributionCurve(tuple(z_values), vals, N=N, a=a, b=b, kind="exact")


def iet_curve(
    T: Iet, z_values: Sequence[float], N: int, grid: int, a: float = 0.0, b: float = 1.0
) -> DistributionCurve:
    vals = tuple(_avg_gap_iet_values(T, a, b, list(z_values), N, grid))
    return DistributionCurve(tuple(z_values), vals, N=N, a=a, b=b, kind="empirical")


def limit_curve(z_values: Sequence[float]) -> DistributionCurve:
    vals = tuple(limit_gap_distribution(z) for z in z_values)
    return DistributionCurve(tuple(z_values), vals, N=0, a=0.0, b=1.0, kind="limit")


# ---------------------------------------------------------------------------
# Convergence verification
# ---------------------------------------------------------------------------

#: the largest error of the exact average at the largest N
_FINAL_TOL = 0.01
#: the largest jump of the limit across z = 1 and z = 2 at z -+ 1e-6
_CONTINUITY_TOL = 1e-4


def verify_distribution_convergence(
    z_values: Sequence[float] = (0.25, 0.5, 0.75),
    n_values: Sequence[int] = (50, 200, 800),
) -> VerificationOutcome:
    """Check that the exact finite-N average approaches the closed-form
    limit: the error at each z is nonincreasing along ``n_values`` and at
    most ``_FINAL_TOL`` at the largest N, and the limit itself is continuous
    across the branch points z = 1 and z = 2."""
    failures = []
    errors = {}
    averages = [_rotation_averages(0.0, 1.0, z_values, N) for N in n_values]
    for i, z in enumerate(z_values):
        target = limit_gap_distribution(z)
        errs = [abs(row[i] - target) for row in averages]
        errors[z] = errs
        if any(e2 > e1 for e1, e2 in zip(errs, errs[1:])):
            failures.append({"what": "monotone error", "z": z, "errors": errs})
        if errs[-1] > _FINAL_TOL:
            failures.append(
                {"what": "final error", "z": z, "error": errs[-1], "tol": _FINAL_TOL}
            )
    for boundary in (1.0, 2.0):
        jump = abs(
            limit_gap_distribution(boundary - 1e-6)
            - limit_gap_distribution(boundary + 1e-6)
        )
        if jump > _CONTINUITY_TOL:
            failures.append({"what": "continuity", "z": boundary, "jump": jump})
    details = {
        "z_values": list(z_values),
        "n_values": list(n_values),
        "errors": {str(z): errors[z] for z in z_values},
        "tol_final": _FINAL_TOL,
    }
    if failures:
        return outcome_fail("dist-convergence", failures, **details)
    return outcome_pass("dist-convergence", **details)
