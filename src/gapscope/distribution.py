"""Gap-counting statistics: the finite-N counting function, the exact
per-arc average over rotation numbers, empirical averages for IET-rotation
compositions, the closed-form limiting distribution, and the consistency
between Farey-arc summation and the limiting integral over the region
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
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import DomainError, GapscopeError
from .gaps import GapReport, gap_report
from .iet import Iet
from .numerics import DEFAULT_PRECISION, _farey_pair_ints, dilog, farey_arc_blocks
from .outcomes import VerificationOutcome, outcome_fail, outcome_pass

SIX_OVER_PI_SQ = 6.0 / (math.pi * math.pi)


# ---------------------------------------------------------------------------
# Counting
# ---------------------------------------------------------------------------


def gap_counting(
    T: Iet, N: int, z: float, report: Optional[GapReport] = None
) -> int:
    """Number of normalized gap lengths N*gap >= z in the orbit segment."""
    if z < 0:
        raise DomainError(f"threshold must be >= 0, got {z}")
    if report is None:
        report = gap_report(T, N)
    return int(np.count_nonzero(N * report.gaps >= z))


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


def avg_gap_iet(
    T: Iet,
    a: float,
    b: float,
    z: float,
    N: int,
    grid: int,
    bits: int = DEFAULT_PRECISION,
) -> float:
    """Midpoint-rule average of the normalized gap count of T o R_alpha
    over ``grid`` equispaced alpha in [a, b].

    Grid points where the composition degenerates (zero-length pieces
    collapsing below the drop threshold, orbit collisions) are skipped.
    No closed arc decomposition is available for general T, so this is a
    quadrature, with error O((b-a)/grid) times the integrand variation.
    """
    values = _avg_gap_iet_values(T, a, b, [z], N, grid, bits)
    return values[0]


def _avg_gap_iet_values(T, a, b, z_values, N, grid, bits=DEFAULT_PRECISION):
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
            comp = T.compose_rotation(alpha, bits=bits)
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
# Farey-arc sums and the Omega integral
# ---------------------------------------------------------------------------


def arc_cutoff_kernel(z: float) -> Callable[[float, float], float]:
    """The per-arc kernel F(x, y): 1/(xy) times the closed-form unit
    t-integral of the height cut-off at z, defined on Omega.

    Summing F(q1/N, q2/N)/N^2 over consecutive Farey pairs reproduces the
    exact rotation average; integrating (6/pi^2) F over Omega gives its
    N -> infinity limit.
    """

    def F(x: float, y: float) -> float:
        _require_omega(x, y)
        return _arc_cutoff_integral(x, y, z, 0.0, 1.0) / (x * y)

    return F


def aggregate_cutoff_kernel(
    f: Callable[[float, float, float, float, float, float], float], panels: int = 2048
) -> Callable[[float, float], float]:
    """Kernel for an arbitrary aggregate cut-off f(w1, w2, w3, h1, h2, h3),
    with the t-integral done by midpoint rule (``panels`` panels).  The
    closed form :func:`arc_cutoff_kernel` should be preferred for the
    standard height cut-off."""

    def F(x: float, y: float) -> float:
        _require_omega(x, y)
        w1, w2, w3 = 1.0 - x, x + y - 1.0, 1.0 - y
        acc = 0.0
        for j in range(panels):
            t = (j + 0.5) / panels
            acc += f(w1, w2, w3, t / y, (1.0 / y - 1.0 / x) * t + 1.0 / x, (1.0 - t) / x)
        return acc / panels / (x * y)

    return F


def _require_omega(x: float, y: float) -> None:
    if not (0.0 < x <= 1.0 and 0.0 < y <= 1.0 and x + y > 1.0):
        raise DomainError(f"({x}, {y}) lies outside Omega")


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


# 5- and 9-point Gauss-Legendre nodes/weights on [0, 1]
_G5_NODES, _G5_WEIGHTS = np.polynomial.legendre.leggauss(5)
_G5_NODES = tuple((_G5_NODES + 1.0) / 2.0)
_G5_WEIGHTS = tuple(_G5_WEIGHTS / 2.0)
_G9_NODES, _G9_WEIGHTS = np.polynomial.legendre.leggauss(9)
_G9_NODES = tuple((_G9_NODES + 1.0) / 2.0)
_G9_WEIGHTS = tuple(_G9_WEIGHTS / 2.0)


def _tensor_gauss(g, u0, u1, v0, v1, nodes, weights):
    du, dv = u1 - u0, v1 - v0
    acc = 0.0
    for nu, wu in zip(nodes, weights):
        u = u0 + nu * du
        row = 0.0
        for nv, wv in zip(nodes, weights):
            row += wv * g(u, v0 + nv * dv)
        acc += wu * row
    return acc * du * dv


def _adaptive_2d(g, u0, u1, v0, v1, tol, depth):
    coarse = _tensor_gauss(g, u0, u1, v0, v1, _G5_NODES, _G5_WEIGHTS)
    fine = _tensor_gauss(g, u0, u1, v0, v1, _G9_NODES, _G9_WEIGHTS)
    if abs(fine - coarse) <= tol or depth <= 0:
        return fine
    um, vm = 0.5 * (u0 + u1), 0.5 * (v0 + v1)
    quarter = tol / 4.0
    return (
        _adaptive_2d(g, u0, um, v0, vm, quarter, depth - 1)
        + _adaptive_2d(g, um, u1, v0, vm, quarter, depth - 1)
        + _adaptive_2d(g, u0, um, vm, v1, quarter, depth - 1)
        + _adaptive_2d(g, um, u1, vm, v1, quarter, depth - 1)
    )


def omega_integral(
    F: Callable[[float, float], float], tol: float = 1e-6, max_depth: int = 14
) -> float:
    """(6/pi^2) times the integral of F over Omega, by adaptive
    tensor-product Gauss quadrature with recursive bisection.

    Omega is mapped to the unit square via y = 1 - x + v*x (Jacobian x),
    which removes the diagonal boundary; the cut-off kernels are C^0 with
    gradient kinks, which the bisection resolves.
    """
    def g(u, v):
        return F(u, 1.0 - u + v * u) * u

    inner_tol = tol / SIX_OVER_PI_SQ / 2.0
    return SIX_OVER_PI_SQ * _adaptive_2d(g, 0.0, 1.0, 0.0, 1.0, inner_tol, max_depth)


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

    @staticmethod
    def from_json(data: dict) -> "DistributionCurve":
        return DistributionCurve(
            z_values=tuple(p["z"] for p in data["points"]),
            values=tuple(p["value"] for p in data["points"]),
            N=data["n"],
            a=data["a"],
            b=data["b"],
            kind=data["curve_kind"],
        )

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


def verify_distribution_convergence(
    z_values: Sequence[float] = (0.25, 0.5, 0.75),
    n_values: Sequence[int] = (50, 200, 800),
    tol_final: float = 0.01,
    continuity_tol: float = 1e-4,
) -> VerificationOutcome:
    """Check that the exact finite-N average approaches the closed-form
    limit: the error at each z is nonincreasing along ``n_values`` and at
    most ``tol_final`` at the largest N, and the limit itself is continuous
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
        if errs[-1] > tol_final:
            failures.append(
                {"what": "final error", "z": z, "error": errs[-1], "tol": tol_final}
            )
    for boundary in (1.0, 2.0):
        jump = abs(
            limit_gap_distribution(boundary - 1e-6)
            - limit_gap_distribution(boundary + 1e-6)
        )
        if jump > continuity_tol:
            failures.append({"what": "continuity", "z": boundary, "jump": jump})
    details = {
        "z_values": list(z_values),
        "n_values": list(n_values),
        "errors": {str(z): errors[z] for z in z_values},
        "tol_final": tol_final,
    }
    if failures:
        return outcome_fail("dist-convergence", failures, **details)
    return outcome_pass("dist-convergence", **details)
