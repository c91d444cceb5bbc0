"""Orbit gaps: the sorted-orbit report, the three-gap predictor for circle
rotations, the sorting-permutation recursion, and the verification suites
for the three-gap structure and the d+2 / 3(d-1) distinct-length bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .errors import ConsistencyError, DomainError, GapscopeError
from .iet import Iet, perm_inverse
from .numerics import AlphaLike, bracket_offsets, coerce_alpha, farey_neighbors
from .outcomes import (
    VerificationOutcome,
    outcome_fail,
    outcome_not_applicable,
    outcome_pass,
)


def default_cluster_eps(N: int) -> float:
    """The tolerance for float noise in an orbit segment of length N:
    ``4 * N * 2**-53``.  Every comparison of orbit points or gap lengths,
    of a breakpoint against the orbit points, and of graph weights goes
    through it.

    Orbit points lie in [0, 1).  A rotation point {n * theta} is rounded
    once, in the product n * theta < N, so it is off by at most half an ulp
    of N, below N * 2**-53 (the reduction mod 1 is exact).  An IET step
    adds one rounding of at most 2**-54, so after fewer than N steps a
    point is off by less than N * 2**-54.  A gap is the difference of two
    points, so it is off by less than 2 * N * 2**-53, and two gaps of the
    same exact length differ by less than 4 * N * 2**-53.  The worst cases
    measured are 1.5 * N * 2**-53 for rotation gap lengths (647 surds at
    N = 10**4 .. 10**6) and 1.28 * N * 2**-53 for the weight balance of
    gap graphs (400 random IETs, d = 2 .. 6, N = 2 .. 5000).  At N = 10**6
    the tolerance is 4.4e-10, against gaps of order 1/N.
    """
    return 4 * max(N, 1) * 2.0**-53


# ---------------------------------------------------------------------------
# Orbits
# ---------------------------------------------------------------------------


def orbit(T: Iet, N: int) -> np.ndarray:
    """The orbit segment [T^0 0, T^1 0, ..., T^(N-1) 0].

    Rotations take the direct fractional-part route {n * theta}, which is
    slightly more accurate than iterated application; general IETs iterate.
    The fractional part is taken as x - floor(x), which for x >= 0 equals
    x % 1.0 bit for bit (both are exact) and is several times faster.
    """
    if N < 1:
        raise DomainError(f"orbit length must be >= 1, got {N}")
    if T.d == 2 and T.pi == (2, 1):
        x = np.arange(N, dtype=float)
        x *= T.lengths[1]
        x -= np.floor(x)
        return x
    return T.iterate(0.0, N)


# ---------------------------------------------------------------------------
# Gap reports
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GapCluster:
    length: float
    count: int

    def to_json(self) -> dict:
        return {"length": self.length, "count": self.count}


def _frozen(values, dtype) -> np.ndarray:
    """values as a read-only array of dtype (no copy when it already is one)."""
    arr = np.asarray(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class GapReport:
    """Sorted orbit points, sorting permutation, gap multiset, and the
    distinct-length clusters under the tolerance ``eps``.

    ``points``, ``sigma`` and ``gaps`` are read-only numpy arrays (float64,
    int64, float64).  ``sigma[k]`` is the orbit exponent whose point is the
    k-th smallest; for deduplicated (periodic) orbits it lists, per distinct
    point, the exponent of the member kept as representative.  ``gaps[k]``
    is the gap to the right of the k-th point, the last one wrapping around
    to 1.
    """

    n: int
    eps: float
    points: np.ndarray
    sigma: np.ndarray
    gaps: np.ndarray
    clusters: tuple[GapCluster, ...]
    deduplicated: bool

    def __eq__(self, other):
        if not isinstance(other, GapReport):
            return NotImplemented
        return (self.n, self.eps, self.clusters, self.deduplicated) == (
            other.n, other.eps, other.clusters, other.deduplicated
        ) and all(
            np.array_equal(a, b)
            for a, b in zip((self.points, self.sigma, self.gaps),
                            (other.points, other.sigma, other.gaps))
        )

    @property
    def num_points(self) -> int:
        return len(self.points)

    @property
    def distinct_count(self) -> int:
        return len(self.clusters)

    def gap_sum(self) -> float:
        return math.fsum(self.gaps.tolist())

    def _json_fields(self) -> dict:
        """The JSON fields, with ``points``, ``sigma`` and ``gaps`` still
        arrays (the CLI's emitter encodes them directly)."""
        return {
            "schema_version": 1,
            "kind": "gap_report",
            "n": self.n,
            "eps": self.eps,
            "points": self.points,
            "sigma": self.sigma,
            "gaps": self.gaps,
            "clusters": [c.to_json() for c in self.clusters],
            "deduplicated": self.deduplicated,
        }

    def to_json(self) -> dict:
        return {
            k: v.tolist() if isinstance(v, np.ndarray) else v
            for k, v in self._json_fields().items()
        }


def cluster_lengths(values: Sequence[float], eps: float) -> tuple[GapCluster, ...]:
    """Group sorted-by-value lengths into clusters: a new cluster starts
    whenever consecutive values differ by more than eps."""
    if len(values) == 0:
        return ()
    svals = np.sort(np.asarray(values, dtype=float))
    bounds = [0, *(np.flatnonzero(np.diff(svals) > eps) + 1).tolist(), len(svals)]
    return tuple(
        GapCluster(length=float(svals[a:b].mean()), count=b - a)
        for a, b in zip(bounds, bounds[1:])
    )


def gap_report(
    T: Iet,
    N: int,
    keep_duplicates: bool = False,
    points: Optional[np.ndarray] = None,
) -> GapReport:
    """Sort the orbit segment of 0 and report its gap structure.

    Orbit points and gap lengths closer than ``default_cluster_eps(N)`` are
    merged (the periodic case), so a rational rotation at level q < N
    reports exactly q gaps of length 1/q.  Pass ``keep_duplicates=True``
    for the raw N-point multiset including zero gaps.  ``points`` may carry
    a precomputed orbit segment.

    A rotation orbit is sorted without comparisons when it can be: the
    Farey bracket of theta at order N gives the order of the exact points
    (the mediant walk), and that candidate is kept only if it sorts the
    float points strictly increasingly, which makes it the unique sorting
    permutation.  Otherwise (theta a Farey fraction of order N, or float
    points that collide or misorder near one) a comparison sort runs, as it
    does for every other IET.
    """
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    eps = default_cluster_eps(N)
    pts = orbit(T, N) if points is None else np.asarray(points, dtype=float)
    order = _rotation_walk(T, N) if len(pts) == N else None
    if order is not None:
        sorted_pts = pts[order]
        steps = np.diff(sorted_pts)
        if not (steps > 0).all():
            order = None
    if order is None:
        # with distinct keys every sort gives the same permutation, so the
        # stable one (ties kept in exponent order) is needed only on a tie
        order = np.argsort(pts)
        sorted_pts = pts[order]
        steps = np.diff(sorted_pts)
        if not (steps > 0).all():
            order = np.argsort(pts, kind="stable")
            sorted_pts = pts[order]
            steps = np.diff(sorted_pts)

    dedup = False
    if not keep_duplicates and len(sorted_pts) > 1:
        keep = np.empty(len(sorted_pts), dtype=bool)
        keep[0] = True
        np.greater(steps, eps, out=keep[1:])
        if not keep.all():
            dedup = True
            sorted_pts = sorted_pts[keep]
            order = order[keep]
        # circular duplicates: a point just below 1 coincides with one at 0
        while len(sorted_pts) > 1 and (1.0 - sorted_pts[-1]) + sorted_pts[0] <= eps:
            dedup = True
            sorted_pts = sorted_pts[:-1]
            order = order[:-1]

    gaps = np.empty(len(sorted_pts), dtype=float)
    gaps[:-1] = np.diff(sorted_pts) if dedup else steps
    gaps[-1] = 1.0 - sorted_pts[-1]
    return GapReport(
        n=N,
        eps=eps,
        points=_frozen(sorted_pts, np.float64),
        sigma=_frozen(order, np.int64),
        gaps=_frozen(gaps, np.float64),
        clusters=cluster_lengths(gaps, eps),
        deduplicated=dedup,
    )


def _rotation_walk(T: Iet, N: int) -> Optional[np.ndarray]:
    """The candidate sorting permutation of the first N orbit points of a
    rotation: the mediant walk on the Farey arc of theta at order N.  None
    when T is not a rotation or theta is a Farey fraction of order N."""
    if not (T.d == 2 and T.pi == (2, 1)):
        return None
    try:
        bracket = farey_neighbors(T.lengths[1], N, guard=False)
    except GapscopeError:
        return None
    if bracket.is_exact:
        return None
    return _mediant_walk(N, bracket.lower.q, bracket.upper.q)


_WALK_BLOCK = 1 << 16


def _mediant_walk(N: int, q1: int, q2: int) -> np.ndarray:
    """``sigma_recursion(N, q1, q2)`` as an int64 array, by array arithmetic.

    Every alpha on the arc between the Farey neighbours a1/q1 < a2/q2 of
    order N sorts {n*alpha}, n < N, alike, and so does the mediant
    (a1 + a2)/(q1 + q2).  Its multiples are the fractions j/(q1 + q2), and
    q1 * (a1 + a2) = 1 + a1 * (q1 + q2) puts j/(q1 + q2) at exponent
    j * q1 mod (q1 + q2).  The walk over j skips the exponents >= N.  It
    runs in blocks of j, so it holds little more than its result.
    """
    Q = q1 + q2
    walk = np.empty(N, dtype=np.int64)
    filled = 0
    for start in range(0, Q, _WALK_BLOCK):
        k = np.arange(start, min(start + _WALK_BLOCK, Q), dtype=np.int64)
        k *= q1
        k %= Q
        k = k[k < N]
        walk[filled:filled + len(k)] = k
        filled += len(k)
    return walk


# ---------------------------------------------------------------------------
# Three-gap predictions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ThreeGapPrediction:
    """Predicted gap structure of {0, alpha, ..., (N-1) alpha}.

    Rational case (alpha = a/q with q <= N): q gaps of length 1/q.
    Generic case: counts (N-q1, q1+q2-N, N-q2) of lengths (A, B, C) with
    A = q1*alpha - a1, C = a2 - q2*alpha, B = A + C; zero counts allowed.
    """

    n: int
    kind: str  # "rational" | "generic"
    q: Optional[int] = None
    length: Optional[float] = None
    lower: Optional[tuple[int, int]] = None  # (a1, q1)
    upper: Optional[tuple[int, int]] = None  # (a2, q2)
    counts: Optional[tuple[int, int, int]] = None
    lengths: Optional[tuple[float, float, float]] = None

    @property
    def is_rational(self) -> bool:
        return self.kind == "rational"

    def expected_clusters(self) -> tuple[GapCluster, ...]:
        """Predicted (length, count) clusters: zero counts dropped, lengths
        within ``default_cluster_eps(n)`` merged, sorted by length."""
        if self.is_rational:
            return (GapCluster(length=self.length, count=self.q),)
        return _merged_clusters(zip(self.lengths, self.counts), default_cluster_eps(self.n))

    def to_json(self) -> dict:
        out = {"schema_version": 1, "kind": "three_gap_prediction", "n": self.n, "case": self.kind}
        if self.is_rational:
            out.update({"q": self.q, "length": self.length})
        else:
            out.update(
                {
                    "lower": {"numerator": self.lower[0], "denominator": self.lower[1]},
                    "upper": {"numerator": self.upper[0], "denominator": self.upper[1]},
                    "counts": list(self.counts),
                    "lengths": list(self.lengths),
                }
            )
        return out


def _merged_clusters(pairs, eps: float) -> tuple[GapCluster, ...]:
    """Clusters of (length, count) pairs: zero counts dropped, lengths within
    eps merged at their count-weighted mean, sorted by length."""
    merged: list[list] = []
    for l, c in sorted((l, c) for l, c in pairs if c > 0):
        if merged and l - merged[-1][0] <= eps:
            total = merged[-1][1] + c
            merged[-1][0] = (merged[-1][0] * merged[-1][1] + l * c) / total
            merged[-1][1] = total
        else:
            merged.append([l, c])
    return tuple(GapCluster(length=l, count=c) for l, c in merged)


def three_gap_predict(alpha: AlphaLike, N: int) -> ThreeGapPrediction:
    """Exact three-gap structure from the Farey bracket of alpha at order N."""
    bracket = farey_neighbors(alpha, N)
    if bracket.is_exact:
        q = bracket.exact.q
        return ThreeGapPrediction(n=N, kind="rational", q=q, length=1.0 / q)
    a1, q1 = bracket.lower.a, bracket.lower.q
    a2, q2 = bracket.upper.a, bracket.upper.q
    A, C = (float(v) for v in bracket_offsets(alpha, bracket))
    return ThreeGapPrediction(
        n=N,
        kind="generic",
        lower=(a1, q1),
        upper=(a2, q2),
        counts=(N - q1, q1 + q2 - N, N - q2),
        lengths=(A, A + C, C),
    )


def _check_neighbor_pair(N: int, q1: int, q2: int) -> None:
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    if not (1 <= q1 <= N and 1 <= q2 <= N):
        raise DomainError(f"denominators ({q1}, {q2}) out of range for N={N}")
    if q1 + q2 <= N:
        raise DomainError(f"({q1}, {q2}) is not a neighbor pair at order {N}: q1+q2 <= N")
    if math.gcd(q1, q2) != 1:
        raise DomainError(f"({q1}, {q2}) is not a neighbor pair: gcd > 1")


def sigma_recursion(N: int, q1: int, q2: int) -> tuple[int, ...]:
    """The sorting permutation of {n*alpha} for alpha on the arc with
    neighbor denominators (q1, q2): sigma(0) = 0 and the increment is
    +q1 on [0, N-q1), q1-q2 on [N-q1, q2), -q2 on [q2, N)."""
    _check_neighbor_pair(N, q1, q2)
    sigma = [0] * N
    seen = bytearray(N)
    seen[0] = 1
    cur = 0
    lo, mid = N - q1, q1 - q2
    for i in range(1, N):
        if cur < lo:
            cur += q1
        elif cur < q2:
            cur += mid
        else:
            cur -= q2
        if not 0 <= cur < N or seen[cur]:
            raise ConsistencyError(
                f"sigma recursion left the range or repeated at step {i} "
                f"(N={N}, q1={q1}, q2={q2})"
            )
        seen[cur] = 1
        sigma[i] = cur
    return tuple(sigma)


def _follows_sigma_recursion(sigma: np.ndarray, N: int, q1: int, q2: int) -> bool:
    """Whether ``sigma`` equals ``sigma_recursion(N, q1, q2)``, in one array
    pass: it starts at 0, and each step's increment is the one the
    recursion takes from the previous value."""
    _check_neighbor_pair(N, q1, q2)
    if len(sigma) != N or sigma[0] != 0:
        return False
    prev = sigma[:-1]
    step = np.where(prev < N - q1, q1, np.where(prev < q2, q1 - q2, -q2))
    return bool(np.array_equal(prev + step, sigma[1:]))


# ---------------------------------------------------------------------------
# Verification suites
# ---------------------------------------------------------------------------


def _cluster_failures(expected, got, eps: float) -> list[dict]:
    """Mismatches of measured clusters against expected ones: counts
    exactly, lengths within eps."""
    if len(expected) != len(got):
        return [
            {
                "what": "cluster count",
                "expected": [c.to_json() for c in expected],
                "got": [c.to_json() for c in got],
            }
        ]
    return [
        {"what": "cluster", "expected": exp.to_json(), "got": act.to_json()}
        for exp, act in zip(expected, got)
        if exp.count != act.count or abs(exp.length - act.length) > eps
    ]


def verify_three_gap(alpha: AlphaLike, N: int) -> VerificationOutcome:
    """Compare the measured gap report of the rotation orbit against the
    three-gap prediction: cluster counts exactly, lengths within
    ``default_cluster_eps(N)``, and (generic case) the sorting permutation
    against the recursion."""
    pred = three_gap_predict(alpha, N)
    report = gap_report(Iet.rotation(alpha), N)
    eps = default_cluster_eps(N)
    failures = _cluster_failures(pred.expected_clusters(), report.clusters, eps)

    if pred.is_rational:
        if report.num_points != pred.q:
            failures.append(
                {"what": "distinct points", "expected": pred.q, "got": report.num_points}
            )
    else:
        q1, q2 = pred.lower[1], pred.upper[1]
        if not _follows_sigma_recursion(report.sigma, N, q1, q2):
            failures.append({"what": "sigma", "expected": list(sigma_recursion(N, q1, q2)),
                             "got": report.sigma.tolist()})

    details = {"alpha": str(coerce_alpha(alpha)[0]), "n": N, "eps": eps, "case": pred.kind}
    if failures:
        return outcome_fail("three-gap", failures, **details)
    return outcome_pass("three-gap", **details)


def dplus2_bound(pi: Sequence[int]) -> int:
    """Distinct-gap-length bound for a minimal IET with this permutation:
    d+1 when the interval mapped just below the first image is the last
    one (pi^-1(pi(1) - 1) = d), else d+2."""
    d = len(pi)
    if d == 1:
        return 1
    inv = perm_inverse(pi)
    i0 = pi[0] - 1  # the exponent-1 orbit point lands on discontinuity alpha_{i0}
    if i0 >= 1 and inv[i0 - 1] == d:
        return d + 1
    return d + 2


def verify_dplus2(T: Iet, N: int) -> VerificationOutcome:
    """Check the distinct-gap-length count against the d+1 / d+2 bound and
    the 3(d-1) bound.  Minimality is certified first by the Keane check to
    depth max(N, 1000); an uncertified map yields a not-applicable outcome."""
    depth = max(N, 1000)
    keane = T.keane_check(depth=depth)
    details = {"n": N, "d": T.d, "keane_depth": depth}
    if not keane.satisfied:
        return outcome_not_applicable(
            "d+2", "Keane certificate failed (map not certified minimal)",
            keane=keane.to_json(), **details,
        )
    report = gap_report(T, N)
    bound = dplus2_bound(T.pi)
    bosh = 3 * (T.d - 1) if T.d >= 2 else 1
    count = report.distinct_count
    details.update({"distinct_lengths": count, "bound": bound, "boshernitzan_bound": bosh})
    failures = []
    if count > bound:
        failures.append({"what": "d+2 bound", "expected": f"<= {bound}", "got": count})
    if count > bosh:
        failures.append({"what": "3(d-1) bound", "expected": f"<= {bosh}", "got": count})
    if failures:
        return outcome_fail("d+2", failures, **details)
    return outcome_pass("d+2", **details)
