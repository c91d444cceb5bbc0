"""Zippered-rectangle width/height data of sheared unit-area tori, the
Iverson cut-off function on it, and the correspondence check between
rectangle parameters and rotation gap structure.

For a horizontal segment of length N over the torus sheared by alpha:
rational alpha = a/q in F(N) gives two rectangles of common height N/q and
widths ((q - n1)/N, n1/N) with n1 the inverse of a mod q; generic alpha
between neighbors a1/q1 < alpha < a2/q2 gives three rectangles with widths
(1 - q1/N, (q1+q2)/N - 1, 1 - q2/N) and heights (N*A, N*(A+C), N*C) where
A = q1*alpha - a1 and C = a2 - q2*alpha.  Widths times heights sum to 1.
Read as gap clusters, a rectangle of height h and width w is w*N gaps of
length h/N.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ConsistencyError, DomainError
from .gaps import _cluster_failures, _merged_clusters, default_cluster_eps, gap_report
from .iet import Iet
from .numerics import AlphaLike, bracket_offsets, coerce_alpha, farey_neighbors, mod_inverse
from .outcomes import VerificationOutcome, outcome_fail, outcome_pass


@dataclass(frozen=True)
class ZipperedRectangles:
    """Widths, heights, and combinatorial data of a torus decomposition.

    Unit area is enforced at construction, to within the rounding of float
    data: |sum w*h - 1| <= 4 * 2**-53 * sum h.  Each width is off by at most
    2**-53, each height by at most 2**-52 relative, and each product adds
    2**-53 relative; as the exact area is 1 and w <= 1, sum h >= 1, so the
    error is below 2**-53 * (sum h + 3).  The worst measured over 12000
    random (alpha, N <= 10**6) is 1.82 * 2**-53 * sum h.  In the generic case
    the widths additionally sum to 1 and the middle height is the sum of the
    outer two.  Zero widths are legal (a gap type with count zero).
    """

    widths: tuple[float, ...]
    heights: tuple[float, ...]
    pi: tuple[int, ...]
    case: str  # "rational" | "generic"

    def __post_init__(self):
        if len(self.widths) != len(self.heights) or len(self.widths) != len(self.pi):
            raise DomainError("widths, heights, and permutation sizes differ")
        if any(w < 0 for w in self.widths) or any(h < 0 for h in self.heights):
            raise DomainError("negative width or height")
        area = self.area()
        if abs(area - 1.0) > 4 * 2.0**-53 * math.fsum(self.heights):
            raise ConsistencyError(f"rectangle area {area!r} != 1")

    def area(self) -> float:
        return math.fsum(w * h for w, h in zip(self.widths, self.heights))

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "zippered_rectangles",
            "widths": list(self.widths),
            "heights": list(self.heights),
            "pi": list(self.pi),
            "case": self.case,
        }


def zipper_torus(alpha: AlphaLike, N: int) -> ZipperedRectangles:
    """Width/height data over a horizontal segment of length N on the torus
    sheared by alpha."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    bracket = farey_neighbors(alpha, N)
    if bracket.is_exact:
        # farey_neighbors refuses alpha outside (0, 1), so q >= 2
        a, q = bracket.exact.a, bracket.exact.q
        n1 = mod_inverse(a, q)
        return ZipperedRectangles(
            widths=((q - n1) / N, n1 / N),
            heights=(N / q, N / q),
            pi=(2, 1),
            case="rational",
        )
    q1, q2 = bracket.lower.q, bracket.upper.q
    A, C = (float(v) for v in bracket_offsets(alpha, bracket))
    return ZipperedRectangles(
        widths=(1.0 - q1 / N, (q1 + q2) / N - 1.0, 1.0 - q2 / N),
        heights=(N * A, N * A + N * C, N * C),
        pi=(3, 2, 1),
        case="generic",
    )


# ---------------------------------------------------------------------------
# Cut-off function
# ---------------------------------------------------------------------------


def cutoff_f(zr: ZipperedRectangles, z: float) -> float:
    """Total width of rectangles with height >= z."""
    if z < 0:
        raise DomainError(f"cutoff level must be >= 0, got {z}")
    return math.fsum(w for w, h in zip(zr.widths, zr.heights) if h >= z)


# ---------------------------------------------------------------------------
# Gap <-> zipper correspondence
# ---------------------------------------------------------------------------


def check_gap_zipper_correspondence(alpha: AlphaLike, N: int) -> VerificationOutcome:
    """Verify that the zippered rectangles, read as gap clusters (length
    height/N, count width*N, equal lengths merged), match the gap clusters
    of the rotation: counts exactly, lengths within
    ``default_cluster_eps(N)``."""
    zr = zipper_torus(alpha, N)
    report = gap_report(Iet.rotation(alpha), N)
    eps = default_cluster_eps(N)
    expected = _merged_clusters(
        ((h / N, round(w * N)) for w, h in zip(zr.widths, zr.heights)), eps
    )
    failures = _cluster_failures(expected, report.clusters, eps)
    details = {"alpha": str(coerce_alpha(alpha)[0]), "n": N, "eps": eps, "case": zr.case}
    if failures:
        return outcome_fail("gap-zipper", failures, **details)
    return outcome_pass("gap-zipper", **details)
