"""Zippered-rectangle width/height data of sheared unit-area tori, the
Iverson cut-off function on it, and the correspondence check between
rectangle parameters and rotation gap structure.

For a horizontal segment of length N over the torus sheared by alpha:
rational alpha = a/q in F(N) gives two rectangles of common height N/q and
widths ((q - n1)/N, n1/N) with n1 the inverse of a mod q; generic alpha
between neighbors a1/q1 < alpha < a2/q2 gives three rectangles with widths
(1 - q1/N, (q1+q2)/N - 1, 1 - q2/N) and heights (N*A, N*(A+C), N*C) where
A = q1*alpha - a1 and C = a2 - q2*alpha.  Widths times heights sum to 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import ConsistencyError, DomainError
from .gaps import GapReport, gap_report
from .iet import Iet
from .numerics import AlphaLike, bracket_offsets, coerce_alpha, farey_neighbors, mod_inverse
from .outcomes import VerificationOutcome, outcome_fail, outcome_pass

#: Rounding bound on the area and the widths.  A width 1 - q/N is off by up
#: to 2**-53 absolutely, and it multiplies a height below N/q, so the area
#: of float data is off by up to about N * 2**-53: 1.1e-10 at N = 10**6, the
#: largest order the Farey brackets are tested to.  The worst measured over
#: 3000 random (alpha, N < 10**6) is 7.9e-14.  A larger miss is wrong data.
AREA_TOL = 1e-10


@dataclass(frozen=True)
class ZipperedRectangles:
    """Widths, heights, and combinatorial data of a torus decomposition.

    Unit area is enforced at construction.  In the generic case the widths
    additionally sum to 1 and the middle height is the sum of the outer
    two.  Zero widths are legal (a gap type with count zero).
    """

    widths: tuple[float, ...]
    heights: tuple[float, ...]
    pi: tuple[int, ...]
    case: str  # "rational" | "generic"

    def __post_init__(self):
        if len(self.widths) != len(self.heights) or len(self.widths) != len(self.pi):
            raise DomainError("widths, heights, and permutation sizes differ")
        if any(w < -AREA_TOL for w in self.widths) or any(h < 0 for h in self.heights):
            raise DomainError("negative width or height")
        area = self.area()
        if abs(area - 1.0) > AREA_TOL:
            raise ConsistencyError(f"rectangle area {area!r} != 1")

    def area(self) -> float:
        return math.fsum(w * h for w, h in zip(self.widths, self.heights))

    @property
    def k(self) -> int:
        return len(self.widths)

    def to_json(self) -> dict:
        return {
            "schema_version": 1,
            "kind": "zippered_rectangles",
            "widths": list(self.widths),
            "heights": list(self.heights),
            "pi": list(self.pi),
            "case": self.case,
        }

    @staticmethod
    def from_json(data: dict) -> "ZipperedRectangles":
        return ZipperedRectangles(
            widths=tuple(data["widths"]),
            heights=tuple(data["heights"]),
            pi=tuple(data["pi"]),
            case=data["case"],
        )


def zipper_torus(alpha: AlphaLike, N: int, bits: int = 53) -> ZipperedRectangles:
    """Width/height data over a horizontal segment of length N on the torus
    sheared by alpha."""
    if N < 1:
        raise DomainError(f"N must be >= 1, got {N}")
    bracket = farey_neighbors(alpha, N, bits=bits)
    if bracket.is_exact:
        a, q = bracket.exact.a, bracket.exact.q
        if q < 2:
            raise DomainError(f"rational rotation number {a}/{q} outside (0, 1)")
        n1 = mod_inverse(a, q)
        return ZipperedRectangles(
            widths=((q - n1) / N, n1 / N),
            heights=(N / q, N / q),
            pi=(2, 1),
            case="rational",
        )
    q1, q2 = bracket.lower.q, bracket.upper.q
    A, C = (float(v) for v in bracket_offsets(alpha, bracket, bits))
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


def _merged_pairs(pairs, eps):
    """Merge (width, height) pairs with equal heights (within eps), summing
    widths; drop zero widths; sort by height."""
    pairs = sorted((h, w) for w, h in pairs if w > eps)
    merged: list[list] = []
    for h, w in pairs:
        if merged and h - merged[-1][0] <= eps * max(1.0, abs(h)):
            merged[-1][1] += w
            merged[-1][0] = h  # keep the larger representative
        else:
            merged.append([h, w])
    return [(w, h) for h, w in merged]


def check_gap_zipper_correspondence(
    alpha: AlphaLike,
    N: int,
    eps: float = 1e-9,
    report: Optional[GapReport] = None,
    bits: int = 53,
) -> VerificationOutcome:
    """Verify that the multiset {(count/N, N*length)} of the rotation's gap
    clusters equals the multiset {(width, height)} of the zippered
    rectangles, both sides merged over equal heights within eps."""
    zr = zipper_torus(alpha, N, bits=bits)
    if report is None:
        report = gap_report(Iet.rotation(alpha), N)
    gap_side = _merged_pairs(
        ((c.count / N, N * c.length) for c in report.clusters), eps
    )
    zr_side = _merged_pairs(zip(zr.widths, zr.heights), eps)
    failures = []
    if len(gap_side) != len(zr_side):
        failures.append(
            {"what": "pair count", "gap_side": gap_side, "zipper_side": zr_side}
        )
    else:
        for (gw, gh), (zw, zh) in zip(gap_side, zr_side):
            if abs(gw - zw) > eps or abs(gh - zh) > eps * max(1.0, abs(zh)):
                failures.append(
                    {
                        "what": "pair",
                        "gap_side": [gw, gh],
                        "zipper_side": [zw, zh],
                    }
                )
    details = {"alpha": str(coerce_alpha(alpha)[0]), "n": N, "eps": eps, "case": zr.case}
    if failures:
        return outcome_fail("gap-zipper", failures, **details)
    return outcome_pass("gap-zipper", **details)
