"""Interval exchange transformations: construction, evaluation, inversion,
composition with rotations, the infinite-distinct-orbit (Keane) certificate,
and the combinatorial invariants of the square-gluing suspension surface.

Conventions: an IET exchanges the half-open intervals
``[beta[i-1], beta[i])`` (the breakpoints of T) according to a permutation
``pi`` given in one-line image notation, 1-based.  The breakpoints of the
inverse map are ``alpha``; T^-1 sends (alpha[i-1], alpha[i]) onto
(beta[pi^-1(i)-1], beta[pi^-1(i)]).
"""

from __future__ import annotations

import math
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Union

import numpy as np

from .errors import ConsistencyError, DomainError, ValidationError
from .numerics import DEFAULT_PRECISION, SurdExpr, alpha_float, guard_band, parse_surd

LengthLike = Union[float, int, str, SurdExpr]


# ---------------------------------------------------------------------------
# Permutations (one-line images, 1-based)
# ---------------------------------------------------------------------------


def parse_permutation(data, notation: str = "one-line") -> tuple[int, ...]:
    """Accept a permutation in one-line image notation or as cycles.

    One-line: ``[3, 2, 1]`` means 1->3, 2->2, 3->1.  Cycles must be passed
    with ``notation="cycles"`` as a list of cycles over 1..d, e.g.
    ``[[1, 5, 2, 3, 4]]``; fixed points may be omitted only if d is clear
    from the longest entry.
    """
    if notation == "one-line":
        pi = tuple(int(v) for v in data)
        validate_permutation(pi)
        return pi
    if notation == "cycles":
        cycles = [[int(v) for v in cyc] for cyc in data]
        support = [v for cyc in cycles for v in cyc]
        if not support:
            raise ValidationError("empty cycle notation")
        d = max(support)
        if len(set(support)) != len(support):
            raise ValidationError(f"repeated element in cycles {cycles}")
        images = {v: v for v in range(1, d + 1)}
        for cyc in cycles:
            for i, v in enumerate(cyc):
                images[v] = cyc[(i + 1) % len(cyc)]
        pi = tuple(images[v] for v in range(1, d + 1))
        validate_permutation(pi)
        return pi
    raise ValidationError(f"unknown permutation notation {notation!r}")


def validate_permutation(pi: Sequence[int]) -> None:
    d = len(pi)
    if d == 0 or sorted(pi) != list(range(1, d + 1)):
        raise ValidationError(f"{tuple(pi)} is not a permutation of 1..{d}")


def perm_inverse(pi: Sequence[int]) -> tuple[int, ...]:
    inv = [0] * len(pi)
    for i, v in enumerate(pi):
        inv[v - 1] = i + 1
    return tuple(inv)


def is_irreducible(pi: Sequence[int]) -> bool:
    """No prefix {1..k}, k < d, is invariant."""
    validate_permutation(pi)
    top = 0
    for k, v in enumerate(pi[:-1], start=1):
        top = max(top, v)
        if top == k:
            return False
    return True


def _require_irreducible(pi: Sequence[int]) -> tuple[int, ...]:
    pi = tuple(int(v) for v in pi)
    if not is_irreducible(pi):
        raise ValidationError(f"permutation {pi} is reducible")
    return pi


def is_arc_exchange(pi: Sequence[int]) -> bool:
    """True when the marked origin of the suspension is a regular point,
    i.e. pi^-1(1) - pi^-1(d) == 1 (d = 1 counts by convention)."""
    pi = _require_irreducible(pi)
    d = len(pi)
    if d == 1:
        return True
    inv = perm_inverse(pi)
    return inv[0] - inv[d - 1] == 1


def singularity_at_origin(pi: Sequence[int]) -> bool:
    return not is_arc_exchange(pi)


# ---------------------------------------------------------------------------
# The IET proper
# ---------------------------------------------------------------------------


def _coerce_length(value: LengthLike) -> float:
    if isinstance(value, str):
        value = parse_surd(value)
    if isinstance(value, SurdExpr):
        return float(value)
    return float(value)


@dataclass(frozen=True)
class Iet:
    """A d-interval exchange transformation on [0, 1).

    Immutable after construction; all fields are plain tuples so instances
    are safe to share across threads.
    """

    lengths: tuple[float, ...]
    pi: tuple[int, ...]
    beta: tuple[float, ...]  # breakpoints of T, beta[0]=0 < ... < beta[d]=1
    alpha: tuple[float, ...]  # breakpoints of T^-1
    shifts: tuple[float, ...]  # T(x) = x + shifts[i] on [beta[i], beta[i+1])

    @staticmethod
    def new(
        lengths: Iterable[LengthLike],
        pi: Sequence[int],
        notation: str = "one-line",
        normalize: bool = False,
    ) -> "Iet":
        """Build an IET from positive lengths and a permutation.

        Lengths may be floats, exact rationals, surd expressions, or
        strings in the surd grammar.  Unless ``normalize`` is set the sum
        must equal 1 within 1e-12 * d; either way the stored lengths are
        rescaled to exact unit sum.
        """
        pi = parse_permutation(pi, notation=notation)
        lam = [_coerce_length(v) for v in lengths]
        d = len(lam)
        if d != len(pi):
            raise ValidationError(f"{d} lengths but permutation of size {len(pi)}")
        if any(not math.isfinite(v) or v <= 0.0 for v in lam):
            raise ValidationError(f"lengths must be positive, got {lam}")
        total = math.fsum(lam)
        if not normalize and abs(total - 1.0) > 1e-12 * d:
            raise ValidationError(f"lengths sum to {total!r}, not 1 (pass normalize=True to rescale)")
        lam = [v / total for v in lam]

        beta = _breakpoints(lam)
        inv = perm_inverse(pi)
        alpha = _breakpoints([lam[inv[j - 1] - 1] for j in range(1, d + 1)])
        shifts = tuple(alpha[pi[i] - 1] - beta[i] for i in range(d))
        return Iet(lengths=tuple(lam), pi=pi, beta=beta, alpha=alpha, shifts=shifts)

    @staticmethod
    def rotation(theta) -> "Iet":
        """The circle rotation x -> x + theta (mod 1) as a 2-IET."""
        t = alpha_float(theta)
        if not 0.0 < t < 1.0:
            raise DomainError(f"rotation number must lie in (0, 1), got {t}")
        return Iet.new([1.0 - t, t], (2, 1), normalize=True)

    @staticmethod
    def identity() -> "Iet":
        return Iet.new([1.0], (1,))

    @property
    def d(self) -> int:
        return len(self.lengths)

    def apply(self, x: float) -> float:
        return float(self.iterate(x, 2)[1])

    def iterate(self, x: float, n: int) -> np.ndarray:
        """The n points x, T x, ..., T^(n-1) x.  This is the one float step
        of T: ``apply`` is its first step.  x is range-checked once; every
        later point lies in [0, 1) by the clamp."""
        if not 0.0 <= x < 1.0:
            raise DomainError(f"point {x!r} outside [0, 1)")
        # x lies in [beta[i], beta[i+1]) for i = the number of interior
        # breakpoints at or below x
        cuts, shifts = self.beta[1:-1], self.shifts
        top = math.nextafter(1.0, 0.0)
        out = array("d", bytes(8 * n))
        for k in range(n):
            out[k] = x
            x += shifts[bisect_right(cuts, x)]
            # guard against the image grazing 1.0 through rounding
            if x >= 1.0:
                x = top
            elif x < 0.0:
                x = 0.0
        return np.frombuffer(out, dtype=float)

    def __call__(self, x: float) -> float:
        return self.apply(x)

    def inverse(self) -> "Iet":
        """The inverse IET: lengths permuted into image order, permutation inverted."""
        inv = perm_inverse(self.pi)
        lengths = [self.lengths[inv[j - 1] - 1] for j in range(1, self.d + 1)]
        return Iet.new(lengths, inv, normalize=True)

    def compose_rotation(self, angle, bits: int = DEFAULT_PRECISION) -> "Iet":
        """The IET realizing x -> T(R_angle(x)), on at most d + 1 intervals.

        The rotation's partition is refined by the rotation-preimages of
        this map's breakpoints; pieces shorter than the working zero-drop
        threshold are discarded and the rest renormalized.
        """
        a = alpha_float(angle)
        if not 0.0 < a < 1.0:
            raise DomainError(f"rotation number must lie in (0, 1), got {a}")
        drop = guard_band(bits)
        cuts = {(b - a) % 1.0 for b in self.beta[1:-1]}
        cuts.add((1.0 - a) % 1.0)
        points = sorted(c for c in cuts if drop < c < 1.0 - drop)
        grid = [0.0] + points + [1.0]
        # merge numerically equal cut points
        merged = [grid[0]]
        for c in grid[1:]:
            if c - merged[-1] > drop:
                merged.append(c)
        merged[-1] = 1.0

        lengths = []
        image_left = []
        for left, right in zip(merged[:-1], merged[1:]):
            mid = 0.5 * (left + right)
            y = mid + a
            if y >= 1.0:
                y -= 1.0
            val = self.apply(y)
            seg_len = right - left
            if (
                lengths
                and abs(image_left[-1] + lengths[-1] - (val - (mid - left))) <= drop
            ):
                # the cut turned out fake: the composite is continuous here
                lengths[-1] += seg_len
                continue
            lengths.append(seg_len)
            image_left.append(val - (mid - left))
        order = sorted(range(len(lengths)), key=image_left.__getitem__)
        ranks = [0] * len(lengths)
        for pos, idx in enumerate(order, start=1):
            ranks[idx] = pos
        return Iet.new(lengths, tuple(ranks), normalize=True)

    def keane_check(
        self, depth: int = 10_000, tol: Optional[float] = None
    ) -> "KeaneResult":
        """Bounded certificate for the infinite-distinct-orbit condition.

        Pushes every interior discontinuity alpha_i of the inverse map
        backwards ``depth`` steps, at a cost of (d - 1)(depth + 1) float
        steps and one sort of as many floats, and reports the first two
        neighbours closer than ``tol`` in (x, i, n) order of the points
        x = T^-n alpha_i as the witness (i, j, n, m).  A pass certifies no
        collision up to the depth; it is not a proof of minimality.
        """
        if depth < 1:
            raise DomainError(f"depth must be >= 1, got {depth}")
        if tol is None:
            tol = 1e-10 / self.d
        if self.d < 2:
            return KeaneResult(satisfied=True, depth=depth, tol=tol)
        inv = self.inverse()
        # row i - 1 holds T^-n alpha_i for n = 0..depth, so a stable sort of
        # the flat array orders ties by (i, n)
        points = np.concatenate(
            [inv.iterate(self.alpha[i], depth + 1) for i in range(1, self.d)]
        )
        order = np.argsort(points, kind="stable")
        close = np.flatnonzero(np.diff(points[order]) < tol)
        if close.size:
            k = int(close[0])
            (i, n), (j, m) = (divmod(int(order[k + c]), depth + 1) for c in (0, 1))
            return KeaneResult(
                satisfied=False, depth=depth, tol=tol, witness=(i + 1, j + 1, n, m)
            )
        return KeaneResult(satisfied=True, depth=depth, tol=tol)

    def genuine_alpha_indices(self) -> tuple[int, ...]:
        """Indices k in 1..d-1 where the inverse map is genuinely
        discontinuous at alpha[k].

        When pi^-1(k+1) = pi^-1(k) + 1 two image intervals sit flush and
        the inverse is continuous across alpha[k] (the map is a smaller
        exchange in disguise there).
        """
        inv = perm_inverse(self.pi)
        return tuple(
            k for k in range(1, self.d) if inv[k] - inv[k - 1] != 1
        )

    def genuine_beta_indices(self) -> tuple[int, ...]:
        """Indices k in 1..d-1 where the map is genuinely discontinuous at
        beta[k] (pi does not send intervals k, k+1 to adjacent positions)."""
        return tuple(
            k for k in range(1, self.d) if self.pi[k] - self.pi[k - 1] != 1
        )

    def to_json(self) -> dict:
        return {
            "lengths": list(self.lengths),
            "permutation": list(self.pi),
        }

    def __repr__(self) -> str:
        lens = ", ".join(f"{v:.6f}" for v in self.lengths)
        return f"Iet(lengths=({lens}), pi={self.pi})"


def _breakpoints(lengths: Sequence[float]) -> tuple[float, ...]:
    pts = [0.0]
    acc = 0.0
    for v in lengths:
        acc += v
        pts.append(acc)
    pts[-1] = 1.0
    for left, right in zip(pts, pts[1:]):
        if right <= left:
            raise ValidationError("breakpoints not strictly increasing (length underflow)")
    return tuple(pts)


@dataclass(frozen=True)
class KeaneResult:
    satisfied: bool
    depth: int
    tol: float
    witness: Optional[tuple[int, int, int, int]] = None  # (i, j, n, m)

    def to_json(self) -> dict:
        out = {"satisfied_up_to_depth": self.satisfied, "depth": self.depth, "tol": self.tol}
        if self.witness is not None:
            out["witness"] = {
                "discontinuity_i": self.witness[0],
                "discontinuity_j": self.witness[1],
                "step_n": self.witness[2],
                "step_m": self.witness[3],
            }
        return out


# ---------------------------------------------------------------------------
# Suspension-surface invariants from the square gluing
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SurfaceInvariants:
    """Vertex data of the unit-square suspension of a permutation.

    ``cone_angles`` lists each vertex class's total angle as a multiple of
    2*pi (so a regular point is 1).  ``genus`` satisfies
    sum(angle_i - 1) = 2g - 2.  ``d_S`` is 2g + num_vertices - 1, which for
    this closed-vertical construction always equals d + 1.
    """

    cone_angles: tuple[int, ...]
    genus: int
    num_vertices: int
    num_singularities: int
    d_S: int
    origin_angle: int  # angle multiple at the class of the marked origin

    def to_json(self) -> dict:
        return {
            "cone_angles_over_2pi": list(self.cone_angles),
            "genus": self.genus,
            "num_vertices": self.num_vertices,
            "num_singularities": self.num_singularities,
            "d_S": self.d_S,
            "origin_angle_over_2pi": self.origin_angle,
        }


def surface_invariants(pi: Sequence[int]) -> SurfaceInvariants:
    """Trace the corner cycles of the square gluing.

    Left side partitioned by the alpha breakpoints (slab i carries interval
    pi^-1(i)), right side by the beta breakpoints; left slab i is glued by
    translation to right slab pi^-1(i), horizontal sides by translation.
    Marked points: L_i = (0, alpha_i) and R_j = (1, beta_j), contributing a
    quarter turn at the four square corners and a half turn elsewhere.
    """
    pi = _require_irreducible(pi)
    d = len(pi)
    inv = perm_inverse(pi)

    # nodes 0..d are L_0..L_d, nodes d+1..2d+1 are R_0..R_d
    parent = list(range(2 * d + 2))

    def find(u):
        while parent[u] != u:
            parent[u] = parent[parent[u]]
            u = parent[u]
        return u

    def union(u, v):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv

    def L(i):
        return i

    def R(j):
        return d + 1 + j

    union(L(0), L(d))
    union(R(0), R(d))
    for i in range(1, d + 1):
        j = inv[i - 1]
        union(L(i - 1), R(j - 1))
        union(L(i), R(j))

    # quarter-turn units: corners contribute 1, side-interior points 2
    units = {}
    for node in range(2 * d + 2):
        idx = node if node <= d else node - (d + 1)
        u = 1 if idx in (0, d) else 2
        root = find(node)
        units[root] = units.get(root, 0) + u

    total_units = sum(units.values())
    if total_units != 4 * d:
        raise ConsistencyError(f"corner units sum to {total_units}, expected {4 * d}")
    angles = []
    for root, u in units.items():
        if u % 4 != 0:
            raise ConsistencyError(f"vertex class with {u} quarter turns is not a cone point")
        angles.append(u // 4)
    angles.sort(reverse=True)

    excess = sum(a - 1 for a in angles)
    if excess % 2 != 0:
        raise ConsistencyError(f"odd total cone excess {excess}")
    genus = (excess + 2) // 2
    num_vertices = len(angles)
    num_singular = sum(1 for a in angles if a > 1)
    origin_units = units[find(L(0))]
    return SurfaceInvariants(
        cone_angles=tuple(angles),
        genus=genus,
        num_vertices=num_vertices,
        num_singularities=num_singular,
        d_S=2 * genus + num_vertices - 1,
        origin_angle=origin_units // 4,
    )


# ---------------------------------------------------------------------------
# Random instances for sweeps
# ---------------------------------------------------------------------------


def _has_connection(pi: Sequence[int]) -> bool:
    """True when adjacent intervals map to adjacent positions in order
    (either for the map or its inverse), i.e. some breakpoint is fake and
    the exchange is really of fewer intervals."""
    inv = perm_inverse(pi)
    return any(pi[k] - pi[k - 1] == 1 for k in range(1, len(pi))) or any(
        inv[k] - inv[k - 1] == 1 for k in range(1, len(pi))
    )


def random_iet(d: int, rng, min_length: float = 1e-3) -> Iet:
    """A random genuine d-IET: uniform lengths on the simplex (floored away
    from zero) and a uniform irreducible permutation with no fake
    breakpoints in either direction."""
    if d < 2:
        raise DomainError("random_iet needs d >= 2")
    while True:
        lam = rng.dirichlet([1.0] * d) if hasattr(rng, "dirichlet") else None
        if lam is None:  # pragma: no cover - plain random.Random fallback
            raw = [-math.log(rng.random()) for _ in range(d)]
            s = sum(raw)
            lam = [v / s for v in raw]
        if min(lam) >= min_length:
            break
    while True:
        perm = list(range(1, d + 1))
        _shuffle(perm, rng)
        if is_irreducible(perm) and (d == 2 or not _has_connection(perm)):
            break
    return Iet.new(list(lam), tuple(perm), normalize=True)


def _shuffle(seq, rng):
    if hasattr(rng, "shuffle"):
        rng.shuffle(seq)
    else:  # pragma: no cover
        import random

        random.shuffle(seq)
