"""Interval exchange transformations: construction, evaluation, inversion,
composition with rotations, the infinite-distinct-orbit (Keane) certificate,
and the arc-exchange predicate on permutations.

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

from .errors import DomainError, ValidationError
from .numerics import GUARD_BAND, SurdExpr, alpha_float, parse_surd

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


# ---------------------------------------------------------------------------
# The IET proper
# ---------------------------------------------------------------------------


#: ``Iet._orbits`` runs the per-step loop below this many steps in all rows,
#: where it is faster than block powers (2-core AMD EPYC: even at about 3000)
_BLOCK_MIN = 3000
#: columns per check of a committed itinerary; bounds its temporaries
_CHECK_CHUNK = 2**14
#: clamps per row that ``Iet._orbits`` applies to a committed itinerary
#: before the loop redoes the row; each one recommits up to a chunk
_MAX_CLAMPS = 4


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
        later point lies in [0, 1) by the clamp.

        Short orbits run the per-step loop.  Long ones advance by block
        powers T^m and are checked at every step against T's cuts
        (``_orbits``); the result is bit-identical to the per-step loop.
        """
        if not 0.0 <= x < 1.0:
            raise DomainError(f"point {x!r} outside [0, 1)")
        if not isinstance(n, (int, np.integer)) or n < 0:
            raise DomainError(f"orbit length n must be an int >= 0, got {n!r}")
        return self._orbits([x], int(n))[0]

    def _steps(self, x: float, n: int) -> np.ndarray:
        """The per-step loop: n points from x, one shift and one clamp each."""
        # x lies in [beta[i], beta[i+1]) for i = the number of interior
        # breakpoints at or below x
        cuts, shifts = self.beta[1:-1], self.shifts
        top = math.nextafter(1.0, 0.0)
        x = float(x)
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

    def _orbits(self, starts: Sequence[float], n: int) -> np.ndarray:
        """The (rows, n) array whose row r is ``iterate(starts[r], n)``.

        Fewer than ``_BLOCK_MIN`` steps over all rows run the per-step loop.
        More guess each row's itinerary (the piece of T each step falls in)
        with block powers: the block starts by scalar steps of T^m, with
        m = floor(sqrt(n * rows) / 4), and the steps inside all blocks by m
        vector steps of T.  The guess is committed by a cumsum of shifts,
        which adds left to right as the loop does, and every step is checked
        against T's cuts and the clamp.  A due clamp is applied and the
        commit goes on from it, up to ``_MAX_CLAMPS`` times a row.  From the
        first step in the wrong piece the row is redone by the loop, so no
        row costs more than the loop plus one guess and a few chunks, and
        the guess affects only speed.
        """
        rows = len(starts)
        out = np.empty((rows, n))
        if n * rows < _BLOCK_MIN:
            for r, x in enumerate(starts):
                out[r] = self._steps(x, n)
            return out
        m = math.isqrt(n * rows) // 4
        cuts, shifts = np.array(self.beta[1:-1]), np.array(self.shifts)
        power_cuts, power_shifts = (v.tolist() for v in _power(cuts, shifts, m))
        blocks = -(-(n - 1) // m)  # blocks of m steps covering the n - 1 steps
        heads = []
        for x in starts:
            for _ in range(blocks):
                heads.append(x)
                x += power_shifts[bisect_right(power_cuts, x)]
        # step b * m + j of row r is guess[r, b, j]
        guess = np.empty((rows, blocks, m), dtype=np.min_scalar_type(self.d))
        y = np.array(heads, dtype=float)
        for j in range(m):
            piece = np.searchsorted(cuts, y, side="right")
            guess[:, :, j] = piece.reshape(rows, blocks)
            y += shifts[piece]
        itinerary = guess.reshape(rows, -1)
        top = math.nextafter(1.0, 0.0)
        for r, row in enumerate(out):
            row[0] = starts[r]
            k, clamps = 0, 0  # row[:k + 1] is final
            while k < n - 1:
                # x[0] is final, so the cumsum does the loop's additions
                # x[i + 1] = x[i] + shift in the loop's order
                x = row[k : k + _CHECK_CHUNK + 1]
                steps = itinerary[r, k : k + len(x) - 1]
                np.take(shifts, steps, out=x[1:], mode="clip")
                np.cumsum(x, out=x)
                wrong = np.searchsorted(cuts, x[:-1], side="right") != steps
                bad = wrong | (x[1:] < 0.0) | (x[1:] >= 1.0)  # or a clamp was due
                if not bad.any():
                    k += len(x) - 1
                    continue
                i = int(bad.argmax())
                if wrong[i] or clamps == _MAX_CLAMPS:
                    # x[:i + 1] is final; the loop redoes the rest
                    row[k + i :] = self._steps(x[i], n - k - i)
                    break
                # the guessed piece was right: clamp as the loop does, and
                # commit the rest of the guess from there
                x[i + 1] = top if x[i + 1] >= 1.0 else 0.0
                k, clamps = k + i + 1, clamps + 1
        return out

    def __call__(self, x: float) -> float:
        return self.apply(x)

    def inverse(self) -> "Iet":
        """The inverse IET: lengths permuted into image order, permutation inverted."""
        inv = perm_inverse(self.pi)
        lengths = [self.lengths[inv[j - 1] - 1] for j in range(1, self.d + 1)]
        return Iet.new(lengths, inv, normalize=True)

    def compose_rotation(self, angle) -> "Iet":
        """The IET realizing x -> T(R_angle(x)), on at most d + 1 intervals.

        The rotation's partition is refined by the rotation-preimages of
        this map's breakpoints; pieces no longer than ``GUARD_BAND`` are
        discarded and the rest renormalized.
        """
        a = alpha_float(angle)
        if not 0.0 < a < 1.0:
            raise DomainError(f"rotation number must lie in (0, 1), got {a}")
        cuts = {(b - a) % 1.0 for b in self.beta[1:-1]}
        cuts.add((1.0 - a) % 1.0)
        points = sorted(c for c in cuts if GUARD_BAND < c < 1.0 - GUARD_BAND)
        grid = [0.0] + points + [1.0]
        # merge numerically equal cut points
        merged = [grid[0]]
        for c in grid[1:]:
            if c - merged[-1] > GUARD_BAND:
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
                and abs(image_left[-1] + lengths[-1] - (val - (mid - left))) <= GUARD_BAND
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
        backwards ``depth`` steps, as d - 1 orbits of ``depth + 1`` points
        (block powers above a few thousand points, bit-identical to the
        float loop), and sorts the (d - 1)(depth + 1) floats once.  Only
        when two neighbours lie closer than ``tol`` does a stable argsort
        run, to report the first such pair in (x, i, n) order of the points
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
        points = inv._orbits(self.alpha[1:-1], depth + 1).ravel()
        # any sort gives the same sorted values; the stable one only names
        # the witness
        if not (np.diff(np.sort(points)) < tol).any():
            return KeaneResult(satisfied=True, depth=depth, tol=tol)
        order = np.argsort(points, kind="stable")
        k = int(np.flatnonzero(np.diff(points[order]) < tol)[0])
        (i, n), (j, m) = (divmod(int(order[k + c]), depth + 1) for c in (0, 1))
        return KeaneResult(
            satisfied=False, depth=depth, tol=tol, witness=(i + 1, j + 1, n, m)
        )

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


def _compose(a, b):
    """The map A∘B (B first) of two exchanges given as (interior cuts,
    shifts).  Its cuts are B's cuts and B^-1 of A's cuts, where a repeated
    cut only adds an empty piece; its shifts are read at the piece
    midpoints."""
    (a_cuts, a_shifts), (b_cuts, b_shifts) = a, b
    # B^-1 y = y - shift of the piece whose image holds y
    images = np.concatenate(([0.0], b_cuts)) + b_shifts
    order = np.argsort(images)
    piece = order[np.searchsorted(images[order], a_cuts, side="right") - 1]
    cuts = np.sort(np.concatenate((b_cuts, a_cuts - b_shifts[piece])))
    cuts = cuts[(cuts > 0.0) & (cuts < 1.0)]
    edges = np.concatenate(([0.0], cuts, [1.0]))
    mid = 0.5 * (edges[:-1] + edges[1:])
    y = mid + b_shifts[np.searchsorted(b_cuts, mid, side="right")]
    return cuts, y + a_shifts[np.searchsorted(a_cuts, y, side="right")] - mid


def _power(cuts, shifts, m: int):
    """T^m by repeated squaring, in floats: an exchange of at most
    m(d - 1) + 1 pieces (Keane, Math. Z. 1975), good as a guess only."""
    base, result = (cuts, shifts), None
    while True:
        if m & 1:
            result = base if result is None else _compose(base, result)
        m >>= 1
        if not m:
            return result
        base = _compose(base, base)


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


#: ``random_iet`` redraws lengths until every one is at least this
_MIN_LENGTH = 1e-3


def random_iet(d: int, rng: np.random.Generator) -> Iet:
    """A random genuine d-IET: uniform lengths on the simplex (each at
    least ``_MIN_LENGTH``) and a uniform irreducible permutation with no
    fake breakpoints in either direction."""
    if d < 2:
        raise DomainError("random_iet needs d >= 2")
    while True:
        lam = rng.dirichlet([1.0] * d)
        if min(lam) >= _MIN_LENGTH:
            break
    while True:
        perm = list(range(1, d + 1))
        rng.shuffle(perm)
        if is_irreducible(perm) and (d == 2 or not _has_connection(perm)):
            break
    return Iet.new(list(lam), tuple(perm), normalize=True)
