"""Number backends: reduced rationals, Farey/Stern-Brocot machinery,
modular inverses, surd expressions, and the real dilogarithm.

Exact inputs (rationals and quadratic-surd expressions) are compared
against fractions with integer arithmetic only, so Farey bracketing is
exact for orders up to 10**6 and beyond.  Floating inputs are treated as
the exact dyadic rationals they are, with a fixed guard band of
:data:`GUARD_BAND` around Farey elements; anything inside the band that is
not an exact hit raises :class:`AmbiguousValueError`, and the value should
then be given as an exact rational or surd.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Callable, Iterator, Optional, Union

import numpy as np

from .errors import AmbiguousValueError, DomainError, NoInverseError, ParseError

#: default bits of surd evaluation; at 53 a surd's JSON "decimal" has 15 digits
DEFAULT_PRECISION = 53

#: width of the ambiguity band of float inputs around exact values: a float
#: this close to a Farey fraction is refused, and ``Iet.compose_rotation``
#: drops pieces this short
GUARD_BAND = 2.0**-45

PI_SQUARED_OVER_6 = math.pi * math.pi / 6.0

#: small primes used to pull square factors out of radicands
_SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


# ---------------------------------------------------------------------------
# Farey fractions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FareyFraction:
    """A reduced fraction a/q in [0, 1] with q >= 1."""

    a: int = 0
    q: int = 1

    def __post_init__(self):
        if self.q < 1:
            raise DomainError(f"denominator must be >= 1, got {self.q}")
        if not 0 <= self.a <= self.q:
            raise DomainError(f"{self.a}/{self.q} lies outside [0, 1]")
        if gcd(self.a, self.q) != 1:
            raise DomainError(f"{self.a}/{self.q} is not reduced")

    @property
    def value(self) -> float:
        return self.a / self.q

    def as_fraction(self) -> Fraction:
        return Fraction(self.a, self.q)

    def __str__(self) -> str:
        return f"{self.a}/{self.q}"


@dataclass(frozen=True)
class FareyBracket:
    """Result of locating x against the Farey fractions of order N.

    Either ``exact`` is set (x is itself an element), or ``lower`` and
    ``upper`` are the unique consecutive elements with lower < x < upper.
    """

    order: int
    exact: Optional[FareyFraction] = None
    lower: Optional[FareyFraction] = None
    upper: Optional[FareyFraction] = None

    def __post_init__(self):
        if (self.exact is None) == (self.lower is None or self.upper is None):
            raise ValueError("bracket must be exact or a (lower, upper) pair")

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


def mod_inverse(a: int, q: int) -> int:
    """The unique n in {1, ..., q-1} with n*a == 1 (mod q); q >= 2, gcd(a,q)=1."""
    if q < 2:
        raise DomainError(f"modulus must be >= 2, got {q}")
    try:
        return pow(a, -1, q)
    except ValueError as exc:
        raise NoInverseError(f"{a} has no inverse modulo {q}: gcd != 1") from exc


# ---------------------------------------------------------------------------
# Dilogarithm
# ---------------------------------------------------------------------------


def dilog(x: float) -> float:
    """Real dilogarithm on [0, 1], accurate to well below 1e-12.

    Direct power series for x <= 1/2; the Euler reflection
    Li2(x) + Li2(1-x) = pi^2/6 - ln(x) ln(1-x) otherwise, so the series
    always converges at least geometrically with ratio 1/2.
    """
    if not 0.0 <= x <= 1.0:
        raise DomainError(f"dilog argument {x!r} outside [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return PI_SQUARED_OVER_6
    if x > 0.5:
        return PI_SQUARED_OVER_6 - math.log(x) * math.log1p(-x) - _dilog_series(1.0 - x)
    return _dilog_series(x)


def _dilog_series(x: float) -> float:
    # tail after n terms is bounded by x^(n+1) / ((n+1)^2 (1-x))
    terms = []
    xn = x
    n = 1
    inv_rest = 1.0 / (1.0 - x)
    while True:
        terms.append(xn / (n * n))
        n += 1
        xn *= x
        if xn / (n * n) * inv_rest < 1e-18:
            terms.append(xn / (n * n))
            break
    return math.fsum(terms)


# ---------------------------------------------------------------------------
# Surd expressions
# ---------------------------------------------------------------------------


def _square_free(n: int) -> tuple[int, int]:
    """Write n = s^2 * m with m square-free (best effort); returns (s, m)."""
    if n == 0:
        return 1, 0
    s = 1
    for p in _SMALL_PRIMES:
        p2 = p * p
        while n % p2 == 0:
            n //= p2
            s *= p
    r = isqrt(n)
    if r * r == n:
        return s * r, 1
    return s, n


@dataclass(frozen=True)
class SurdExpr:
    """A sum of rational multiples of square roots of nonnegative integers.

    ``terms`` maps square-free radicands to rational coefficients; the
    radicand 1 holds the rational part.  Covers the input grammar
    (integers, fractions, decimals, sqrt of a rational, and +/- chains
    of those), e.g. 1/sqrt(2) is (1/2)*sqrt(2).
    """

    terms: tuple[tuple[int, Fraction], ...]  # sorted by radicand
    source_kind: str = "rational"  # rational | decimal | surd

    @staticmethod
    def from_terms(raw: list[tuple[Fraction, int]], source_kind: str = "surd") -> "SurdExpr":
        acc: dict[int, Fraction] = {}
        for coef, radicand in raw:
            if radicand < 0:
                raise DomainError("negative radicand")
            s, m = _square_free(radicand)
            if m == 0:
                continue  # sqrt(0) term
            acc[m] = acc.get(m, Fraction(0)) + coef * s
        terms = tuple(sorted((r, c) for r, c in acc.items() if c != 0))
        if all(r == 1 for r, _ in terms) and source_kind == "surd":
            source_kind = "rational"
        return SurdExpr(terms=terms, source_kind=source_kind)

    @staticmethod
    def from_rational(value: Fraction) -> "SurdExpr":
        return SurdExpr.from_terms([(Fraction(value), 1)], source_kind="rational")

    @property
    def is_rational(self) -> bool:
        return all(r == 1 for r, _ in self.terms)

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise DomainError(f"{self} is irrational")
        for r, c in self.terms:
            if r == 1:
                return c
        return Fraction(0)

    def interval(self, bits: int) -> tuple[Fraction, Fraction]:
        """Enclosing interval [lo, hi] with each sqrt resolved to ``bits`` bits."""
        lo = Fraction(0)
        hi = Fraction(0)
        scale = 1 << bits
        for r, c in self.terms:
            if r == 1:
                lo += c
                hi += c
                continue
            s = isqrt(r * scale * scale)
            root_lo = Fraction(s, scale)
            root_hi = Fraction(s + 1, scale)
            if c >= 0:
                lo += c * root_lo
                hi += c * root_hi
            else:
                lo += c * root_hi
                hi += c * root_lo
        return lo, hi

    def eval_fraction(self, bits: int = DEFAULT_PRECISION) -> Fraction:
        lo, hi = self.interval(bits + 4)
        return (lo + hi) / 2

    def __float__(self) -> float:
        return float(self.eval_fraction(64))

    def compare_rational(self, a: int, q: int) -> int:
        """Exact sign of self - a/q (-1, 0, +1)."""
        delta = dict(self.terms)
        delta[1] = delta.get(1, Fraction(0)) - Fraction(a, q)
        items = [(r, c) for r, c in delta.items() if c != 0]
        if not items:
            return 0
        if len(items) == 1:
            r, c = items[0]
            return 1 if c > 0 else -1  # sqrt(r) > 0 always
        if len(items) == 2 and any(r == 1 for r, _ in items):
            (r1, c1), (r2, c2) = sorted(items)
            # c1 + c2*sqrt(r2) with r1 == 1, r2 > 1
            if c1 >= 0 and c2 >= 0:
                return 1
            if c1 <= 0 and c2 <= 0:
                return -1
            lhs = c2 * c2 * r2  # sign decided by |c2|^2 r2 vs |c1|^2
            rhs = c1 * c1
            if lhs == rhs:
                return 0
            big = 1 if lhs > rhs else -1
            return big if c2 > 0 else -big
        # General case: interval refinement. Distinct square-free radicands
        # are linearly independent over Q, so a nonzero sum separates from 0.
        bits = 64
        while bits <= 1 << 14:
            lo, hi = SurdExpr(tuple(sorted(items))).interval(bits)
            if lo > 0:
                return 1
            if hi < 0:
                return -1
            bits *= 2
        raise AmbiguousValueError(
            "cannot separate surd expression from rational at 16384 bits; "
            "supply the value in a simpler exact form"
        )

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for r, c in self.terms:
            body = str(c) if r == 1 else (f"sqrt({r})" if c == 1 else f"{c}*sqrt({r})")
            if parts and not body.startswith("-"):
                parts.append("+")
            parts.append(body)
        return " ".join(parts)

    def to_json(self, bits: int = DEFAULT_PRECISION) -> dict:
        digits = max(1, int(bits * 0.30103))
        rendered = decimal_str(self.eval_fraction(bits + 8), digits)
        if self.source_kind == "decimal":
            return {"kind": "decimal", "text": rendered, "decimal": rendered}
        if self.is_rational:
            f = self.as_fraction()
            return {
                "kind": "rational",
                "numerator": f.numerator,
                "denominator": f.denominator,
                "decimal": rendered,
            }
        return {
            "kind": "surd",
            "terms": [
                {
                    "coefficient_numerator": c.numerator,
                    "coefficient_denominator": c.denominator,
                    "radicand": r,
                }
                for r, c in self.terms
            ],
            "decimal": rendered,
        }


def decimal_str(value: Fraction, digits: int) -> str:
    """Fixed-point decimal rendering of a fraction with ``digits`` places."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    scaled = value * 10**digits
    whole = scaled.numerator // scaled.denominator
    text = str(whole).rjust(digits + 1, "0")
    return f"{sign}{text[:-digits]}.{text[-digits:]}" if digits else f"{sign}{text}"


# ---------------------------------------------------------------------------
# Surd grammar parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<decimal>\d+\.\d+)|(?P<int>\d+)|(?P<name>sqrt)|(?P<op>[()+\-*/]))"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character", text, pos + (len(text[pos:]) - len(stripped)))
        kind = m.lastgroup
        tokens.append((kind, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(("eof", "", len(text)))
    return tokens


class _SurdParser:
    """Recursive-descent parser for the number grammar.

    expr   := ['-'] group (('+'|'-') group)*
    group  := '(' expr ')' ['/' INT] | term
    term   := INT '*' root | root | INT ['/' INT] | DECIMAL
    root   := 'sqrt' '(' INT ['/' INT] ')'
    """

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def take(self, kind=None, literal=None, label=None):
        tok = self.tokens[self.i]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {label or literal or kind}", self.text, tok[2])
        if literal is not None and tok[1] != literal:
            raise ParseError(f"expected {literal!r}", self.text, tok[2])
        self.i += 1
        return tok

    def parse(self) -> SurdExpr:
        terms, kinds = self.expr()
        tok = self.peek()
        if tok[0] != "eof":
            raise ParseError("trailing input", self.text, tok[2])
        if kinds == {"decimal"}:
            source = "decimal"
        elif any(r != 1 for _, r in terms):
            source = "surd"
        else:
            source = "rational"
        return SurdExpr.from_terms(terms, source_kind=source)

    def expr(self):
        terms: list[tuple[Fraction, int]] = []
        kinds: set[str] = set()
        sign = Fraction(1)
        if self.peek()[:2] == ("op", "-"):
            self.take()
            sign = Fraction(-1)
        self._group(terms, kinds, sign)
        while self.peek()[0] == "op" and self.peek()[1] in "+-":
            op = self.take()[1]
            self._group(terms, kinds, Fraction(1) if op == "+" else Fraction(-1))
        return terms, kinds

    def _group(self, terms, kinds, sign):
        tok = self.peek()
        if tok[:2] == ("op", "("):
            self.take()
            inner, inner_kinds = self.expr()
            self.take("op", literal=")")
            scale = Fraction(1)
            if self.peek()[:2] == ("op", "/"):
                self.take()
                scale = Fraction(1, self._int("denominator"))
            terms.extend((sign * scale * c, r) for c, r in inner)
            kinds |= inner_kinds
            return
        coef, radicand, kind = self._term()
        terms.append((sign * coef, radicand))
        kinds.add(kind)

    def _term(self):
        tok = self.peek()
        if tok[0] == "decimal":
            self.take()
            return Fraction(tok[1]), 1, "decimal"
        if tok[0] == "name":
            return self._root(Fraction(1))
        if tok[0] == "int":
            self.take()
            n = int(tok[1])
            nxt = self.peek()
            if nxt[:2] == ("op", "*"):
                self.take()
                return self._root(Fraction(n))
            if nxt[:2] == ("op", "/"):
                self.take()
                return Fraction(n, self._int("denominator")), 1, "rational"
            return Fraction(n), 1, "rational"
        raise ParseError("expected a number or sqrt(...)", self.text, tok[2])

    def _root(self, coef: Fraction):
        self.take("name", literal="sqrt")
        self.take("op", literal="(")
        num = self._int("radicand")
        den = 1
        if self.peek()[:2] == ("op", "/"):
            self.take()
            den = self._int("denominator")
        self.take("op", literal=")")
        # sqrt(num/den) = sqrt(num*den) / den
        return coef * Fraction(1, den), num * den, "surd"

    def _int(self, label):
        tok = self.take("int", label=label)
        value = int(tok[1])
        if label == "denominator" and value == 0:
            raise ParseError("zero denominator", self.text, tok[2])
        return value


def parse_surd(text: str) -> SurdExpr:
    """Parse a number expression: INT, INT/INT, DECIMAL, sqrt(INT[/INT]),
    and +/- combinations such as ``(1 + 2*sqrt(2))/3`` or ``1 - sqrt(1/2)``."""
    return _SurdParser(text).parse()


AlphaLike = Union[float, int, Fraction, FareyFraction, SurdExpr, str]


def coerce_alpha(x: AlphaLike) -> tuple[SurdExpr, bool]:
    """Normalize a rotation-number-like input to (SurdExpr, came_from_float)."""
    if isinstance(x, str):
        return parse_surd(x), False
    if isinstance(x, SurdExpr):
        return x, False
    if isinstance(x, FareyFraction):
        return SurdExpr.from_rational(x.as_fraction()), False
    if isinstance(x, Fraction):
        return SurdExpr.from_rational(x), False
    if isinstance(x, int):
        return SurdExpr.from_rational(Fraction(x)), False
    if isinstance(x, float):
        return SurdExpr.from_rational(Fraction(x)), True
    raise DomainError(f"cannot interpret {x!r} as a number")


def alpha_float(x: AlphaLike) -> float:
    expr, _ = coerce_alpha(x)
    return float(expr)


# ---------------------------------------------------------------------------
# Farey neighbor search (Stern-Brocot mediant descent with batched steps)
# ---------------------------------------------------------------------------


def _comparator(expr: SurdExpr) -> Callable[[int, int], int]:
    if expr.is_rational:
        f = expr.as_fraction()
        xn, xd = f.numerator, f.denominator

        def cmp(a: int, q: int) -> int:
            lhs = xn * q
            rhs = a * xd
            return (lhs > rhs) - (lhs < rhs)

        return cmp
    return expr.compare_rational


def farey_neighbors(x: AlphaLike, N: int, guard: bool = True) -> FareyBracket:
    """Locate x in the Farey fractions of order N.

    Returns an exact hit, or the unique consecutive pair a1/q1 < x < a2/q2
    (which satisfies a2*q1 - a1*q2 = 1 and q1 + q2 > N).  Exact inputs are
    resolved with integer arithmetic; float inputs raise
    :class:`AmbiguousValueError` inside the :data:`GUARD_BAND` unless
    ``guard`` is off (appropriate for integration-window endpoints, where a
    sub-band misclassification is harmless).
    """
    if N < 1:
        raise DomainError(f"Farey order must be >= 1, got {N}")
    expr, inexact = coerce_alpha(x)
    inexact = inexact and guard
    cmp = _comparator(expr)
    if cmp(0, 1) <= 0 or cmp(1, 1) >= 0:
        raise DomainError("x must lie strictly inside (0, 1)")

    lo_a, lo_q = 0, 1
    hi_a, hi_q = 1, 1
    while lo_q + hi_q <= N:
        med_a, med_q = lo_a + hi_a, lo_q + hi_q
        side = cmp(med_a, med_q)
        if side == 0:
            return _checked_bracket(expr, inexact, N, exact=(med_a, med_q))
        if side < 0:
            # x < mediant: left steps hi_k = (k*lo + hi) decrease toward lo.
            # Take the largest batch still above x (capped by denominator);
            # the next loop turn flips direction on its own.
            k_cap = (N - hi_q) // lo_q
            k = _max_k(lambda k: cmp(k * lo_a + hi_a, k * lo_q + hi_q) < 0, k_cap)
            hi_a, hi_q = k * lo_a + hi_a, k * lo_q + hi_q
        else:
            # x > mediant: right steps lo_k = (lo + k*hi) increase toward hi
            k_cap = (N - lo_q) // hi_q
            k = _max_k(lambda k: cmp(lo_a + k * hi_a, lo_q + k * hi_q) > 0, k_cap)
            lo_a, lo_q = lo_a + k * hi_a, lo_q + k * hi_q
    return _checked_bracket(expr, inexact, N, pair=((lo_a, lo_q), (hi_a, hi_q)))


def bracket_offsets(x: AlphaLike, bracket: FareyBracket) -> tuple[Fraction, Fraction]:
    """The offsets A = q1*x - a1 and C = a2 - q2*x of x from its Farey
    neighbors a1/q1 < x < a2/q2, as exact fractions.  An irrational x is
    resolved to 96 bits."""
    expr, _ = coerce_alpha(x)
    xf = expr.as_fraction() if expr.is_rational else expr.eval_fraction(96)
    lower, upper = bracket.lower, bracket.upper
    return lower.q * xf - lower.a, upper.a - upper.q * xf


def _max_k(pred, k_cap: int) -> int:
    """Largest k in [1, k_cap] satisfying a monotone predicate (pred(1) holds)."""
    if k_cap <= 1 or pred(k_cap):
        return max(k_cap, 1)
    lo, hi = 1, k_cap  # pred(lo) true, pred(hi) false
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _checked_bracket(expr, inexact, N, exact=None, pair=None) -> FareyBracket:
    if exact is not None:
        a, q = exact
        return FareyBracket(order=N, exact=FareyFraction(a=a, q=q))
    (a1, q1), (a2, q2) = pair
    if inexact:
        x = expr.as_fraction()
        if min(x - Fraction(a1, q1), Fraction(a2, q2) - x) < GUARD_BAND:
            raise AmbiguousValueError(
                f"input is within {GUARD_BAND:.3g} of a Farey fraction of order {N} "
                "but not exactly equal; supply it as an exact rational or surd"
            )
    return FareyBracket(
        order=N,
        lower=FareyFraction(a=a1, q=q1),
        upper=FareyFraction(a=a2, q=q2),
    )


# ---------------------------------------------------------------------------
# Farey sequence enumeration
# ---------------------------------------------------------------------------


def farey_successor(frac: FareyFraction, N: int) -> FareyFraction:
    """The next element of F(N) after ``frac`` (which must belong to F(N))."""
    if frac.q > N:
        raise DomainError(f"{frac} is not in F({N})")
    if frac.a == frac.q == 1:
        raise DomainError("1/1 has no successor")
    if frac.q == 1:  # 0/1
        return FareyFraction(a=1, q=N)
    r = (-mod_inverse(frac.a, frac.q)) % frac.q
    # unique q' in (N - q, N] congruent to r mod q
    q2 = N - (N - r) % frac.q
    a2 = (1 + frac.a * q2) // frac.q
    return FareyFraction(a=a2, q=q2)


def _farey_pair_ints(N: int, a: AlphaLike, b: AlphaLike) -> Iterator[tuple[int, int, int, int]]:
    """Raw (a1, q1, a2, q2) consecutive pairs of F(N) with arcs meeting (a, b).

    After locating the first pair, continues with the two-term recurrence
    (O(1) integer work per arc)."""
    a_f = alpha_float(a) if a != 0 else 0.0
    b_f = alpha_float(b) if b != 1 else 1.0
    if not 0.0 <= a_f < b_f <= 1.0:
        raise DomainError(f"invalid range [{a_f}, {b_f}]")
    if a_f == 0.0:
        a1, q1 = 0, 1
        a2, q2 = 1, N
    else:
        bracket = farey_neighbors(a, N, guard=False)
        lower = bracket.exact if bracket.is_exact else bracket.lower
        succ = farey_successor(lower, N)
        a1, q1, a2, q2 = lower.a, lower.q, succ.a, succ.q
    while True:
        yield a1, q1, a2, q2
        if a2 >= b_f * q2 or (a2, q2) == (1, 1):
            break
        k = (N + q1) // q2
        a1, q1, a2, q2 = a2, q2, k * a2 - a1, k * q2 - q1


#: candidate fractions a1/q1 per block of :func:`farey_arc_blocks`
_ARC_BLOCK = 1 << 13


def farey_arc_blocks(
    N: int, a: AlphaLike = 0, b: AlphaLike = 1
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The arcs of :func:`_farey_pair_ints` as int64 arrays (a1, q1, a2, q2),
    a block of q1 rows at a time, each arc once, ordered by rows rather
    than along [0, 1].

    Row q1 holds the a1 from the walk's first arc up to the last start
    a1 < b*q1 the walk passes (compared in floats, as the walk does); the
    coprime a1 start an arc, whose end has q2 = -a1^-1 mod q1 in
    (N - q1, N] and a2 = (1 + a1*q2)/q1.  The inverses come from one
    extended Euclid over the whole block.
    """
    if not 1 <= N < 2**31:  # the Euclid runs in int32
        raise DomainError(f"Farey order must lie in [1, 2**31), got {N}")
    first_a, first_q = next(_farey_pair_ints(N, a, b))[:2]
    b_f = alpha_float(b) if b != 1 else 1.0
    rows = np.arange(1, N + 1, dtype=np.int64)
    lo = -((-first_a * rows) // first_q)
    hi = np.minimum(np.ceil(b_f * rows).astype(np.int64) - 1, rows - 1)
    counts = np.maximum(hi - lo + 1, 0)
    ends = np.cumsum(counts)
    r = 0
    while r < N:
        r_end = max(r + 1, int(np.searchsorted(ends, ends[r] - counts[r] + _ARC_BLOCK, "right")))
        n = counts[r:r_end]
        q1 = np.repeat(rows[r:r_end], n)
        a1 = np.arange(q1.size, dtype=np.int64) + np.repeat(lo[r:r_end] - (np.cumsum(n) - n), n)
        g, s = _gcd_and_cofactor(a1.astype(np.int32), q1.astype(np.int32))
        keep = g == 1
        a1, q1 = a1[keep], q1[keep]
        q2 = N - (N + s[keep].astype(np.int64)) % q1
        yield a1, q1, (1 + a1 * q2) // q1, q2
        r = r_end


def _gcd_and_cofactor(u: np.ndarray, m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise g = gcd(u, m) and s with s*u == g (mod m), for
    0 <= u < m, by the extended Euclid on the whole arrays at once.

    An element that has ended, (r0, r1) = (g, 0), swaps to (0, g) and back
    on every further step (k = 0 under numpy's integer x // 0 == 0); the
    loop ends once no element has both remainders nonzero.
    """
    r0, r1, s0, s1 = m, u, np.zeros_like(m), np.ones_like(m)
    with np.errstate(divide="ignore"):
        while np.logical_and(r0, r1).any():
            k = r0 // r1
            r0, r1, s0, s1 = r1, r0 - k * r1, s1, s0 - k * s1
    ended = r1 == 0
    return np.where(ended, r0, r1), np.where(ended, s0, s1)

