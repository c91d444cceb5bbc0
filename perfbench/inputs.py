"""Seeded inputs and op cycles for the benchmark workloads.

Everything here is derived from ``(workload, seed)`` with numpy's PCG64, so
the same seed gives the same inputs.  Rotation numbers are quadratic surds
written as exact CLI strings; random IETs get exact decimal lengths that
sum to 1 and a uniformly drawn irreducible permutation without fake
breakpoints.  Random maps whose orbit does not separate their
discontinuities, or that fail ``Iet.keane_check``, are rejected here,
during set-up, so no op spends its time on a map outside the hypotheses.

An op is one ``gapscope`` command line.  Every cycle of a workload has the
same op classes; the seed picks the surds, maps, z grids and windows, never
the class mix, so runs with different seeds measure the same kind of work.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import dataclass, field
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import numpy as np

#: every generated IET is Keane-certified to this depth, the largest orbit
#: length of the graph-verify ops (the verifiers certify at max(N, 1000))
KEANE_DEPTH = 20_000

#: shortest interval of a generated IET, as in the library's random_iet
MIN_LENGTH = 1e-3

#: orbit length at which every generated IET's orbit of 0 must separate the
#: discontinuities (the smallest N of the graph-verify ops)
SEPARATION_N = 1000

#: distinct cycles per workload, each with its own surds, z grids and
#: windows; a run goes through them in order
CYCLES = 8

#: random maps drawn per workload; cycle c uses map c mod IET_POOL
IET_POOL = 4

DEMO_IET = {
    "lengths": ["sqrt(1/3)", "sqrt(1/2) - sqrt(1/3)", "1 - sqrt(1/2)"],
    "permutation": [3, 2, 1],
}


@dataclass(frozen=True)
class Op:
    """One CLI invocation with what its output check needs.

    ``units`` is the op's work in its workload's unit; ``known_defect``
    marks op classes that fail at this size for a reason the project
    already tracks (float clustering of rotation orbits at N >= 10^4).
    Their failures are counted; the output check excuses only that
    defect's own symptom, so any other failure makes the run incorrect.
    """

    label: str
    argv: tuple[str, ...]
    units: int
    params: dict = field(default_factory=dict)
    known_defect: bool = False


@dataclass(frozen=True)
class Inputs:
    workload: str
    unit: str  # what one work unit is
    seed: int
    specs: dict  # file name -> IET spec (lengths as exact strings, permutation)
    surds: tuple[str, ...]
    cycles: tuple[tuple[Op, ...], ...]
    warmup: tuple[Op, ...]
    keane: dict  # counts of maps tried and certified while drawing

    def describe(self) -> dict:
        """JSON-ready record of the generated inputs (paths left relative)."""
        return {
            "workload": self.workload,
            "seed": self.seed,
            "work_unit": self.unit,
            "surds": list(self.surds),
            "iet_specs": self.specs,
            "keane": self.keane,
            "cycles": [[" ".join(op.argv) for op in cyc] for cyc in self.cycles],
        }

    def write_specs(self, directory: Path) -> None:
        for name, spec in self.specs.items():
            (directory / name).write_text(json.dumps(spec, sort_keys=True))


# ---------------------------------------------------------------------------
# Drawing inputs
# ---------------------------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([zlib.crc32(workload.encode()), seed])


def draw_surd(rng: np.random.Generator) -> str:
    """A quadratic surd in (0, 1): sqrt(p/q) with p*q not a square, or the
    fractional part sqrt(m) - floor(sqrt(m)) of an irrational root."""
    while True:
        if rng.random() < 0.5:
            q = int(rng.integers(2, 40))
            p = int(rng.integers(1, q))
            if math.gcd(p, q) == 1 and math.isqrt(p * q) ** 2 != p * q:
                return f"sqrt({p}/{q})"
        else:
            m = int(rng.integers(2, 200))
            r = math.isqrt(m)
            if r * r != m:
                return f"sqrt({m}) - {r}"


def _irreducible(perm) -> bool:
    return all(set(perm[:k]) != set(range(1, k + 1)) for k in range(1, len(perm)))


def _genuine(perm) -> bool:
    """No adjacent intervals kept adjacent and in order, by the map or its
    inverse (a fake breakpoint would make it a smaller exchange)."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p - 1] = i + 1
    return all(perm[k] - perm[k - 1] != 1 and inv[k] - inv[k - 1] != 1 for k in range(1, len(perm)))


def draw_iet_spec(rng: np.random.Generator, d: int) -> dict:
    """Lengths from the uniform simplex floored at MIN_LENGTH, written as
    12-digit decimals with the last one closing the sum to exactly 1."""
    while True:
        lam = rng.dirichlet(np.ones(d))
        if lam.min() >= MIN_LENGTH:
            break
    digits = [Decimal(f"{v:.12f}") for v in lam[:-1]]
    lengths = [str(v) for v in digits] + [str(Decimal(1) - sum(digits))]
    while True:
        perm = [int(v) for v in rng.permutation(np.arange(1, d + 1))]
        if _irreducible(perm) and _genuine(perm):
            return {"lengths": lengths, "permutation": perm}


def spec_to_iet(spec: dict):
    from gapscope import Iet

    return Iet.new(spec["lengths"], spec["permutation"])


def separated(T, N: int = SEPARATION_N) -> bool:
    """Whether the first N orbit points of 0 fall in every interval of the
    map and of its inverse, so that no gap holds two discontinuities of
    either.  The graph constructions require this; without it ``verify
    forest`` raises DegenerateOrbitError by design."""
    from gapscope import orbit

    pts = orbit(T, N)
    return all(np.histogram(pts, bins=cuts)[0].min() > 0 for cuts in (T.beta, T.alpha))


def certified_iets(rng, dims, tally: dict, span) -> list[dict]:
    """One random spec per entry of ``dims`` whose orbit separates the
    discontinuities at SEPARATION_N and that passes the Keane check."""
    out = []
    for d in dims:
        while True:
            spec = draw_iet_spec(rng, d)
            T = spec_to_iet(spec)
            tally["tried"] += 1
            if not separated(T):
                continue
            with span("iet.keane", steps=(d - 1) * KEANE_DEPTH) as rec:
                ok = T.keane_check(depth=KEANE_DEPTH).satisfied
                rec["certified"] = int(ok)
            if ok:
                tally["certified"] += 1
                out.append(spec)
                break
    return out


def z_grid(rng: np.random.Generator, count: int) -> tuple[str, list[float]]:
    """A START:STOP:STEP grid of ``count`` thresholds running from below 1
    to above 2, and the z values the CLI derives from it."""
    start = Fraction(int(rng.integers(150, 600)), 1000)
    end = Fraction(int(rng.integers(2200, 2800)), 1000)
    step = Fraction(round((end - start) / (count - 1) * 10_000), 10_000)
    stop = start + (count - 1) * step
    text = f"{_dec(start)}:{_dec(stop)}:{_dec(step)}"
    return text, [round(float(start) + k * float(step), 12) for k in range(count)]


def _dec(x: Fraction) -> str:
    return str(Decimal(x.numerator) / Decimal(x.denominator))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


def _null_span(*_args, **_kwargs):
    from contextlib import nullcontext

    return nullcontext({})


def generate(workload: str, seed: int, span=None) -> Inputs:
    """The inputs and op cycles of ``workload`` for ``seed``.  ``span``
    records the Keane checks when the caller traces set-up."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(WORKLOADS)}")
    rng = _rng(workload, seed)
    tally = {"tried": 0, "certified": 0}
    return WORKLOADS[workload](rng, seed, tally, span or _null_span)


def farey_arcs(N: int, a: float, b: float) -> int:
    """Consecutive pairs a1/q1 < a2/q2 of F(N) with a2/q2 > a and
    a1/q1 < b: the arcs the exact average visits for each z.  Counted with
    integers here, independently of the library's enumerator; a and b are
    multiples of 1/1000."""
    lo, hi = round(a * 1000), round(b * 1000)
    a1, q1, a2, q2 = 0, 1, 1, N
    count = 0
    while 1000 * a1 < hi * q1:
        if 1000 * a2 > lo * q2:
            count += 1
        if a2 == q2:
            break
        k = (N + q1) // q2
        a1, q1, a2, q2 = a2, q2, k * a2 - a1, k * q2 - q1
    return count


def exact_op(N: int, grid: str, zs: list[float], a: float = 0.0, b: float = 1.0,
             check_z: float | None = None) -> Op:
    argv = ("dist", "--z-grid", grid, "--n", str(N))
    if (a, b) != (0.0, 1.0):
        argv += ("--range", f"{a},{b}")
    window = "full" if (a, b) == (0.0, 1.0) else f"width={round(b - a, 3)}"
    return Op(f"dist exact N={N} {window} z={len(zs)}", argv, farey_arcs(N, a, b) * len(zs),
              dict(N=N, z=zs, range=f"{a},{b}", check_z=check_z))


def gaps_op(N: int, alpha: str | None = None, spec: str | None = None, pi=None,
            fmt: str = "json") -> Op:
    src = ("--alpha", alpha) if alpha is not None else ("--iet", spec)
    argv = ("gaps", *src, "--n", str(N)) + (("--format", fmt) if fmt != "json" else ())
    kind = "rotation" if alpha is not None else "iet"
    return Op(f"gaps {kind} N={N} {fmt}", argv, N,
              dict(N=N, alpha=alpha, spec=spec, pi=pi, fmt=fmt),
              known_defect=alpha is not None and N >= 10_000)


def verify_op(check: str, N: int, spec: str | None = None, alpha: str | None = None) -> Op:
    src = ("--alpha", alpha) if alpha is not None else ("--iet", spec)
    kind = "rotation" if alpha is not None else "iet"
    return Op(f"verify {check} {kind} N={N}", ("verify", check, *src, "--n", str(N)), N,
              dict(N=N, check=check, alpha=alpha, spec=spec),
              known_defect=alpha is not None and N >= 10_000)


def _dist_exact(rng, seed, tally, span) -> Inputs:
    # Op classes with about equal work (arcs x z ~ 2e5), so latency
    # percentiles do not hinge on where a class boundary falls.  Windows of
    # partial ops are seed-placed; their widths are fixed.
    classes = [(400, None, 4), (200, None, 16), (400, 0.25, 16), (200, 0.5, 32)]
    cycles = []
    for _ in range(CYCLES):
        ops = []
        for N, width, nz in classes:
            grid, zs = z_grid(rng, nz)
            if width is None:
                ops.append(exact_op(N, grid, zs, check_z=zs[int(rng.integers(0, nz))]))
            else:
                a = int(rng.integers(0, round((1 - width) * 1000) + 1)) / 1000
                ops.append(exact_op(N, grid, zs, a, round(a + width, 3)))
        cycles.append(tuple(ops))
    grid, zs = z_grid(rng, 4)
    return Inputs("dist-exact", "arc x z evaluations", seed, {}, (), tuple(cycles),
                  (exact_op(40, grid, zs),), tally)


def _orbit_scale(rng, seed, tally, span) -> Inputs:
    surds = tuple(draw_surd(rng) for _ in range(2 * CYCLES))
    dims = [3 + i % 3 for i in range(IET_POOL)]
    specs = {f"orbit-{i}.json": s for i, s in enumerate(certified_iets(rng, dims, tally, span))}
    names = sorted(specs)
    cycles = []
    for c in range(CYCLES):
        # Two surds per cycle.  Two N = 10^6 ops keep the tail inside that
        # class and two rotation ops at 10^5 keep the median inside theirs,
        # however many cycles a run completes.
        alpha, beta = surds[2 * c], surds[2 * c + 1]
        name = names[c % len(names)]
        pi = specs[name]["permutation"]
        cycles.append((
            gaps_op(10_000, alpha=alpha),
            gaps_op(100_000, alpha=alpha),
            gaps_op(100_000, alpha=beta),
            gaps_op(1_000_000, alpha=alpha, fmt="text"),
            gaps_op(1_000_000, alpha=beta, fmt="text"),
            gaps_op(10_000, spec=name, pi=pi),
            gaps_op(100_000, spec=name, pi=pi),
        ))
    warm = (gaps_op(1000, alpha=surds[0]), gaps_op(1000, spec=names[0], pi=specs[names[0]]["permutation"]))
    return Inputs("orbit-scale", "orbit points", seed, specs, surds, tuple(cycles), warm, tally)


def _graph_verify(rng, seed, tally, span) -> Inputs:
    surds = tuple(draw_surd(rng) for _ in range(CYCLES))
    specs = {f"graph-{i}.json": s for i, s in enumerate(certified_iets(rng, [3, 4, 5, 6], tally, span))}
    specs["graph-demo.json"] = DEMO_IET
    names = sorted(specs)
    # The class weights put the median op inside the bosh/forest group at
    # N = 10^4 and the tail inside the one at N = 2*10^4, whichever way the
    # rotation defects fall for the seed's surds (a forest op that raises
    # early is four times faster than one that runs).
    slots = ([(1000, "dplus2"), (1000, "bosh"), (1000, "forest"), (10_000, "dplus2"), (20_000, "dplus2")]
             + [(10_000, "bosh"), (10_000, "forest")] * 3 + [(20_000, "bosh"), (20_000, "forest")] * 2)
    cycles = []
    for c, alpha in enumerate(surds):
        # the maps rotate through the slots from one cycle to the next
        ops = [verify_op(check, N, spec=names[(c + k) % len(names)]) for k, (N, check) in enumerate(slots)]
        ops += [verify_op(check, N, alpha=alpha) for N in (1000, 10_000) for check in ("bosh", "forest")]
        cycles.append(tuple(ops))
    warm = tuple(verify_op(check, 1000, spec=names[0]) for check in ("dplus2", "bosh", "forest"))
    return Inputs("graph-verify", "gap-graph vertices (N per op)", seed, specs, surds,
                  tuple(cycles), warm, tally)


WORKLOADS = {
    "dist-exact": _dist_exact,
    "orbit-scale": _orbit_scale,
    "graph-verify": _graph_verify,
}
