"""Running one op through the ``gapscope`` CLI in this process, and checking
its output against independent oracles outside the timed region.

Op time is the process's CPU time (user and system) from ``CLOCK``.  The
ops are single-threaded and do no I/O, so on an unshared core it equals
their wall time; on a shared host it leaves out the time the core served
other tenants, which would otherwise dominate the run-to-run spread.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import time
from dataclasses import dataclass

import click

from inputs import Op

CLOCK = time.process_time

#: The one buffer every op prints into.  click caches the stream it writes
#: to for as long as that stream lives, and the cache entry keeps it alive,
#: so a new buffer per op would never be freed.
_OUT = io.StringIO()


@dataclass
class Result:
    """What one op produced: its CPU time, exit code and standard output,
    or the message of the error it stopped with."""

    seconds: float
    code: int
    out: str
    error: str = ""


def run_cli(op: Op) -> Result:
    """Invoke ``gapscope <argv>`` as the console script would, with click's
    own exit handling replaced by returning the exit code."""
    from gapscope.cli import main

    _OUT.seek(0)
    _OUT.truncate()
    error = ""
    t0 = CLOCK()
    try:
        with contextlib.redirect_stdout(_OUT):
            main.main(args=list(op.argv), prog_name="gapscope", standalone_mode=False)
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except click.exceptions.Exit as exc:
        code = exc.exit_code
    except click.ClickException as exc:
        code, error = exc.exit_code, exc.format_message()
    except Exception as exc:  # an uncaught error is a failed op, not a harness crash
        code, error = 1, f"{type(exc).__name__}: {exc}"
    seconds = CLOCK() - t0
    return Result(seconds, code, _OUT.getvalue(), error)


@dataclass
class Verdict:
    """``known`` marks a failure that is the tracked symptom of its op's
    known defect (see ``Op.known_defect``); any other failure is not."""

    ok: bool
    reason: str = ""
    excess: int = 0  # distinct lengths beyond what the theorem or bound allows
    known: bool = False


#: the message of the DegenerateOrbitError ``verify forest`` reports, as the
#: CLI prints it (it turns the library error into a usage error, exit 2)
DEGENERATE_ORBIT = "orbit too short to separate discontinuities"


def check(op: Op, res: Result, span=None) -> Verdict:
    """Check one op's output.  ``span`` (a tracer's span factory) times the
    oracle calls in a traced run."""
    span = span or (lambda *a, **k: contextlib.nullcontext({}))
    if op.argv[0] == "verify" and res.code in (0, 1) and not res.error:
        pass  # exit 1 is the command's own verdict "fail", read from its output
    elif res.code != 0:
        known = (op.known_defect and op.params.get("check") == "forest"
                 and res.code == 2 and DEGENERATE_ORBIT in res.error)
        return Verdict(False, f"exit {res.code}: {' '.join((res.error or res.out).split())[:240]}",
                       known=known)
    try:
        if op.argv[0] == "gaps":
            return _check_gaps(op, res.out, span)
        if op.argv[0] == "dist":
            return _check_dist(op, res.out)
        return _check_verify(op, res)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return Verdict(False, f"unreadable output: {type(exc).__name__}: {exc}")


def _parse_gaps(op: Op, out: str) -> tuple[list[float], list[int], float | None]:
    """Cluster lengths and counts in length order, and the gap sum when it
    is printed."""
    if op.params["fmt"] == "text":
        lines = out.strip().splitlines()
        fields = [dict(f.split("=", 1) for f in line.split()) for line in lines[1:]]
        return [float(f["length"]) for f in fields], [int(f["count"]) for f in fields], None
    data = json.loads(out)
    clusters = data["clusters"]
    return ([float(c["length"]) for c in clusters], [c["count"] for c in clusters],
            math.fsum(data["gaps"]))


def _check_gaps(op: Op, out: str, span) -> Verdict:
    from gapscope import dplus2_bound

    lengths, counts, gap_sum = _parse_gaps(op, out)
    N = op.params["N"]
    if gap_sum is not None and abs(gap_sum - 1.0) > 1e-9:
        return Verdict(False, f"gap sum {gap_sum!r}")
    if op.params["alpha"] is not None:
        return _check_rotation(op, lengths, counts, span)
    pi = op.params["pi"]
    d = len(pi)
    allowed = min(dplus2_bound(pi), 3 * (d - 1))
    excess = max(0, len(counts) - allowed)
    if excess:
        return Verdict(False, f"{len(counts)} distinct lengths, bounds allow {allowed}", excess)
    if sum(counts) > N:
        return Verdict(False, f"{sum(counts)} gaps for N={N}")
    return Verdict(True)


def _check_rotation(op: Op, lengths: list[float], counts: list[int], span) -> Verdict:
    """Every cluster must lie at one of the three-gap lengths, and the
    clusters at each length must add up to its exact count.  More clusters
    than lengths then means float noise split a length: that is the known
    defect of rotation orbits at N >= 10^4, and the only failure it excuses."""
    from gapscope import three_gap_predict

    N = op.params["N"]
    with span("gaps.predict", check=True):
        pred = three_gap_predict(op.params["alpha"], N)
    predicted = sorted((length, count) for length, count in zip(pred.lengths, pred.counts) if count > 0)
    expected = [c for _, c in predicted]
    excess = max(0, len(counts) - len(expected))
    # {n alpha} for n < N is computed in doubles, so each gap is off by a
    # few ulps of N; the predicted lengths lie much farther apart than this
    tol = 4 * N * 2.0 ** -53
    grouped = [0] * len(predicted)
    for length, count in zip(lengths, counts):
        k = min(range(len(predicted)), key=lambda i: abs(predicted[i][0] - length))
        if abs(predicted[k][0] - length) > tol:
            return Verdict(False, f"cluster length {length!r} is none of the three-gap lengths "
                                  f"{[x for x, _ in predicted]}", excess)
        grouped[k] += count
    if grouped != expected:
        return Verdict(False, f"cluster counts {counts[:6]}{'...' if len(counts) > 6 else ''} add up "
                              f"to {grouped} per three-gap length, which predicts {expected}", excess)
    if len(counts) != len(expected):
        return Verdict(False, f"{len(counts)} clusters split the three-gap lengths with counts "
                              f"{expected}", excess, known=op.known_defect)
    return Verdict(True)


def _check_dist(op: Op, out: str) -> Verdict:
    from gapscope import arc_cutoff_kernel, farey_arc_sum

    points = json.loads(out)["points"]
    zs = [p["z"] for p in points]
    values = [p["value"] for p in points]
    if len(zs) != len(op.params["z"]) or any(abs(u - v) > 1e-12 for u, v in zip(zs, op.params["z"])):
        return Verdict(False, f"z grid {zs} differs from the requested {op.params['z']}")
    if not all(0.0 <= v <= 1.0 for v in values):
        return Verdict(False, f"values outside [0, 1]: {values}")
    if any(v2 > v1 + 1e-12 for v1, v2 in zip(values, values[1:])):
        return Verdict(False, f"values increase in z: {values}")
    z = op.params.get("check_z")
    if z is not None:
        other = farey_arc_sum(arc_cutoff_kernel(z), op.params["N"])
        got = values[zs.index(z)]
        if abs(other - got) > 1e-9:
            return Verdict(False, f"z={z}: {got!r} vs farey_arc_sum {other!r}")
    return Verdict(True)


def _check_verify(op: Op, res: Result) -> Verdict:
    """Verdict ``pass`` with exit 0.  A ``fail`` with exit 1 is the known
    symptom only for ``bosh`` on a known-defect op."""
    data = json.loads(res.out)
    status = data["status"]
    if status == "pass" and res.code == 0:
        return Verdict(True)
    known = (op.known_defect and op.params["check"] == "bosh" and status == "fail" and res.code == 1)
    return Verdict(False, f"exit {res.code}, {data['check']}: {status} "
                          f"{json.dumps(data['failures'])[:200]}", known=known)
