#!/usr/bin/env python3
"""The gapscope benchmark.

    python3 perfbench/run.py --workload orbit-scale --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from ``src/``
there, never from an installed copy.  One process, one client, a closed
loop: each op is a ``gapscope`` command line run in-process through the
CLI entry point, the next one starting when the previous one returns.  Ops
come in whole cycles of a fixed class mix until ``--seconds`` of op time
have been measured.  Every op's output is checked outside its timing.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs each op
once through the CLI and once as a traced replay of its library calls and
prints the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

# The benchmark's own modules (inputs, cliops, replay) import numpy and
# click, gapscope's dependencies, so they are imported inside functions,
# after use_checkout_src has timed the import of gapscope.
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPS = 5

END_TO_END = {
    "setup_s": "s",
    "work_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}

def use_checkout_src() -> float:
    """Put the checkout's ``src`` first on the path and import the package
    from it; returns the import time.  Exits with status 2 when the
    checkout has no sources."""
    src = ROOT / "src"
    if not (src / "gapscope" / "__init__.py").is_file():
        sys.exit(f"perfbench: no gapscope sources under {src}; run from a full checkout")
    sys.path.insert(0, str(src))
    t0 = time.process_time()
    import gapscope
    import gapscope.cli  # noqa: F401
    seconds = time.process_time() - t0
    if Path(gapscope.__file__).resolve().parent != src / "gapscope":
        sys.exit(f"perfbench: imported gapscope from {gapscope.__file__}, not {src}")
    return seconds


def set_up(workload: str, seed: int, workdir: Path, span=None):
    """Draw the inputs, write the spec files and run the warm-up ops."""
    from cliops import run_cli
    from inputs import generate

    t0 = time.process_time()
    inputs = generate(workload, seed, span)
    inputs.write_specs(workdir)
    for op in inputs.warmup:
        run_cli(op)
    return inputs, time.process_time() - t0


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples above it, and which
    percentile that is (the largest sample when there are fewer than 11)."""
    lat = sorted(latencies)
    n = len(lat)
    if n < 11:
        return lat[-1], 100.0
    return lat[n - 11], 100.0 * (n - 10) / n


def done_units(op, res) -> int:
    """The op's work units, or none when it stopped on an error before
    doing its work (a ``verify forest`` that raises DegenerateOrbitError)."""
    return 0 if res.error else op.units


def measure(inputs, seconds: float, between=lambda: None, marks: int = 0):
    """Whole cycles until ``seconds`` of op time, calling ``between`` after
    the cycles that reach 1/marks, 2/marks, ... of it.  Returns the op
    records, each cycle's work units per second, the op time and the work
    units done."""
    from cliops import check, run_cli

    records = []
    rates = []
    measured = done = 0.0
    due = [seconds * k / marks for k in range(1, marks + 1)]
    while measured < seconds:
        units = busy = 0.0
        for op in inputs.cycles[len(rates) % len(inputs.cycles)]:
            res = run_cli(op)
            busy += res.seconds
            units += done_units(op, res)
            records.append((op, res.seconds, check(op, res)))
        measured += busy
        done += units
        rates.append(units / busy)
        while due and measured >= due[0]:
            due.pop(0)
            between()
    return records, rates, measured, done


def measure_traced(inputs, seconds: float, tracer):
    """Each op through the CLI and as a traced replay, alternating which
    goes first; returns the per-layer metrics and the CLI records."""
    from cliops import check, run_cli
    from replay import per_layer, replay

    records = []
    untraced = traced = probe = 0.0
    mismatches = 0
    cycles = 0
    while untraced + traced < seconds:
        for op in inputs.cycles[cycles % len(inputs.cycles)]:
            op_id = len(records)
            if op_id % 2:
                t_s, p_s, out, err = replay(tracer, op, op_id)
                res = run_cli(op)
            else:
                res = run_cli(op)
                t_s, p_s, out, err = replay(tracer, op, op_id)
            untraced += res.seconds
            traced += t_s
            probe += p_s
            verdict = check(op, res, span=tracer.span)
            records.append((op, res.seconds, verdict))
            mismatches += _replay_differs(op, res, out, err)
        cycles += 1
    failed = sum(1 for _, _, v in records if not v.ok)
    excess = sum(v.excess for _, _, v in records)
    metrics = per_layer(tracer, len(records), untraced, traced, probe, failed, excess, mismatches)
    return metrics, records, cycles


def _replay_differs(op, res, out: str, err: str) -> bool:
    """Whether the replay came to another result than the command."""
    if op.argv[0] == "verify":
        try:
            status = json.loads(res.out)["status"]
        except (ValueError, KeyError):
            status = None
        return status != (out or None)
    if res.code != 0 or err:
        return (res.code != 0) != bool(err)
    return out != res.out


def _by_class(records) -> dict[str, list[float]]:
    classes: dict[str, list[float]] = {}
    for op, sec, _ in records:
        classes.setdefault(op.label, []).append(sec)
    return classes


def environment(inputs) -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    classes = {}
    for cycle in inputs.cycles:
        for op in cycle:
            classes.setdefault(op.label, []).append(op.units)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "seed": inputs.seed,
        "work_unit": inputs.unit,
        "work_units_per_op": classes,
    }


def summarize(records, correct_inputs: bool) -> tuple[dict, list[str]]:
    """attempted/failed/correct and one line per failing op class and kind
    of failure.  Only a failure that is its op's known symptom keeps the
    run correct."""
    failed = [(op, v) for op, _, v in records if not v.ok]
    counts = Counter((op.label, v.known) for op, v in failed)
    first = {}
    for op, v in failed:
        first.setdefault((op.label, v.known), v)
    lines = [f"  failed x{counts[key]} [{'known defect' if key[1] else 'UNEXPECTED'}] "
             f"{key[0]}: {v.reason}" for key, v in first.items()]
    head = {
        "correct": correct_inputs and all(v.known for _, v in failed),
        "attempted": len(records),
        "failed": len(failed),
    }
    return head, lines


def main(argv=None) -> int:
    import_s = use_checkout_src()
    from inputs import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        os.chdir(tmp)  # spec files are named relative to here in the op command lines
        try:
            if args.trace:
                return _run_traced(args)
            return _run(args, import_s)
        finally:
            os.chdir(home)


def _run(args, import_s: float) -> int:
    # One set-up before the ops and the others spread over the run, so that
    # their median sees the same host speed as the ops do.
    setups = [set_up(args.workload, args.seed, Path.cwd())]
    inputs = setups[0][0]
    t0 = time.perf_counter()
    records, rates, measured, done = measure(
        inputs, args.seconds, lambda: setups.append(set_up(args.workload, args.seed, Path.cwd())),
        SETUP_REPS - 1)
    wall = time.perf_counter() - t0
    same = len({json.dumps(s[0].describe(), sort_keys=True) for s in setups}) == 1
    setup_s = import_s + statistics.median(s[1] for s in setups)
    latencies = [sec * 1000.0 for _, sec, _ in records]
    tail_ms, tail_pct = tail(latencies)
    metrics = {
        "setup_s": setup_s,
        "work_per_s": statistics.median(rates),
        "op_p50_ms": statistics.median(latencies),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    head, fail_lines = summarize(records, same)
    n = len(records)
    print(f"workload {args.workload} seed {args.seed}: {n} ops in {len(rates)} cycles, "
          f"{measured:.3f} s of op CPU time in {wall:.3f} s wall with {SETUP_REPS - 1} set-ups, "
          f"closed loop, 1 client")
    print(f"  setup_s      {setup_s:.4f} s  (import {import_s:.4f} s + median of {SETUP_REPS} set-ups"
          f"{'' if same else '; SET-UPS DREW DIFFERENT INPUTS'}, spread over the run)")
    print(f"  work_per_s   {metrics['work_per_s']:.1f} 1/s  (median over cycles, {min(rates):.1f} to "
          f"{max(rates):.1f}; {done:.0f} {inputs.unit} done in all)")
    print(f"  op_p50_ms    {metrics['op_p50_ms']:.3f} ms  ({n} samples)")
    print(f"  op_tail_ms   {tail_ms:.3f} ms  (p{tail_pct:.1f} of {n} samples"
          f"{', 10 above it' if n > 10 else ', the largest: fewer than 11 samples'})")
    print(f"  failed_share {head['failed'] / n:.4f}  ({head['failed']} of {n} ops failed)")
    print(f"  peak_rss_mb  {metrics['peak_rss_mb']:.1f} MB  (the whole run)")
    for label, secs in _by_class(records).items():
        print(f"    {label:44s} x{len(secs):<4d} p50 {statistics.median(secs) * 1000:10.3f} ms")
    _finish(head, fail_lines, inputs, {k: (v, END_TO_END[k]) for k, v in metrics.items()})
    return 0


def _run_traced(args) -> int:
    from replay import PER_LAYER, Tracer

    tracer = Tracer()
    inputs, _ = set_up(args.workload, args.seed, Path.cwd(), span=tracer.span)
    metrics, records, cycles = measure_traced(inputs, args.seconds, tracer)
    head, fail_lines = summarize(records, True)
    out_dir = ROOT / ".perfbench-trace"
    out_dir.mkdir(exist_ok=True)
    spans_path = out_dir / f"{args.workload}-seed{args.seed}.jsonl"
    tracer.write(spans_path)
    print(f"workload {args.workload} seed {args.seed}: traced run, {len(records)} ops in "
          f"{cycles} cycles, {len(tracer.spans)} spans written to {spans_path.relative_to(ROOT)}")
    for name, value in metrics.items():
        unit, what = PER_LAYER[name]
        print(f"  {name:34s} {value:14.6g} {unit:9s} {what}")
    _finish(head, fail_lines, inputs, {k: (v, PER_LAYER[k][0]) for k, v in metrics.items()})
    return 0


def _finish(head: dict, fail_lines: list[str], inputs, metrics: dict) -> None:
    """The failing classes, the environment and inputs, and the result line."""
    for line in fail_lines:
        print(line)
    print(json.dumps({"environment": environment(inputs), "inputs": inputs.describe()},
                     sort_keys=True))
    head["metrics"] = {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}
    print(json.dumps(head))


if __name__ == "__main__":
    sys.exit(main())
