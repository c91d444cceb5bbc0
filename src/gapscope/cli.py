"""The ``gapscope`` command line: gap reports, three-gap predictions,
zippered-rectangle data, distribution curves, the closed-form limit, gap
graphs, and the verification suites.

Every run is deterministic given its full flag set; JSON output is emitted
with sorted keys, and CSV rows mirror the JSON arrays elementwise.  Exit
status: 0 on success, 1 when a verification reports a mismatch, 2 on input
errors (unknown flags, malformed numbers, invalid spec files).
"""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from . import __version__
from .distribution import (
    iet_curve,
    limit_curve,
    rotation_curve,
    verify_distribution_convergence,
)
from .errors import GapscopeError, ParseError
from .gaps import _mediant_walk, gap_report, three_gap_predict, verify_dplus2, verify_three_gap
from .graphs import (
    boshernitzan_bound_check,
    fgaps_build,
    ggaps_build,
    verify_forest_lengths,
)
from .iet import Iet
from .numerics import parse_surd
from .outcomes import VerificationOutcome
from .zipper import check_gap_zipper_correspondence, zipper_torus

SCHEMA_VERSION = 1


def _parse_alpha(text: str):
    try:
        return parse_surd(text)
    except ParseError as exc:
        raise click.UsageError(str(exc))


def _load_iet(path: str) -> Iet:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise click.UsageError(f"cannot read IET spec {path!r}: {exc}")
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"IET spec {path!r} is not valid JSON: {exc}")
    try:
        perm = data["permutation"]
        if isinstance(perm, dict) and "cycles" in perm:
            return Iet.new(data["lengths"], perm["cycles"], notation="cycles")
        return Iet.new(data["lengths"], perm)
    except (KeyError, TypeError) as exc:
        raise click.UsageError(f"IET spec {path!r} missing lengths/permutation: {exc}")
    except GapscopeError as exc:
        raise click.UsageError(f"invalid IET spec {path!r}: {exc}")


def _require_map(alpha, iet_path) -> Iet:
    if (alpha is None) == (iet_path is None):
        raise click.UsageError("provide exactly one of --alpha or --iet")
    if alpha is not None:
        try:
            return Iet.rotation(_parse_alpha(alpha))
        except GapscopeError as exc:
            raise click.UsageError(str(exc))
    return _load_iet(iet_path)


def _parse_range(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise click.UsageError(f"--range wants A,B, got {text!r}")
    try:
        a, b = float(parse_surd(parts[0].strip()).eval_fraction(64)), float(
            parse_surd(parts[1].strip()).eval_fraction(64)
        )
    except ParseError as exc:
        raise click.UsageError(str(exc))
    if not 0.0 <= a < b <= 1.0:
        raise click.UsageError(f"range [{a}, {b}] must satisfy 0 <= A < B <= 1")
    return a, b


def _parse_z_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise click.UsageError(f"--z-grid wants START:STOP:STEP, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError:
        raise click.UsageError(f"--z-grid wants numeric START:STOP:STEP, got {text!r}")
    if step <= 0 or stop < start:
        raise click.UsageError("--z-grid needs STEP > 0 and STOP >= START")
    out = []
    k = 0
    while True:
        z = start + k * step
        # start + k*step may round a few ulps past the STOP the user typed;
        # 1e-12 keeps that endpoint, and is far below any step one types
        if z > stop + 1e-12:
            break
        out.append(round(z, 12))
        k += 1
    return out


def _dumps(data: dict) -> str:
    """``json.dumps(data, sort_keys=True, indent=2)``, byte for byte, where
    a top-level 1-D int64 or float64 array counts as its ``tolist()``.

    With an indent the stdlib encodes in pure Python, and a gap report's
    three arrays of N numbers would take most of the op.  So each such array
    goes through the C encoder (no indent) and is cut into one item per
    line; a float array is encoded once per distinct bit pattern (an orbit's
    N gaps take a handful of lengths) and the texts are spliced back in
    order.  Every other value takes the stdlib path.
    """
    if not data or not all(type(k) is str for k in data):
        return json.dumps(data, sort_keys=True, indent=2)
    parts = []
    for key in sorted(data):
        value = data[key]
        if type(value) is np.ndarray and value.ndim == 1 and value.dtype in (np.int64, np.float64):
            body = "[\n    " + _flat_items(value) + "\n  ]" if len(value) else "[]"
        else:
            body = json.dumps(value, sort_keys=True, indent=2).replace("\n", "\n  ")
        parts.append(f"{json.dumps(key)}: {body}")
    return "{\n  " + ",\n  ".join(parts) + "\n}"


def _flat_items(arr: np.ndarray) -> str:
    """The items of a 1-D int64 or float64 array as JSON, one per line."""
    if arr.dtype == np.int64:
        return json.dumps(arr.tolist())[1:-1].replace(", ", ",\n    ")
    # keyed on the bit pattern, so -0.0 and 0.0 (equal as floats) stay apart
    keys, inverse = np.unique(arr.view(np.int64), return_inverse=True)
    texts = json.dumps(keys.view(np.float64).tolist())[1:-1].split(", ")
    return ",\n    ".join(np.array(texts, dtype=object)[inverse].tolist())


def _emit(data: dict, fmt: str, csv_rows=None, csv_fields=None, text=None):
    """Print one report in the requested format."""
    if fmt == "json":
        click.echo(_dumps(data))
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=csv_fields, lineterminator="\n")
        writer.writeheader()
        for row in csv_rows:
            writer.writerow(row)
        click.echo(buf.getvalue(), nl=False)
    else:
        click.echo(text)


def _finish_verification(outcome: VerificationOutcome, fmt: str):
    data = outcome.to_json()
    data["schema_version"] = SCHEMA_VERSION
    lines = [f"{outcome.check}: {outcome.status}"]
    for key, value in sorted(outcome.details.items()):
        lines.append(f"  {key}: {value}")
    for f in outcome.failures:
        lines.append(f"  FAILURE {f}")
    _emit(data, fmt, text="\n".join(lines))
    if outcome.status == "fail":
        sys.exit(1)


FORMAT_OPT = click.option(
    "--format", "fmt", type=click.Choice(["json", "csv", "text"]), default="json"
)
#: for reports with no rows to tabulate: click refuses csv before any work
JSON_TEXT_OPT = click.option(
    "--format", "fmt", type=click.Choice(["json", "text"]), default="json"
)
SEED_OPT = click.option("--seed", type=int, default=0, show_default=True)


@click.group()
@click.version_option(version=__version__, prog_name="gapscope")
def main():
    """Gap structures of rotation and interval-exchange orbits."""


@main.command("gaps")
@click.option("--alpha", default=None, help="rotation number (surd grammar)")
@click.option("--iet", "iet_path", default=None, help="IET spec file (JSON)")
@click.option("--n", "n", type=int, required=True)
@click.option("--raw", is_flag=True, help="keep duplicated orbit points and zero gaps")
@FORMAT_OPT
def cmd_gaps(alpha, iet_path, n, raw, fmt):
    """Sorted-orbit gap report with distinct-length clusters."""
    T = _require_map(alpha, iet_path)
    try:
        report = gap_report(T, n, keep_duplicates=raw)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    # build only what the format prints: the JSON holds three arrays of N items
    data = report._json_fields() if fmt == "json" else {}
    if alpha is not None:
        data["alpha"] = _parse_alpha(alpha).to_json()
    rows = [c.to_json() for c in report.clusters] if fmt == "csv" else None
    text = "\n".join(
        [f"N={n} points={report.num_points} distinct={report.distinct_count}"]
        + [f"  length={c.length!r} count={c.count}" for c in report.clusters]
    ) if fmt == "text" else None
    _emit(data, fmt, csv_rows=rows, csv_fields=["length", "count"], text=text)


@main.command("predict")
@click.option("--alpha", required=True, help="rotation number (surd grammar)")
@click.option("--n", "n", type=int, required=True)
@click.option("--sigma", "with_sigma", is_flag=True, help="include the sorting permutation")
@FORMAT_OPT
def cmd_predict(alpha, n, with_sigma, fmt):
    """Three-gap prediction from the Farey bracket of alpha."""
    try:
        pred = three_gap_predict(_parse_alpha(alpha), n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    data = pred.to_json()
    data["alpha"] = _parse_alpha(alpha).to_json()
    if with_sigma and not pred.is_rational:
        data["sigma"] = _mediant_walk(n, pred.lower[1], pred.upper[1])
    if pred.is_rational:
        rows = [{"length": pred.length, "count": pred.q}]
        text = f"rational: {pred.q} gaps of length {pred.length!r}"
    else:
        rows = [
            {"length": l, "count": c}
            for l, c in sorted(zip(pred.lengths, pred.counts))
            if c > 0
        ]
        text = "\n".join(
            [f"generic on arc ({pred.lower[0]}/{pred.lower[1]}, {pred.upper[0]}/{pred.upper[1]})"]
            + [f"  length={l!r} count={c}" for l, c in sorted(zip(pred.lengths, pred.counts)) if c > 0]
        )
    _emit(data, fmt, csv_rows=rows, csv_fields=["length", "count"], text=text)


@main.command("zipper")
@click.option("--alpha", required=True, help="rotation number (surd grammar)")
@click.option("--n", "n", type=int, required=True)
@FORMAT_OPT
def cmd_zipper(alpha, n, fmt):
    """Zippered-rectangle widths and heights for the sheared torus."""
    try:
        zr = zipper_torus(_parse_alpha(alpha), n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    rows = [
        {"index": i + 1, "width": w, "height": h}
        for i, (w, h) in enumerate(zip(zr.widths, zr.heights))
    ]
    text = "\n".join(
        [f"case={zr.case} pi={zr.pi}"]
        + [f"  width={w!r} height={h!r}" for w, h in zip(zr.widths, zr.heights)]
    )
    data = zr.to_json()
    data["alpha"] = _parse_alpha(alpha).to_json()
    _emit(data, fmt, csv_rows=rows, csv_fields=["index", "width", "height"], text=text)


@main.command("dist")
@click.option("--kind", type=click.Choice(["exact", "empirical"]), default="exact")
@click.option("--z", "z_single", type=float, default=None)
@click.option("--z-grid", "z_grid", default=None, help="START:STOP:STEP")
@click.option("--n", "n", type=int, required=True)
@click.option("--range", "range_", default="0,1", show_default=True)
@click.option("--iet", "iet_path", default=None, help="IET spec (empirical kind)")
@click.option("--grid", type=int, default=None, help="alpha grid (empirical kind, default 200)")
@SEED_OPT
@FORMAT_OPT
def cmd_dist(kind, z_single, z_grid, n, range_, iet_path, grid, seed, fmt):
    """Average gap distribution: exact (rotations) or empirical (IET
    compositions).  The closed-form limit is the limit command."""
    if (z_single is None) == (z_grid is None):
        raise click.UsageError("provide exactly one of --z or --z-grid")
    if kind == "exact":
        for flag, value in (("--iet", iet_path), ("--grid", grid)):
            if value is not None:
                raise click.UsageError(f"{flag} applies only to --kind empirical")
    elif iet_path is None:
        raise click.UsageError("--iet is required for kind=empirical")
    z_values = [z_single] if z_single is not None else _parse_z_grid(z_grid)
    a, b = _parse_range(range_)
    try:
        if kind == "empirical":
            grid = 200 if grid is None else grid
            curve = iet_curve(_load_iet(iet_path), z_values, n, grid, a=a, b=b)
        else:
            curve = rotation_curve(z_values, n, a=a, b=b)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    data = curve.to_json()
    data["seed"] = seed
    rows = list(curve.csv_rows())
    text = "\n".join(f"z={r['z']!r} value={r['value']!r}" for r in rows)
    _emit(data, fmt, csv_rows=rows,
          csv_fields=["z", "value", "N", "a", "b", "kind"], text=text)


@main.command("limit")
@click.option("--z", "z_single", type=float, default=None)
@click.option("--z-grid", "z_grid", default=None, help="START:STOP:STEP")
@FORMAT_OPT
def cmd_limit(z_single, z_grid, fmt):
    """The closed-form limiting gap distribution."""
    if (z_single is None) == (z_grid is None):
        raise click.UsageError("provide exactly one of --z or --z-grid")
    z_values = [z_single] if z_single is not None else [
        z for z in _parse_z_grid(z_grid) if z > 0
    ]
    try:
        curve = limit_curve(z_values)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    data = curve.to_json()
    if any(z in (1.0, 2.0) for z in z_values):
        data["boundary_values"] = sorted(z for z in z_values if z in (1.0, 2.0))
    rows = list(curve.csv_rows())
    text = "\n".join(f"z={r['z']!r} value={r['value']!r}" for r in rows)
    _emit(data, fmt, csv_rows=rows,
          csv_fields=["z", "value", "N", "a", "b", "kind"], text=text)


@main.command("graph")
@click.option("--alpha", default=None, help="rotation number (surd grammar)")
@click.option("--iet", "iet_path", default=None, help="IET spec file (JSON)")
@click.option("--n", "n", type=int, required=True)
@click.option("--kind", type=click.Choice(["ggaps", "fgaps"]), default="ggaps")
@JSON_TEXT_OPT
def cmd_graph(alpha, iet_path, n, kind, fmt):
    """Gap digraph or slot forest, as JSON or an edge-list text file."""
    T = _require_map(alpha, iet_path)
    try:
        obj = ggaps_build(T, n) if kind == "ggaps" else fgaps_build(T, n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    # build only what the format prints: either form lists every vertex
    click.echo(_dumps(obj.to_json()) if fmt == "json" else obj.to_edge_list())


@main.group("verify")
def cmd_verify():
    """Verification suites; exit 1 on mismatch."""


@cmd_verify.command("three-gap")
@click.option("--alpha", required=True)
@click.option("--n", "n", type=int, required=True)
@JSON_TEXT_OPT
def verify_three_gap_cmd(alpha, n, fmt):
    """Measured gap report vs the three-gap prediction."""
    try:
        outcome = verify_three_gap(_parse_alpha(alpha), n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


@cmd_verify.command("dplus2")
@click.option("--iet", "iet_path", required=True)
@click.option("--n", "n", type=int, required=True)
@JSON_TEXT_OPT
def verify_dplus2_cmd(iet_path, n, fmt):
    """Distinct-gap-length count vs the d+1 / d+2 and 3(d-1) bounds."""
    T = _load_iet(iet_path)
    try:
        outcome = verify_dplus2(T, n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


@cmd_verify.command("zipper")
@click.option("--alpha", required=True)
@click.option("--n", "n", type=int, required=True)
@JSON_TEXT_OPT
def verify_zipper_cmd(alpha, n, fmt):
    """Gap clusters vs zippered-rectangle width/height pairs."""
    try:
        outcome = check_gap_zipper_correspondence(_parse_alpha(alpha), n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


@cmd_verify.command("bosh")
@click.option("--alpha", default=None)
@click.option("--iet", "iet_path", default=None)
@click.option("--n", "n", type=int, required=True)
@JSON_TEXT_OPT
def verify_bosh_cmd(alpha, iet_path, n, fmt):
    """Distinct vertex weights vs 3(#E - #V) on the gap digraph."""
    T = _require_map(alpha, iet_path)
    try:
        outcome = boshernitzan_bound_check(T, n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


@cmd_verify.command("forest")
@click.option("--alpha", default=None)
@click.option("--iet", "iet_path", default=None)
@click.option("--n", "n", type=int, required=True)
@JSON_TEXT_OPT
def verify_forest_cmd(alpha, iet_path, n, fmt):
    """Forest-derived distinct lengths vs the gap-report clusters."""
    T = _require_map(alpha, iet_path)
    try:
        outcome = verify_forest_lengths(T, n)
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


@cmd_verify.command("dist-convergence")
@click.option("--z", "z_values", type=float, multiple=True, default=(0.25, 0.5, 0.75),
              show_default=True)
@click.option("--n", "n_values", type=int, multiple=True, default=(50, 200, 800),
              show_default=True)
@JSON_TEXT_OPT
def verify_dist_cmd(z_values, n_values, fmt):
    """Finite-N exact averages approach the closed-form limit."""
    try:
        outcome = verify_distribution_convergence(
            z_values=tuple(z_values), n_values=tuple(n_values)
        )
    except GapscopeError as exc:
        raise click.UsageError(str(exc))
    _finish_verification(outcome, fmt)


if __name__ == "__main__":
    main()
