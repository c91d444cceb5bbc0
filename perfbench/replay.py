"""The traced run: each op replayed as the sequence of public library calls
its command makes, with a span around every call into a layer, and the
per-layer metrics aggregated from those spans.

The layers are the package's modules: ``numerics``, ``iet``, ``gaps``,
``distribution``, ``graphs`` and ``cli``/``outcomes``.  Spans marked
``probe`` time work the command does not do itself, so that a layer hidden
inside another call can be measured: the Farey enumeration the exact average
repeats for every z, the clustering inside ``gap_report``, and the outdegree
identity on the graph ``verify bosh`` builds.  Probe time is left out of
the tracing overhead.
"""

from __future__ import annotations

import io
import json
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import click

from cliops import CLOCK
from inputs import Op


class Tracer:
    """Spans (op id, name, start, end, parent, attributes) kept in memory
    in the order they opened; written out by :meth:`write`.  Times are CPU
    times from the same clock as the untraced ops."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self.op_id = "setup"

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else -1
        entry = [self.op_id, name, 0.0, 0.0, parent, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(entry)
        entry[2] = CLOCK()
        try:
            yield attrs
        finally:
            entry[3] = CLOCK()
            self._stack.pop()

    def self_times(self) -> list[float]:
        """Each span's duration minus the part its child spans cover."""
        own = [end - start for _, _, start, end, _, _ in self.spans]
        for _, _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def write(self, path: Path) -> None:
        own = self.self_times()
        with open(path, "w") as fh:
            for (op, name, start, end, parent, attrs), self_s in zip(self.spans, own):
                fh.write(json.dumps({"op": op, "name": name, "start": start, "end": end,
                                     "parent": parent, "self_s": self_s, **attrs}) + "\n")


# ---------------------------------------------------------------------------
# Replays
# ---------------------------------------------------------------------------


def _load(tr: Tracer, op: Op):
    """The map the command builds from --alpha or --iet."""
    from gapscope import Iet, parse_surd

    with tr.span("iet.build"):
        if op.params.get("alpha") is not None:
            return Iet.rotation(parse_surd(op.params["alpha"]))
        with open(op.params["spec"]) as fh:
            spec = json.load(fh)
        return Iet.new(spec["lengths"], spec["permutation"])


def _orbit_report(tr: Tracer, T, N: int):
    from gapscope import gap_report, orbit

    kind = "rotation" if T.d == 2 and T.pi == (2, 1) else "iet"
    with tr.span("gaps.orbit", kind=kind, points=N):
        pts = orbit(T, N)
    with tr.span("gaps.report") as rec:
        report = gap_report(T, N, points=pts)
        rec["merged"] = N - report.num_points
    return report


def _echo(rec: dict, text: str) -> str:
    """Write ``text`` the way the command prints it, into a buffer."""
    buf = io.StringIO()
    click.echo(text, file=buf)
    out = buf.getvalue()
    rec["bytes"] = len(out)
    return out


def _replay_gaps(tr: Tracer, op: Op) -> str:
    from gapscope import parse_surd
    from gapscope.gaps import cluster_lengths
    from gapscope.numerics import DEFAULT_PRECISION

    T = _load(tr, op)
    N = op.params["N"]
    report = _orbit_report(tr, T, N)
    with tr.span("gaps.cluster", probe=True):
        cluster_lengths(report.gaps, report.eps)
    with tr.span("cli.emit") as rec:
        data = report.to_json()
        if op.params["alpha"] is not None:
            data["alpha"] = parse_surd(op.params["alpha"]).to_json(DEFAULT_PRECISION)
        text = "\n".join(
            [f"N={N} points={report.num_points} distinct={report.distinct_count}"]
            + [f"  length={c.length!r} count={c.count}" for c in report.clusters]
        )
        fmt = op.params["fmt"]
        return _echo(rec, json.dumps(data, sort_keys=True, indent=2) if fmt == "json" else text)


def _window(op: Op) -> tuple[float, float]:
    from gapscope import parse_surd

    a, b = op.params["range"].split(",")
    return float(parse_surd(a).eval_fraction(64)), float(parse_surd(b).eval_fraction(64))


def _curve_out(tr: Tracer, curve) -> str:
    with tr.span("cli.emit") as rec:
        data = curve.to_json()
        data["seed"] = 0
        # the command builds the csv rows and the text form whatever the format
        rows = list(curve.csv_rows())
        "\n".join(f"z={r['z']!r} value={r['value']!r}" for r in rows)
        return _echo(rec, json.dumps(data, sort_keys=True, indent=2))


def _replay_dist_exact(tr: Tracer, op: Op) -> str:
    from gapscope import rotation_curve
    from gapscope.numerics import _farey_pair_ints  # the enumerator the exact average iterates

    N, zs = op.params["N"], op.params["z"]
    a, b = _window(op)
    with tr.span("numerics.farey_enum", probe=True) as rec:
        rec["arcs"] = sum(1 for _ in _farey_pair_ints(N, a, b))
    with tr.span("distribution.exact", z=len(zs)):
        curve = rotation_curve(zs, N, a=a, b=b)
    return _curve_out(tr, curve)


def _keane(tr: Tracer, T, N: int) -> bool:
    depth = max(N, 1000)
    with tr.span("iet.keane", steps=(T.d - 1) * depth) as rec:
        ok = T.keane_check(depth=depth).satisfied
        rec["certified"] = int(ok)
    return ok


def _replay_verify(tr: Tracer, op: Op) -> str:
    """The layer calls of ``verify dplus2|bosh|forest``; the verdict is
    rebuilt from their results the way the verifier does."""
    from gapscope import (dplus2_bound, fgaps_build, gap_lengths_from_forest,
                          ggaps_build, outdegree_identity_check)
    from gapscope.gaps import cluster_lengths, default_cluster_eps

    T = _load(tr, op)
    N, check = op.params["N"], op.params["check"]
    eps = default_cluster_eps(N)
    status = "not_applicable"
    if check == "dplus2":
        if _keane(tr, T, N):
            count = _orbit_report(tr, T, N).distinct_count
            status = "pass" if count <= min(dplus2_bound(T.pi), 3 * (T.d - 1)) else "fail"
    elif check == "bosh":
        if _keane(tr, T, N):
            with tr.span("graphs.ggaps") as rec:
                graph = ggaps_build(T, N)
                rec.update(vertices=graph.num_vertices, edges=graph.num_edges)
            with tr.span("graphs.outdegree", probe=True):
                outdegree_identity_check(T, N, graph=graph)
            with tr.span("graphs.bound"):
                if not graph.has_distinct_cycle():
                    distinct = len(cluster_lengths(graph.weights, eps))
                    excess = graph.num_edges - graph.num_vertices
                    ok = distinct <= 3 * excess and excess <= T.d - 1
                    status = "pass" if ok else "fail"
    else:
        with tr.span("graphs.fgaps") as rec:
            forest = fgaps_build(T, N)
            rec.update(vertices=len(forest.vertices), edges=len(forest.edges))
        with tr.span("graphs.forest_lengths"):
            derived = gap_lengths_from_forest(forest, eps=eps)
        expected = [c.length for c in _orbit_report(tr, T, N).clusters]
        ok = len(derived) == len(expected) and all(
            abs(e - g) <= max(eps, 1e-12) for e, g in zip(expected, derived))
        status = "pass" if ok else "fail"
    with tr.span("cli.emit") as rec:
        _echo(rec, json.dumps({"check": check, "status": status}, sort_keys=True, indent=2))
    return status


def replay(tr: Tracer, op: Op, op_id: int) -> tuple[float, float, str, str]:
    """Replay ``op`` under spans.  Returns the op span's duration, the probe
    time inside it, the output (the verdict status for verify ops) and the
    error that stopped it, if any."""
    from gapscope import GapscopeError

    tr.op_id = op_id
    first = len(tr.spans)
    out, error = "", ""
    with tr.span("cli.op", label=op.label):
        try:
            if op.argv[0] == "gaps":
                out = _replay_gaps(tr, op)
            elif op.argv[0] == "verify":
                out = _replay_verify(tr, op)
            else:
                out = _replay_dist_exact(tr, op)
        except GapscopeError as exc:
            error = f"{type(exc).__name__}: {exc}"
    root = tr.spans[first]
    probe = sum(e - s for _, _, s, e, _, attrs in tr.spans[first:] if attrs.get("probe"))
    return root[3] - root[2], probe, out, error


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

#: name -> (unit, what it is); every name is printed in a traced run
PER_LAYER = {
    "numerics.farey_enum_s": ("s/op", "one enumeration of the op's Farey arcs (probe)"),
    "numerics.farey_arcs": ("count/op", "arcs in the op's window"),
    "distribution.exact_s": ("s/op", "rotation_curve"),
    "distribution.kernel_s": ("s/op", "rotation_curve minus one enumeration per z"),
    "distribution.ns_per_arc_eval": ("ns/arc-z", "kernel time per arc and z"),
    "iet.keane_s": ("s/op", "Iet.keane_check inside ops"),
    "iet.keane_steps": ("count/op", "inverse-map steps of those checks"),
    "iet.keane_certified_ratio": ("ratio", "maps certified over checked, set-up included"),
    "gaps.orbit_rotation_ns_per_point": ("ns/point", "orbit of a rotation"),
    "gaps.orbit_iet_ns_per_point": ("ns/point", "orbit of a general IET"),
    "gaps.orbit_points": ("count/op", "orbit points generated"),
    "gaps.report_s": ("s/op", "gap_report on a given orbit"),
    "gaps.cluster_s": ("s/op", "cluster_lengths on the report's gaps (probe)"),
    "gaps.predict_s": ("s/op", "three_gap_predict in the output check"),
    "gaps.points_merged": ("count/op", "orbit points merged as duplicates"),
    "gaps.excess_lengths": ("count/op", "distinct lengths beyond the theorem's or bound's allowance"),
    "graphs.ggaps_s": ("s/op", "ggaps_build"),
    "graphs.fgaps_s": ("s/op", "fgaps_build"),
    "graphs.outdegree_s": ("s/op", "outdegree_identity_check on the bosh graph (probe)"),
    "graphs.forest_lengths_s": ("s/op", "gap_lengths_from_forest"),
    "graphs.vertices": ("count/op", "vertices of gap graphs and forests built"),
    "graphs.edges": ("count/op", "edges of gap graphs and forests built"),
    "graphs.us_per_vertex": ("us/vertex", "graph and forest build time per vertex"),
    "cli.emit_s": ("s/op", "to_json, json.dumps and click.echo as the command calls them"),
    "cli.bytes_out": ("B/op", "characters of output"),
    "cli.self_s": ("s/op", "op span minus its layer spans"),
    "outcomes.failed_share": ("ratio", "ops failed over attempted, untraced runs"),
    "trace.overhead_share": ("ratio", "traced op time without probes over untraced, minus 1"),
    "trace.replay_mismatch_share": ("ratio", "replays whose output differs from the command's"),
}


def per_layer(tr: Tracer, n_ops: int, untraced_s: float, traced_s: float, probe_s: float,
              failed: int, excess: int, mismatches: int) -> dict[str, float]:
    """Aggregate the spans of a traced pass over ``n_ops`` ops.  Times and
    counts are per op; rates divide the matching totals."""
    total = defaultdict(float)
    attr = defaultdict(float)
    by_op = defaultdict(dict)
    own = tr.self_times()
    for (op, name, start, end, _, attrs), self_s in zip(tr.spans, own):
        if name == "iet.keane":
            attr["keane.checked"] += 1
            attr["keane.certified"] += attrs["certified"]
        if op == "setup":
            continue
        dur = end - start
        total[name] += dur
        total[name + "#self"] += self_s
        for k, v in attrs.items():
            if isinstance(v, (int, float)) and not isinstance(v, bool):
                attr[f"{name}.{k}"] += v
        if name == "gaps.orbit":
            total["orbit_s:" + attrs["kind"]] += dur
            attr["orbit_points:" + attrs["kind"]] += attrs["points"]
        if name in ("numerics.farey_enum", "distribution.exact"):
            by_op[op][name] = (dur, attrs)

    kernel_s = arc_evals = 0.0
    for spans in by_op.values():
        if "distribution.exact" in spans and "numerics.farey_enum" in spans:
            exact, ex_attrs = spans["distribution.exact"]
            enum, en_attrs = spans["numerics.farey_enum"]
            kernel_s += exact - ex_attrs["z"] * enum
            arc_evals += ex_attrs["z"] * en_attrs["arcs"]

    def per_op(x):
        return x / n_ops if n_ops else 0.0

    def ratio(x, y, scale=1.0):
        return x / y * scale if y else 0.0

    graph_s = total["graphs.ggaps"] + total["graphs.fgaps"]
    vertices = attr["graphs.ggaps.vertices"] + attr["graphs.fgaps.vertices"]
    return {
        "numerics.farey_enum_s": per_op(total["numerics.farey_enum"]),
        "numerics.farey_arcs": per_op(attr["numerics.farey_enum.arcs"]),
        "distribution.exact_s": per_op(total["distribution.exact"]),
        "distribution.kernel_s": per_op(kernel_s),
        "distribution.ns_per_arc_eval": ratio(kernel_s, arc_evals, 1e9),
        "iet.keane_s": per_op(total["iet.keane"]),
        "iet.keane_steps": per_op(attr["iet.keane.steps"]),
        "iet.keane_certified_ratio": ratio(attr["keane.certified"], attr["keane.checked"]),
        "gaps.orbit_rotation_ns_per_point": ratio(total["orbit_s:rotation"],
                                                  attr["orbit_points:rotation"], 1e9),
        "gaps.orbit_iet_ns_per_point": ratio(total["orbit_s:iet"], attr["orbit_points:iet"], 1e9),
        "gaps.orbit_points": per_op(attr["gaps.orbit.points"]),
        "gaps.report_s": per_op(total["gaps.report"]),
        "gaps.cluster_s": per_op(total["gaps.cluster"]),
        "gaps.predict_s": per_op(total["gaps.predict"]),
        "gaps.points_merged": per_op(attr["gaps.report.merged"]),
        "gaps.excess_lengths": per_op(excess),
        "graphs.ggaps_s": per_op(total["graphs.ggaps"]),
        "graphs.fgaps_s": per_op(total["graphs.fgaps"]),
        "graphs.outdegree_s": per_op(total["graphs.outdegree"]),
        "graphs.forest_lengths_s": per_op(total["graphs.forest_lengths"]),
        "graphs.vertices": per_op(vertices),
        "graphs.edges": per_op(attr["graphs.ggaps.edges"] + attr["graphs.fgaps.edges"]),
        "graphs.us_per_vertex": ratio(graph_s, vertices, 1e6),
        "cli.emit_s": per_op(total["cli.emit"]),
        "cli.bytes_out": per_op(attr["cli.emit.bytes"]),
        "cli.self_s": per_op(total["cli.op#self"]),
        "outcomes.failed_share": ratio(failed, n_ops),
        "trace.overhead_share": (ratio(traced_s - probe_s, untraced_s) - 1.0) if untraced_s else 0.0,
        "trace.replay_mismatch_share": ratio(mismatches, n_ops),
    }

