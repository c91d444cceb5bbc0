import csv
import dataclasses
import io
import json

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import example, given
from hypothesis import strategies as st

from gapscope import cli as cli_module
from gapscope import gaps as gaps_module
from gapscope.cli import _dumps, main
from gapscope.gaps import (
    gap_report,
    sigma_recursion,
    three_gap_predict,
)
from gapscope.graphs import GapForest, GapGraph
from gapscope.iet import Iet
from gapscope.numerics import parse_surd
from gapscope.zipper import zipper_torus


@pytest.fixture
def runner():
    return CliRunner()


@pytest.fixture
def iet_spec_file(tmp_path):
    path = tmp_path / "demo_iet.json"
    path.write_text(
        json.dumps(
            {
                "lengths": ["sqrt(1/3)", "sqrt(1/2) - sqrt(1/3)", "1 - sqrt(1/2)"],
                "permutation": [3, 2, 1],
            }
        )
    )
    return str(path)


def run_json(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


def test_gaps_golden_json(runner):
    data = run_json(runner, ["gaps", "--alpha", "sqrt(1/2)", "--n", "9"])
    assert data["kind"] == "gap_report"
    assert data["schema_version"] == 1
    assert [c["count"] for c in data["clusters"]] == [2, 6, 1]
    assert len(data["points"]) == len(data["sigma"]) == len(data["gaps"]) == 9


def test_gaps_csv_matches_json(runner):
    data = run_json(runner, ["gaps", "--alpha", "sqrt(1/2)", "--n", "9"])
    result = runner.invoke(
        main, ["gaps", "--alpha", "sqrt(1/2)", "--n", "9", "--format", "csv"]
    )
    assert result.exit_code == 0
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert len(rows) == len(data["clusters"])
    for row, cluster in zip(rows, data["clusters"]):
        assert float(row["length"]) == cluster["length"]
        assert int(row["count"]) == cluster["count"]


def test_cli_deterministic(runner):
    args = ["gaps", "--alpha", "sqrt(1/2)", "--n", "40"]
    out1 = runner.invoke(main, args).output
    out2 = runner.invoke(main, args).output
    assert out1 == out2


def test_gaps_from_iet_file(runner, iet_spec_file):
    data = run_json(runner, ["gaps", "--iet", iet_spec_file, "--n", "8"])
    assert len(data["clusters"]) == 3


def test_gaps_requires_exactly_one_source(runner, iet_spec_file):
    result = runner.invoke(main, ["gaps", "--n", "9"])
    assert result.exit_code == 2
    result = runner.invoke(
        main, ["gaps", "--alpha", "1/2", "--iet", iet_spec_file, "--n", "9"]
    )
    assert result.exit_code == 2


def test_cycle_notation_spec_file(runner, tmp_path):
    path = tmp_path / "cyc.json"
    path.write_text(
        json.dumps(
            {
                "lengths": [0.3, 0.2, 0.1, 0.15, 0.25],
                "permutation": {"cycles": [[1, 5, 2, 3, 4]]},
            }
        )
    )
    data = run_json(runner, ["gaps", "--iet", str(path), "--n", "12"])
    assert data["n"] == 12


def test_predict_with_sigma(runner):
    data = run_json(runner, ["predict", "--alpha", "sqrt(1/2)", "--n", "9", "--sigma"])
    assert data["case"] == "generic"
    assert data["counts"] == [6, 1, 2]
    assert data["sigma"] == [0, 3, 6, 2, 5, 8, 1, 4, 7]
    pred = three_gap_predict(parse_surd("sqrt(1/2)"), 9).to_json()
    assert {k: data[k] for k in pred} == pred


def test_zipper_json_roundtrip(runner):
    data = run_json(runner, ["zipper", "--alpha", "sqrt(1/2)", "--n", "9"])
    zr = zipper_torus(parse_surd("sqrt(1/2)"), 9).to_json()
    assert {k: data[k] for k in zr} == zr
    assert data["case"] == "generic"


def test_limit_value(runner):
    data = run_json(runner, ["limit", "--z", "0.5"])
    assert abs(data["points"][0]["value"] - 0.6960364490729867) < 1e-12


def test_limit_flags_branch_boundary(runner):
    data = run_json(runner, ["limit", "--z", "1.0"])
    assert data.get("boundary_values") == [1.0]


def test_dist_csv_columns(runner):
    result = runner.invoke(
        main,
        ["dist", "--z-grid", "0.25:0.75:0.25", "--n", "60", "--format", "csv"],
    )
    assert result.exit_code == 0, result.output
    rows = list(csv.DictReader(io.StringIO(result.output)))
    assert [r["z"] for r in rows] == ["0.25", "0.5", "0.75"]
    assert all(r["kind"] == "exact" and r["N"] == "60" for r in rows)
    data = run_json(runner, ["dist", "--z-grid", "0.25:0.75:0.25", "--n", "60"])
    assert [float(r["value"]) for r in rows] == [p["value"] for p in data["points"]]


def test_dist_empirical_needs_iet(runner):
    result = runner.invoke(
        main, ["dist", "--kind", "empirical", "--z", "0.5", "--n", "30"]
    )
    assert result.exit_code == 2


def test_dist_empirical_runs(runner, iet_spec_file):
    data = run_json(
        runner,
        [
            "dist", "--kind", "empirical", "--iet", iet_spec_file, "--z", "0.5",
            "--n", "30", "--grid", "20", "--range", "0.1,0.9",
        ],
    )
    assert data["curve_kind"] == "empirical"
    assert 0.0 <= data["points"][0]["value"] <= 1.0


def test_graph_edge_list_text(runner):
    result = runner.invoke(
        main,
        ["graph", "--alpha", "sqrt(1/2)", "--n", "5", "--format", "text"],
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert lines[0].startswith("# gap graph")
    assert sum(1 for l in lines if l.startswith("v ")) == 5


def test_graph_forest_json(runner, iet_spec_file):
    data = run_json(
        runner, ["graph", "--iet", iet_spec_file, "--n", "8", "--kind", "fgaps"]
    )
    assert data["kind"] == "gap_forest"


def test_verify_three_gap_passes(runner):
    result = runner.invoke(
        main, ["verify", "three-gap", "--alpha", "sqrt(1/2)", "--n", "9"]
    )
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["status"] == "pass"


def test_verify_failure_exits_one(runner, planted_prediction):
    result = runner.invoke(main, ["verify", "three-gap", "--alpha", "sqrt(1/2)", "--n", "9"])
    assert result.exit_code == 1
    data = json.loads(result.output)
    assert data["status"] == "fail" and data["failures"]


def test_verify_zipper_mismatch_exits_one(runner, planted_height):
    result = runner.invoke(main, ["verify", "zipper", "--alpha", "sqrt(1/2)", "--n", "9"])
    assert result.exit_code == 1
    (failure,) = json.loads(result.output)["failures"]
    assert failure["what"] == "cluster"


def test_verify_sigma_mismatch_exits_one_with_int_sigma(runner, monkeypatch):
    # plant a report whose sorting permutation is reversed
    real = gaps_module.gap_report
    monkeypatch.setattr(
        gaps_module, "gap_report",
        lambda T, N: dataclasses.replace(real(T, N), sigma=real(T, N).sigma[::-1]),
    )
    result = runner.invoke(
        main, ["verify", "three-gap", "--alpha", "sqrt(1/2)", "--n", "9", "--format", "json"]
    )
    assert result.exit_code == 1
    (failure,) = json.loads(result.output)["failures"]
    assert failure["what"] == "sigma"
    assert all(type(v) is int for v in failure["got"] + failure["expected"])


def test_verify_dplus2_and_forest(runner, iet_spec_file):
    assert runner.invoke(main, ["verify", "dplus2", "--iet", iet_spec_file, "--n", "8"]).exit_code == 0
    assert runner.invoke(main, ["verify", "forest", "--iet", iet_spec_file, "--n", "8"]).exit_code == 0
    assert runner.invoke(main, ["verify", "zipper", "--alpha", "sqrt(1/2)", "--n", "9"]).exit_code == 0
    assert runner.invoke(main, ["verify", "bosh", "--alpha", "sqrt(1/2)", "--n", "9"]).exit_code == 0


def test_verify_dist_convergence_small(runner):
    result = runner.invoke(
        main, ["verify", "dist-convergence", "--n", "50", "--n", "200"]
    )
    assert result.exit_code == 0


def test_unknown_flag_exits_two(runner):
    assert runner.invoke(main, ["gaps", "--bogus", "1"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["gaps", "--alpha", "sqrt(1/2)", "--n", "9", "--eps", "1e-9"],
        ["graph", "--alpha", "sqrt(1/2)", "--n", "9", "--eps", "1e-9"],
        ["graph", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["verify", "bosh", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["verify", "forest", "--alpha", "sqrt(1/2)", "--n", "9", "--eps", "1e-9"],
        ["verify", "three-gap", "--alpha", "sqrt(1/2)", "--n", "9", "--eps", "1e-9"],
        ["verify", "zipper", "--alpha", "sqrt(1/2)", "--n", "9", "--eps", "1e-9"],
        ["verify", "dplus2", "--iet", "IET", "--n", "8", "--precision", "80"],
        ["dist", "--z", "0.5", "--n", "20", "--precision", "80"],
        ["gaps", "--iet", "IET", "--n", "8", "--precision", "80"],
        ["gaps", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80", "--format", "text"],
        ["gaps", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80", "--format", "csv"],
        ["gaps", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["predict", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["zipper", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["verify", "three-gap", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["verify", "zipper", "--alpha", "sqrt(1/2)", "--n", "9", "--precision", "80"],
        ["dist", "--z", "0.5", "--n", "20", "--iet", "IET"],
        ["dist", "--kind", "exact", "--z", "0.5", "--n", "20", "--grid", "3"],
        ["dist", "--kind", "limit", "--z", "0.5", "--n", "7", "--range", "0.1,0.2",
         "--iet", "missing.json", "--grid", "3"],
        ["verify", "dist-convergence", "--tol", "0.5"],
        ["graph", "--alpha", "sqrt(1/2)", "--n", "9", "--format", "csv"],
        ["verify", "bosh", "--alpha", "sqrt(1/2)", "--n", "9", "--format", "csv"],
    ],
)
def test_tolerance_and_dead_precision_flags_refused(runner, iet_spec_file, args):
    args = [iet_spec_file if a == "IET" else a for a in args]
    assert runner.invoke(main, args).exit_code == 2


def _must_not_run(*args, **kwargs):
    raise AssertionError("called, though its result is not used")


@pytest.mark.parametrize("flag, value", [("--iet", "IET"), ("--grid", "3")])
def test_dist_exact_names_the_empirical_flag_it_refuses(
    runner, iet_spec_file, monkeypatch, flag, value
):
    monkeypatch.setattr(cli_module, "rotation_curve", _must_not_run)
    value = iet_spec_file if value == "IET" else value
    result = runner.invoke(main, ["dist", "--z", "0.5", "--n", "20", flag, value])
    assert result.exit_code == 2
    assert f"{flag} applies only to --kind empirical" in result.output


def test_refused_format_is_refused_before_any_work(runner, monkeypatch):
    monkeypatch.setattr(cli_module, "boshernitzan_bound_check", _must_not_run)
    args = ["verify", "bosh", "--alpha", "sqrt(1/2)", "--n", "9", "--format", "csv"]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert "'csv' is not one of 'json', 'text'" in result.output


@pytest.mark.parametrize("kind, cls", [("ggaps", GapGraph), ("fgaps", GapForest)])
@pytest.mark.parametrize("fmt, unused", [("json", "to_edge_list"), ("text", "to_json")])
def test_graph_builds_only_the_form_it_prints(runner, monkeypatch, kind, cls, fmt, unused):
    args = ["graph", "--alpha", "sqrt(1/2)", "--n", "9", "--kind", kind, "--format", fmt]
    plain = runner.invoke(main, args)
    monkeypatch.setattr(cls, unused, _must_not_run)
    result = runner.invoke(main, args, catch_exceptions=False)
    assert (result.exit_code, result.output) == (0, plain.output)


#: a small input on which each leaf command passes
PASSING_ARGS = {
    ("gaps",): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("predict",): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("zipper",): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("dist",): ["--z-grid", "0.25:0.75:0.25", "--n", "20"],
    ("limit",): ["--z", "0.5"],
    ("graph",): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("verify", "three-gap"): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("verify", "dplus2"): ["--iet", "IET", "--n", "8"],
    ("verify", "zipper"): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("verify", "bosh"): ["--alpha", "sqrt(1/2)", "--n", "9"],
    ("verify", "forest"): ["--iet", "IET", "--n", "8"],
    ("verify", "dist-convergence"): ["--n", "50", "--n", "200"],
}


def _leaf_commands(cmd, path=()):
    if isinstance(cmd, click.Group):
        for name, sub in cmd.commands.items():
            yield from _leaf_commands(sub, path + (name,))
    else:
        yield path, cmd


def test_every_offered_format_works(runner, iet_spec_file):
    leaves = dict(_leaf_commands(main))
    assert set(leaves) == set(PASSING_ARGS)
    for path, cmd in leaves.items():
        (fmt_param,) = [p for p in cmd.params if p.name == "fmt"]
        args = [iet_spec_file if a == "IET" else a for a in PASSING_ARGS[path]]
        for fmt in fmt_param.type.choices:
            result = runner.invoke(main, [*path, *args, "--format", fmt])
            assert result.exit_code == 0, (path, fmt, result.output)
            assert result.output.strip(), (path, fmt)


@pytest.mark.parametrize(
    "args",
    [
        ["gaps", "--alpha", "0", "--n", "5"],
        ["gaps", "--alpha", "1", "--n", "5"],
        ["graph", "--alpha", "0", "--n", "5"],
        ["verify", "bosh", "--alpha", "0", "--n", "5"],
        ["verify", "forest", "--alpha", "1", "--n", "5"],
    ],
)
def test_alpha_outside_unit_interval_exits_two(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 2, result.output
    assert "rotation number" in result.output


def test_malformed_surd_exits_two_with_position(runner):
    result = runner.invoke(main, ["gaps", "--alpha", "sqrt(2", "--n", "9"])
    assert result.exit_code == 2
    assert "position 6" in result.output


def test_invalid_iet_file_exits_two(runner, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"lengths\": [0.5, 0.5]}")
    assert runner.invoke(main, ["gaps", "--iet", str(bad), "--n", "5"]).exit_code == 2
    worse = tmp_path / "worse.json"
    worse.write_text("not json")
    assert runner.invoke(main, ["gaps", "--iet", str(worse), "--n", "5"]).exit_code == 2


def test_precision_env_var_is_ignored(runner, monkeypatch):
    args = ["predict", "--alpha", "sqrt(1/2)", "--n", "9"]
    plain = runner.invoke(main, args)
    monkeypatch.setenv("GAPSCOPE_PRECISION", "not-a-number")
    result = runner.invoke(main, args)
    assert (result.exit_code, result.output) == (0, plain.output)


@pytest.mark.parametrize(
    "alpha, decimal",
    [
        ("sqrt(1/2)", "0.707106781186547"),
        ("3/7", "0.428571428571428"),
        ("(1 + 2*sqrt(2))/7", "0.546918160678027"),
        ("0.25", "0.250000000000000"),
    ],
)
def test_alpha_json_renders_15_digits(runner, alpha, decimal):
    rendered = parse_surd(alpha).to_json()
    assert rendered["decimal"] == decimal
    if rendered["kind"] == "decimal":
        assert rendered["text"] == decimal
    for cmd in ("gaps", "predict", "zipper"):
        assert run_json(runner, [cmd, "--alpha", alpha, "--n", "9"])["alpha"] == rendered


# ---------------------------------------------------------------------------
# The JSON emitter
# ---------------------------------------------------------------------------

NUMBERS = st.one_of(
    st.integers(),
    st.floats(),
    st.sampled_from([-0.0, 5e-324, 1e-5, 1e16, float("nan"), float("inf"), float("-inf")]),
)
TEXT = st.one_of(st.text(max_size=6), st.sampled_from([", ", "a, b", ",\n", "\u00e9, 1"]))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXT)
VALUES = st.recursive(
    SCALARS,
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(TEXT, kids, max_size=4),
    max_leaves=12,
)
TOP_VALUES = st.one_of(
    st.lists(NUMBERS, max_size=8),
    st.lists(st.one_of(NUMBERS, st.booleans()), max_size=8),
    st.lists(TEXT, max_size=8),
    st.lists(st.dictionaries(TEXT, NUMBERS, max_size=3), max_size=3),
    VALUES,
)


@given(st.dictionaries(TEXT, TOP_VALUES, max_size=6)
       | st.dictionaries(st.integers(), TOP_VALUES, max_size=3))
def test_emitter_equals_stdlib_indented_dumps(data):
    assert _dumps(data) == json.dumps(data, sort_keys=True, indent=2)


def test_emitter_equals_stdlib_on_gap_report(demo_iet):
    data = gap_report(demo_iet, 50).to_json()
    assert _dumps(data) == json.dumps(data, sort_keys=True, indent=2)


FLOAT_POOL = [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 0.1, 1 / 3,
              float("nan"), -float("nan"), float("inf"), float("-inf")]
FLOAT_ARRAYS = st.lists(st.sampled_from(FLOAT_POOL) | st.floats(), max_size=12).map(
    lambda xs: np.array(xs, dtype=np.float64)
)
INT_ARRAYS = st.lists(
    st.sampled_from([0, -1, 2**63 - 1, -(2**63)]) | st.integers(-(2**63), 2**63 - 1), max_size=12
).map(lambda xs: np.array(xs, dtype=np.int64))


@given(st.dictionaries(TEXT, FLOAT_ARRAYS | INT_ARRAYS | TOP_VALUES, max_size=6))
@example({"a": np.array([-0.0, 0.0, -0.0]), "b": np.array([5e-324]), "c": np.array([7], dtype=np.int64),
          "d": np.array([]), "e": np.array([], dtype=np.int64), "f": [1, 2.5]})
def test_emitter_of_arrays_equals_stdlib_dumps_of_their_lists(data):
    plain = {k: v.tolist() if isinstance(v, np.ndarray) else v for k, v in data.items()}
    assert _dumps(data) == json.dumps(plain, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "alpha, N, raw",
    [
        ("sqrt(5/7)", 10_000, False),
        ("3/7", 100, False),  # periodic: deduplicated to 7 points
        ("3/7", 100, True),  # raw: 93 zero gaps
        (None, 500, False),  # the demo IET
        ("sqrt(1/2)", 1, False),
        (None, 1, True),
    ],
)
def test_gaps_json_is_stdlib_dumps_of_the_report(runner, iet_spec_file, demo_iet, alpha, N, raw):
    src = ["--alpha", alpha] if alpha is not None else ["--iet", iet_spec_file]
    out = runner.invoke(
        main, ["gaps", *src, "--n", str(N)] + (["--raw"] if raw else []), catch_exceptions=False
    ).output
    T = Iet.rotation(parse_surd(alpha)) if alpha is not None else demo_iet
    data = gap_report(T, N, keep_duplicates=raw).to_json()
    if alpha is not None:
        data["alpha"] = parse_surd(alpha).to_json()
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize(
    "alpha, N",
    [
        ("sqrt(2/7)", 5000),
        ("sqrt(1/2)", 1),
        ("sqrt(5) - 2", 2),
        ("sqrt(11/13)", 3),
        ("sqrt(1/2)", 17),
        ("sqrt(5) - 2", 1000),
        ("sqrt(11/13)", 99991),
        ("sqrt(2/7)", 10**6),
    ],
)
def test_predict_sigma_json_is_stdlib_dumps(runner, alpha, N):
    out = runner.invoke(main, ["predict", "--alpha", alpha, "--n", str(N), "--sigma"],
                        catch_exceptions=False).output
    pred = three_gap_predict(parse_surd(alpha), N)
    data = pred.to_json()
    data["alpha"] = parse_surd(alpha).to_json()
    data["sigma"] = list(sigma_recursion(N, pred.lower[1], pred.upper[1]))
    assert out == json.dumps(data, sort_keys=True, indent=2) + "\n"
