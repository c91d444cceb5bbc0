"""Tests of the benchmark itself, at toy sizes:

    python3 -m pytest perfbench
"""

import json

import numpy as np
import pytest

import run

run.use_checkout_src()

import cliops  # noqa: E402
import inputs  # noqa: E402
import replay  # noqa: E402
from cliops import Result  # noqa: E402


def _toy(rng, seed, tally, span):
    """One cycle with every command the workloads use, at small N."""
    specs = {"toy.json": inputs.certified_iets(rng, [3], tally, span)[0]}
    pi = specs["toy.json"]["permutation"]
    alpha = inputs.draw_surd(rng)
    grid, zs = inputs.z_grid(rng, 4)
    ops = (
        inputs.gaps_op(300, alpha=alpha),
        inputs.gaps_op(300, spec="toy.json", pi=pi, fmt="text"),
        inputs.exact_op(30, grid, zs, check_z=zs[1]),
        inputs.exact_op(30, grid, zs, 0.25, 0.5),
        *(inputs.verify_op(check, 1000, spec="toy.json") for check in ("dplus2", "bosh", "forest")),
        inputs.verify_op("bosh", 1000, alpha=alpha),
    )
    return inputs.Inputs("toy", "toy units", seed, specs, (alpha,), (ops,), ops[:1], tally)


@pytest.fixture
def toy(monkeypatch, tmp_path):
    monkeypatch.setitem(inputs.WORKLOADS, "toy", _toy)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace, names", [(0, run.END_TO_END), (1, replay.PER_LAYER)])
def test_every_metric_is_printed_with_its_unit(toy, capsys, trace, names):
    assert run.main(["--workload", "toy", "--seed", "3", "--seconds", "0.01",
                     "--trace", str(trace)]) == 0
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] == 8
    assert set(last["metrics"]) == set(names)
    for name, metric in last["metrics"].items():
        unit = names[name] if trace == 0 else names[name][0]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], float)
        assert f"{name} " in out  # the human-readable lines name it too
    if trace == 0:
        for name in ("failed_share", "setup_s", "work_per_s"):
            assert name in out
    else:
        assert last["metrics"]["trace.replay_mismatch_share"]["value"] == 0.0
        spans = run.ROOT / ".perfbench-trace" / "toy-seed3.jsonl"
        assert json.loads(spans.read_text().splitlines()[0])["name"] == "iet.keane"
        spans.unlink()


@pytest.mark.parametrize("workload", sorted(inputs.WORKLOADS))
def test_generator_is_deterministic_per_seed(workload):
    first = inputs.generate(workload, 7).describe()
    assert first == inputs.generate(workload, 7).describe()
    assert first != inputs.generate(workload, 8).describe()
    json.dumps(first)  # recorded in the output as JSON


def test_generated_inputs_are_exact_and_certified():
    from gapscope import parse_surd

    gen = inputs.generate("graph-verify", 1)
    for alpha in gen.surds:
        assert 0 < float(parse_surd(alpha)) < 1 and not parse_surd(alpha).is_rational
    for spec in gen.specs.values():
        T = inputs.spec_to_iet(spec)
        assert T.keane_check(depth=inputs.KEANE_DEPTH).satisfied and inputs.separated(T)
        if spec is not inputs.DEMO_IET:
            assert sum(parse_surd(x).as_fraction() for x in spec["lengths"]) == 1
    assert gen.keane["certified"] == 4 <= gen.keane["tried"]


def test_wrong_output_counts_as_failed_op(toy, capsys, monkeypatch):
    real = cliops.run_cli

    def corrupt(op):
        res = real(op)
        if op.argv[0] == "dist" and "--kind" not in op.argv:
            data = json.loads(res.out)
            data["points"][-1]["value"] = data["points"][0]["value"] + 0.5  # increases in z
            res.out = json.dumps(data)
        return res

    monkeypatch.setattr(cliops, "run_cli", corrupt)
    assert run.main(["--workload", "toy", "--seed", "3", "--seconds", "0.01", "--trace", "0"]) == 0
    last = _last_json(capsys)
    assert last["failed"] == 2 and last["correct"] is False


@pytest.mark.parametrize("rotation, mutate, reason", [
    (True, lambda d: d["clusters"].append({"length": 0.5, "count": 1}), "none of the three-gap lengths"),
    (False, lambda d: d["gaps"].append(0.25), "gap sum"),
])
def test_gaps_check_rejects_wrong_reports(toy, rotation, mutate, reason):
    gen = _toy(np.random.default_rng(0), 0, {"tried": 0, "certified": 0}, inputs._null_span)
    gen.write_specs(toy)
    pi = gen.specs["toy.json"]["permutation"]
    op = inputs.gaps_op(300, alpha=gen.surds[0]) if rotation else inputs.gaps_op(300, spec="toy.json", pi=pi)
    res = cliops.run_cli(op)
    assert cliops.check(op, res).ok
    data = json.loads(res.out)
    mutate(data)
    verdict = cliops.check(op, Result(res.seconds, 0, json.dumps(data)))
    assert not verdict.ok and reason in verdict.reason


def test_failed_verdict_and_exit_code_fail_the_op():
    op = inputs.verify_op("bosh", 1000, alpha="sqrt(1/2)")
    bad = json.dumps({"check": "boshernitzan-bound", "status": "fail", "failures": []})
    assert not cliops.check(op, Result(0.1, 0, bad)).ok
    assert not cliops.check(op, Result(0.1, 2, "", "input error")).ok


def test_known_defects_are_counted_but_keep_the_run_correct():
    ok, known, bad = cliops.Verdict(True), cliops.Verdict(False, "x", known=True), cliops.Verdict(False, "x")
    defect = inputs.verify_op("forest", 10_000, alpha="sqrt(1/2)")
    plain = inputs.verify_op("forest", 10_000, spec="a.json")
    head, lines = run.summarize([(defect, 0.1, known), (plain, 0.1, ok)], True)
    assert head == {"correct": True, "attempted": 2, "failed": 1}
    assert "known defect" in lines[0]
    head, lines = run.summarize([(defect, 0.1, bad), (plain, 0.1, ok)], True)
    assert head["correct"] is False and "UNEXPECTED" in lines[0]


def _defect_report(fmt: str):
    """A rotation report that shows the known defect: at N = 10^4 float
    noise splits the three lengths of sqrt(2/7) into more clusters."""
    op = inputs.gaps_op(10_000, alpha="sqrt(2/7)", fmt=fmt)
    res = cliops.run_cli(op)
    verdict = cliops.check(op, res)
    assert op.known_defect and not verdict.ok and verdict.known, verdict.reason
    return op, res


def _edit(res, change) -> str:
    data = json.loads(res.out)
    change(data)
    return json.dumps(data)


@pytest.mark.parametrize("corrupt, reason", [
    (lambda res: _edit(res, lambda d: d["clusters"][0].update(length=d["clusters"][0]["length"] * 1.01)),
     "none of the three-gap lengths"),
    (lambda res: res.out.replace('"count": ', '"count": 1', 1), "add up"),
    (lambda res: _edit(res, lambda d: d["gaps"].append(0.001)), "gap sum"),
    (lambda res: res.out[: len(res.out) // 2], "unreadable output"),
])
def test_corrupted_known_defect_report_is_not_excused(corrupt, reason):
    op, res = _defect_report("json")
    verdict = cliops.check(op, Result(res.seconds, 0, corrupt(res)))
    assert not verdict.ok and not verdict.known and reason in verdict.reason
    head, _ = run.summarize([(op, res.seconds, verdict)], True)
    assert head["correct"] is False


def test_corrupted_known_defect_text_report_is_not_excused():
    op, res = _defect_report("text")
    lines = res.out.splitlines()
    lines[1] = lines[1].replace("count=", "count=7")
    verdict = cliops.check(op, Result(res.seconds, 0, "\n".join(lines)))
    assert not verdict.ok and not verdict.known and "add up" in verdict.reason


def test_known_defect_of_verify_is_only_its_symptom():
    forest = inputs.verify_op("forest", 10_000, alpha="sqrt(2/7)")
    res = cliops.run_cli(forest)
    assert res.code == 2 and cliops.check(forest, res).known, res.error
    assert not cliops.check(forest, Result(0.1, 2, "", "Error: some other input error")).known
    assert not cliops.check(forest, Result(0.1, 1, "")).known
    bosh = inputs.verify_op("bosh", 10_000, alpha="sqrt(2/7)")
    fail = json.dumps({"check": "boshernitzan-bound", "status": "fail", "failures": []})
    assert cliops.check(bosh, Result(0.1, 1, fail)).known
    assert not cliops.check(bosh, Result(0.1, 0, fail)).known
    assert not cliops.check(bosh, Result(0.1, 2, "", cliops.DEGENERATE_ORBIT)).known
    small = inputs.verify_op("bosh", 1000, alpha="sqrt(2/7)")
    assert not cliops.check(small, Result(0.1, 1, fail)).known


def test_ops_stopped_by_an_error_do_no_work():
    op = inputs.verify_op("forest", 10_000, alpha="sqrt(2/7)")
    assert run.done_units(op, Result(0.1, 2, "", "Error: x")) == 0
    assert run.done_units(op, Result(0.1, 1, "{}")) == 10_000


def test_each_op_gets_only_its_own_output():
    first = cliops.run_cli(inputs.gaps_op(20, alpha="sqrt(1/2)"))
    second = cliops.run_cli(inputs.gaps_op(5, alpha="sqrt(1/2)"))
    assert json.loads(first.out)["n"] == 20 and json.loads(second.out)["n"] == 5


def test_tail_has_ten_samples_above_it():
    value, pct = run.tail([float(v) for v in range(1, 101)])
    assert value == 90.0 and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_farey_arc_count_matches_the_library_enumerator():
    from gapscope.numerics import _farey_pair_ints

    for N, a, b in [(1, 0.0, 1.0), (40, 0.0, 1.0), (60, 0.25, 0.5), (73, 0.5, 1.0), (200, 0.001, 0.999)]:
        assert inputs.farey_arcs(N, a, b) == sum(1 for _ in _farey_pair_ints(N, a, b))


def _spin(seconds: float) -> None:
    end = cliops.CLOCK() + seconds
    while cliops.CLOCK() < end:
        pass


def test_self_time_subtracts_children():
    tr = replay.Tracer()
    with tr.span("outer"):
        with tr.span("inner"):
            _spin(0.02)
        _spin(0.01)
    outer, inner = tr.self_times()
    assert inner >= 0.02 and 0.01 <= outer < 0.02
    assert tr.spans[1][4] == 0  # inner's parent is outer
