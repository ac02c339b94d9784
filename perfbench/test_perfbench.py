"""Tests for the benchmark itself: span arithmetic, generator, traced call pattern.

    python3 -m pytest perfbench
"""

import contextlib
import io
import json
import sys

import pytest

import run
import tracing
import workloads

sys.path.insert(0, str(run.SRC))

import strainlim.cli as cli  # noqa: E402


def _approx_rows(got):
    return {name: pytest.approx(list(row)) for name, row in got.items()}


def test_self_time_nested_spans():
    spans = [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 2, "leaf", 2.0, 3.0),
        (4, 1, "b", 3.0, 6.0),  # overlaps a: the overlap counts once
        (5, 1, "c", 9.0, 12.0),  # sticks out of root: only 9..10 counts
        (6, 0, "a", 20.0, 21.0),  # a second root of the same name
    ]
    got = tracing.self_times(spans)
    assert got == _approx_rows({
        "root": (1, 10.0, 10.0 - 5.0 - 1.0),
        "a": (2, 4.0, 3.0),
        "leaf": (1, 1.0, 1.0),
        "b": (1, 3.0, 3.0),
        "c": (1, 3.0, 3.0),
    })


def test_self_time_without_children_is_duration():
    got = tracing.self_times([(7, 3, "x", 1.5, 2.0)])
    assert got == _approx_rows({"x": (1, 0.5, 0.5)})


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generator_is_deterministic(workload):
    n = 2 * workloads.CYCLE[workload]
    first = workloads.generate(workload, 11, n)
    assert first == workloads.generate(workload, 11, n)
    assert first[:3] == workloads.generate(workload, 11, 3)
    assert first != workloads.generate(workload, 12, n)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generated_configs_parse(workload):
    studies = workloads.generate(workload, 3, run.LIST_LENGTH[workload])
    studies.append(workloads.smallest(workload))
    for command, cfg in studies:
        cli.parse_config(json.loads(json.dumps(cfg)), command)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_calls_match_predictions(workload, tmp_path):
    tracer = tracing.Tracer()
    studies = workloads.generate(workload, 5, workloads.CYCLE[workload])
    plain = [run.run_study(cli, c, cfg, tmp_path).outputs() for c, cfg in studies]
    tracer.install()
    try:
        traced = [run.run_study(cli, c, cfg, tmp_path).outputs() for c, cfg in studies]
    finally:
        tracer.uninstall()
    spans, _ = tracer.take()
    stats = run.span_stats(spans)
    assert run.unpredicted_calls(workload, stats) == []
    assert traced == plain
    # every binding is restored
    assert not hasattr(cli.main, "__wrapped__")
    assert not hasattr(cli.run_experiment, "__wrapped__")


def test_every_binding_of_family_eval_is_traced():
    import strainlim
    import strainlim.analysis
    import strainlim.families
    import strainlim.solver

    tracer = tracing.Tracer()
    tracer.install()
    try:
        bound = {strainlim.family_eval, strainlim.analysis.family_eval,
                 strainlim.solver.family_eval, strainlim.families.family_eval}
        assert len(bound) == 1
        assert bound.pop().__wrapped__ is not None
        assert hasattr(strainlim.energy.quad, "__wrapped__")
    finally:
        tracer.uninstall()
    assert not hasattr(strainlim.solver.family_eval, "__wrapped__")


def test_check_study_flags_contract_breaks():
    cfg = {"delta": 0.01}
    header = run.checks.HEADERS["solve"]
    row = "0.01,3,0.0,picard,true,0.0,0.0,0.0,0.0,0.0,0.0"
    good_csv = ("%s\n%s\n" % (header, row)).encode()
    good_report = json.dumps({"verdict": "PASS", "x": 1.0}).encode()
    assert run.checks.check_study("solve", cfg, 0, good_csv, good_report) == (False, [])
    assert run.checks.check_study("solve", cfg, 2, None, None) == (True, [])
    nan_report = json.dumps({"verdict": "PASS", "x": "nan"}).encode()
    failed, problems = run.checks.check_study("solve", cfg, 0, good_csv, nan_report)
    assert failed and problems == ["non-finite $.x under PASS"]
    short = ("%s\n" % header).encode()
    assert run.checks.check_study("solve", cfg, 0, short, good_report)[1]
    assert run.checks.check_study("solve", cfg, 1, None, None)[1]


def test_tail_percentile_keeps_ten_beyond():
    assert run.tail_percentile(run.LIST_LENGTH["certify"]) == 90.0
    assert run.tail_percentile(2500) == 99.0
    assert run.tail_percentile(50) == 80.0
    for n in (11, 20, 50, 99, 100, 999, 1000, 20000):
        assert n * (100.0 - run.tail_percentile(n)) / 100.0 >= 10.0 - 1e-9


def _last_json(argv):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        assert run.main(argv) == 0
    return json.loads(sink.getvalue().strip().splitlines()[-1])


def _declared(section):
    with open(run.ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[section]}


def test_end_to_end_run_reports_declared_metrics():
    result = _last_json(["--workload", "converge", "--seed", "2", "--seconds", "0"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == run.LIST_LENGTH["converge"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("end_to_end")
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_run_reports_declared_metrics():
    result = _last_json(["--workload", "energy", "--seed", "2", "--seconds", "0", "--trace", "1"])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _declared("per_layer")
    assert result["metrics"]["families.family_eval.calls"]["value"] == 0
    assert result["metrics"]["energy.quad.calls"]["value"] > 0
