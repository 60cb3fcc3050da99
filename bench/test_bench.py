"""Tests of the benchmark itself, at tiny workload sizes."""

import json
import re

import pytest

import run
import workloads
from tracer import Tracer

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_smoke(workload, traced):
    outcome = run.run(workload, 11, 0, traced, workloads.TINY[workload])
    result = outcome["result"]
    assert result["correct"], outcome["detail"]["failures"]
    assert result["failed"] == 0 and result["attempted"] > 0
    expected = run.PER_LAYER if traced else run.END_TO_END
    assert {name: m["unit"] for name, m in result["metrics"].items()} == expected
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
    assert outcome["provenance"]["traced"] is traced
    assert outcome["provenance"]["params"] == workloads.TINY[workload]


def test_metric_names_and_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    for group, names in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[group]} == names
        assert all(NAME.fullmatch(name) for name in names)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_run_writes_the_same_bytes(workload, tmp_path):
    program = run.import_program()
    bench = run.Bench(program, workload, 3, workloads.TINY[workload], tmp_path)
    try:
        path = bench.scenarios[0][0]
        plain = bench.rep(path, tmp_path / "plain")
        tracer = Tracer()
        with tracer.installed(program):
            traced = bench.rep(path, tmp_path / "traced", tracer)
    finally:
        bench.close()
    assert bench.tally.failed == 0, bench.tally.messages
    assert traced["digests"] == plain["digests"]
    assert len(plain["digests"]) == 1 + len(workloads.REPORTS[workload])
    assert tracer.layer_metrics(0)["sim.step.s"] > 0
    # wrappers are removed again
    assert not hasattr(program.sim.World.step, "__wrapped__")
    assert not hasattr(program.cli.run_scenario, "__wrapped__")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generators_are_deterministic(workload):
    generate = workloads.WORKLOADS[workload][0]
    params = workloads.TINY[workload]
    first = json.dumps(generate(5, **params), sort_keys=True)
    assert json.dumps(generate(5, **params), sort_keys=True) == first
    assert json.dumps(generate(6, **params), sort_keys=True) != first


def test_missing_program_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(SystemExit) as exc:
        run.import_program()
    assert exc.value.code != 0
