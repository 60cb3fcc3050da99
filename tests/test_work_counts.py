"""Call counts as a regression guard for the direct-locker path, the epoch
loop and the report path.

Each direct locker's epoch costs an observation, a ``decide``, the apply of
its actions, weight reads, and the run summary's ratio reads.  Doubling the
lockers must double those calls: a per-locker cost that grows with the
number of lockers would show here as a ratio near 4.  Doubling the agents of
the benchmark's mixed and bribe-market scenarios must double the per-agent
calls too, and may at most quadruple, with some slack, the settlement's
pro-rata splits, the ballots' basis-point splits and the kernel's sums, which
grow with voters times gauges.  Doubling the gauges must leave the per-agent
calls as they are and at most double, with some slack, the settlement's
pro-rata splits and the kernel's sums.

A report fold reads each gauge-keyed map of a row once and takes its entries
from the map, so its path reads (``Fields._get``) do not grow with the number
of gauges; and a report parses every row with the reader's scanner, so it
calls ``json.loads`` only for the header.

The trace writer encodes only what the previous row does not hold: its
``canonical_json`` calls must be the number its reuse rule gives for the
rows (``test_trace_io.writer_encodes``), not one per row.  The reader scans
alone only the lock entries whose text changed; on a trace whose rows repeat
no leading member it scans no lock entry alone.  Counts do not drift with the
host as times do, so nothing here is timed."""

import importlib.util
import json
from pathlib import Path

import pytest

from vetokensim import agents, aggregator, bribemarket, cli, escrow, metrics, scenario, sim, trace
from vetokensim.scenario import scenario_from_dict

from test_acceptance import _randomized_scenario
from test_golden import _direct_lockers_scenario
from test_trace_io import _compact, writer_encodes


def _bench_workloads():
    """``bench/workloads.py``, loaded from its file: the benchmark's scenario generators."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# name -> the (owner, attribute) pairs where its callers look it up; each is wrapped there
PER_AGENT = {
    "sim.decide": [(sim, "decide")],
    "World._observation": [(sim.World, "_observation")],
    "World._apply": [(sim.World, "_apply")],
    "Escrow.weight_numerator": [(escrow.Escrow, "weight_numerator")],
}
COUNTED = {**PER_AGENT, "metrics._parse_ratio": [(metrics, "_parse_ratio")]}


def call_counts(counted: dict, work) -> dict[str, int]:
    """Calls of each name in ``counted`` while ``work()`` runs."""
    counts = dict.fromkeys(counted, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name, owners in counted.items():
            for owner, attribute in owners:
                def counting(*args, _name=name, _original=getattr(owner, attribute), **kwargs):
                    counts[_name] += 1
                    return _original(*args, **kwargs)

                patch.setattr(owner, attribute, counting)
        work()
    return counts


def test_direct_locker_work_doubles_with_the_lockers():
    def run(lockers: int) -> dict[str, int]:
        """Calls in ``run``'s path: the epoch loop and the summary."""
        config = scenario_from_dict(_direct_lockers_scenario(lockers, horizon=24, seed=2024))
        return call_counts(COUNTED, lambda: cli._summarize(config, sim.run_scenario(config)))

    small, large = run(24), run(48)
    for name in COUNTED:
        assert small[name] > 0, f"{name} is never called"
        assert 1.8 <= large[name] / small[name] <= 2.2, f"{name}: {small[name]} -> {large[name]}"


# calls that may grow with followers times gauges, or with voters times gauges
PER_VOTE = {
    "bribemarket._prorata": [(bribemarket, "_prorata")],
    "shares_to_bps": [(agents, "shares_to_bps"), (aggregator, "shares_to_bps")],
    "agents.left_sum": [(agents, "left_sum")],
}


@pytest.mark.parametrize("workload", ["mixed", "bribe_market"])
def test_epoch_loop_work_grows_linearly_with_the_agents(workload):
    generate = getattr(_bench_workloads(), workload)

    def run(n: int) -> dict[str, int]:
        if workload == "mixed":
            raw = generate(7, agents=n, gauges=6, horizon=16)
        else:
            raw = generate(7, gauges=6, followers=n, bribers=n // 2, horizon=12)
        return call_counts(PER_AGENT | PER_VOTE, lambda: sim.run_scenario(scenario_from_dict(raw)))

    small, large = run(12), run(24)
    for name in PER_AGENT | PER_VOTE:
        assert small[name] > 0, f"{name} is never called"
        low, high = (1.8, 2.2) if name in PER_AGENT else (0, 4.4)
        assert low <= large[name] / small[name] <= high, f"{name}: {small[name]} -> {large[name]}"


def calls(owner, attribute: str, work) -> int:
    """How often ``work()`` calls ``owner.attribute``."""
    return call_counts({attribute: [(owner, attribute)]}, work)[attribute]


def test_epoch_loop_work_grows_at_most_with_the_gauges():
    def growth(owner, attribute: str) -> float:
        small, large = (calls(owner, attribute, lambda: sim.run_scenario(scenario_from_dict(
            _randomized_scenario(40, gauges, seed=6)))) for gauges in (6, 12))
        assert small > 0, f"{attribute} is never called"
        return large / small

    assert growth(sim, "decide") == growth(sim.World, "_observation") == 1  # the agents do not change
    assert growth(bribemarket, "_prorata") <= 2.2
    assert growth(agents, "left_sum") <= 2.2


@pytest.fixture(scope="module")
def gauge_traces():
    """Runs of one randomized scenario at 6 and at 12 gauges, same horizon and seed."""
    return {gauges: sim.run_scenario(scenario_from_dict(_randomized_scenario(40, gauges, seed=6)))
            for gauges in (6, 12)}


@pytest.mark.parametrize("report", [metrics.gauge_snapshots, metrics.round_results, metrics.share_table],
                         ids=lambda report: report.__name__)
def test_gauge_map_reads_do_not_grow_with_the_gauges(report, gauge_traces):
    small, large = (calls(scenario.Fields, "_get", lambda: report(gauge_traces[gauges])) for gauges in (6, 12))
    assert small > 0
    assert large / small <= 1.3, f"Fields._get: {small} -> {large}"


@pytest.mark.parametrize("argv", [["--metric", "share_table"], ["--metric", "snapshots"],
                                  ["--metric", "cost_per_vote", "--actor", "promo-0", "--avenue", "bribe"]],
                         ids=lambda argv: argv[1])
def test_a_report_parses_json_once_for_the_header(argv, gauge_traces, tmp_path):
    path = str(tmp_path / "trace.ndjson")
    gauge_traces[12].write_ndjson(path)
    out = ["--out", str(tmp_path / "out.csv")]
    assert calls(json, "loads", lambda: cli.main(["report", path, *argv, *out])) == 1


def test_the_writer_encodes_what_the_previous_row_does_not_hold():
    rows = sim.run_scenario(scenario_from_dict(_direct_lockers_scenario(48))).rows
    written = calls(trace, "canonical_json", lambda: list(trace.SimTrace({}, rows).lines()))
    assert written == 1 + writer_encodes(rows)  # the header, then what the rows do not share


def _scans(path: str) -> int:
    """The ``_scan`` calls of one pass over the trace file at ``path``."""
    return calls(trace, "_scan", lambda: list(trace.SimTrace.read_ndjson(path)))


def _changed_lock_entries(rows) -> int:
    """The lock entries whose text is not the previous row's entry at the same
    label and place in its label map."""
    changed, last = 0, {}
    for row in rows:
        for label, entries in row["locks"].items():
            before = [_compact(item) for item in last.get(label, {}).items()]
            changed += sum(index >= len(before) or _compact(item) != before[index]
                           for index, item in enumerate(entries.items()))
        last = row["locks"]
    return changed


def test_a_read_scans_only_the_changed_lock_entries_alone(tmp_path):
    path = str(tmp_path / "trace.ndjson")
    run = sim.run_scenario(scenario_from_dict(_direct_lockers_scenario()))
    run.write_ndjson(path)
    # per row at most: the first changed member's key and value, the members
    # before "locks" as one object, each of its two labels, and the rest
    assert _scans(path) <= 6 * len(run.rows) + 2 * _changed_lock_entries(run.rows)


def test_rows_that_repeat_no_leading_member_scan_no_lock_entry_alone(gauge_traces, tmp_path):
    path = str(tmp_path / "trace.ndjson")
    rows = gauge_traces[6].rows
    gauge_traces[6].write_ndjson(path)
    firsts = [_compact(row[min(row)]) for row in rows]
    assert all(map(str.__ne__, firsts, firsts[1:]))  # no row repeats its first member
    assert _scans(path) == 3 * len(rows)  # the first key, its value, and the rest in one scan
