"""Call counts as a regression guard for the direct-locker path and the
report path.

Each direct locker's epoch costs an observation, a ``decide``, the apply of
its actions, weight reads, and the run summary's ratio reads.  Doubling the
lockers must double those calls: a per-locker cost that grows with the
number of lockers would show here as a ratio near 4.  Doubling the gauges
must leave the per-agent calls as they are and at most double, with some
slack, the settlement's pro-rata splits and the kernel's sums.

A report fold reads each gauge-keyed map of a row once and takes its entries
from the map, so its path reads (``Fields._get``) do not grow with the number
of gauges; and a report parses every row with the reader's scanner, so it
calls ``json.loads`` only for the header.

The trace writer encodes only what the previous row does not hold: its
``canonical_json`` calls must be the number its reuse rule gives for the
rows (``test_trace_io.writer_encodes``), not one per row.  Counts do not
drift with the host as times do, so nothing here is timed."""

import json

import pytest

from vetokensim import agents, bribemarket, cli, escrow, metrics, scenario, sim, trace
from vetokensim.scenario import scenario_from_dict

from test_acceptance import _randomized_scenario
from test_golden import _direct_lockers_scenario
from test_trace_io import writer_encodes

# name -> (owner, attribute): each is wrapped where its callers look it up
COUNTED = {
    "sim.decide": (sim, "decide"),
    "World._observation": (sim.World, "_observation"),
    "World._apply": (sim.World, "_apply"),
    "Escrow.weight_numerator": (escrow.Escrow, "weight_numerator"),
    "Fields.ratio": (scenario.Fields, "ratio"),
}


def call_counts(lockers: int) -> dict[str, int]:
    """Calls of each ``COUNTED`` name in ``run``'s path: the epoch loop and the summary."""
    counts = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name, (owner, attribute) in COUNTED.items():
            def counted(*args, _name=name, _original=getattr(owner, attribute), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(owner, attribute, counted)
        config = scenario_from_dict(_direct_lockers_scenario(lockers, horizon=24, seed=2024))
        cli._summarize(config, sim.run_scenario(config))
    return counts


def test_direct_locker_work_doubles_with_the_lockers():
    small, large = call_counts(24), call_counts(48)
    for name in COUNTED:
        assert small[name] > 0, f"{name} is never called"
        assert 1.8 <= large[name] / small[name] <= 2.2, f"{name}: {small[name]} -> {large[name]}"


def calls(owner, attribute: str, work) -> int:
    """How often ``work()`` calls ``owner.attribute``."""
    count = 0
    original = getattr(owner, attribute)

    def counted(*args, **kwargs):
        nonlocal count
        count += 1
        return original(*args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(owner, attribute, counted)
        work()
    return count


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
