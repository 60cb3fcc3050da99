"""Mutation tests: a packaged scenario with one field dropped or retyped is
rejected by the parser or builds a World, and a packaged trace row so mutated
fails with a typed error; neither ends in a traceback."""

import copy
import json
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim import metrics
from vetokensim.cli import REPORTS, main
from vetokensim.errors import ScenarioError
from vetokensim.scenario import load_scenario, packaged_scenarios, scenario_from_dict
from vetokensim.sim import World, run_scenario

DROP = "<drop>"
MUTATIONS = (DROP, None, True, -1, 2.5, "x", [], {}, [1], {"x": 1})


def _paths(node, path=()):
    """The key path of every value below ``node``, the root excluded."""
    entries = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, value in entries:
        yield path + (key,)
        yield from _paths(value, path + (key,))


def _mutated(document, path, mutation):
    """A deep copy of ``document`` with the value at ``path`` dropped or replaced."""
    document = copy.deepcopy(document)
    parent = document
    for key in path[:-1]:
        parent = parent[key]
    if mutation == DROP:
        del parent[path[-1]]
    else:
        parent[path[-1]] = copy.deepcopy(mutation)
    return document


SCENARIOS = {
    name: json.loads((resources.files("vetokensim") / "scenarios" / f"{name}.json").read_text())
    for name in packaged_scenarios()
}
SCENARIO_SITES = [(name, path) for name, raw in SCENARIOS.items() for path in _paths(raw)]


@settings(derandomize=True, max_examples=200, deadline=None)
@given(site=st.sampled_from(SCENARIO_SITES), mutation=st.sampled_from(MUTATIONS))
def test_mutated_scenario_is_rejected_or_builds(site, mutation):
    # the parser is the only gate: a scenario it accepts builds a World
    name, path = site
    try:
        config = scenario_from_dict(_mutated(SCENARIOS[name], path, mutation))
    except ScenarioError:
        return
    World(config)


# every --metric, and cost_per_vote for an account active in each avenue
REPORT_ARGS = [[metric] for metric in REPORTS if metric != "cost_per_vote"] + [
    ["cost_per_vote", "--actor", "frax", "--avenue", avenue] for avenue in metrics.AVENUES
]


@pytest.fixture(scope="module")
def short_trace(tmp_path_factory):
    """(work dir, header line, rows, every (row index, path) site) of
    frax-three-avenues cut to 6 epochs."""
    config = load_scenario("frax-three-avenues")._replace(horizon_epochs=6)
    header, *lines = run_scenario(config).lines()
    rows = [json.loads(line) for line in lines]
    sites = [(i, path) for i, row in enumerate(rows) for path in _paths(row)]
    return tmp_path_factory.mktemp("mutation"), header, rows, sites


def _report_codes(work, header, rows) -> list[int]:
    path = work / "trace.ndjson"
    path.write_text("\n".join([header] + [json.dumps(row) for row in rows]) + "\n")
    return [main(["report", str(path), "--metric", *args, "--out", str(work / "out")]) for args in REPORT_ARGS]


def test_short_trace_reports_every_metric(short_trace):
    # every bribe share is 0.5 here, so pearson alone is undefined (exit 2)
    work, header, rows, _ = short_trace
    assert _report_codes(work, header, rows) == [2 if args == ["pearson"] else 0 for args in REPORT_ARGS]


@settings(derandomize=True, max_examples=60, deadline=None)
@given(data=st.data())
def test_mutated_trace_row_exits_with_a_code(data, short_trace):
    work, header, rows, sites = short_trace
    index, path = data.draw(st.sampled_from(sites))
    mutation = data.draw(st.sampled_from(MUTATIONS))
    rows = rows[:index] + [_mutated(rows[index], path, mutation)] + rows[index + 1:]
    assert set(_report_codes(work, header, rows)) <= {0, 1, 2}
