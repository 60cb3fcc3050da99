import contextlib
import copy
import io
import json
import time
from pathlib import Path
from typing import NamedTuple

import pytest

from vetokensim import cli
from vetokensim.ledger import Ledger, PriceSeries, base_units
from vetokensim.scenario import ScenarioConfig
from vetokensim.sim import run_scenario
from vetokensim.trace import SimTrace

U = base_units

SCENARIO_TEMPLATE = {
    "name": "mini",
    "horizon_epochs": 5,
    "round_length": 2,
    "base_snapshot_cadence": 1,
    "rng_seed": 7,
    "tokens": [
        {"symbol": "CRV", "transferable": True},
        {"symbol": "CVX", "transferable": True},
        {"symbol": "cvxCRV", "transferable": True},
        {"symbol": "BRIBE-USD", "transferable": True},
    ],
    "price_series": {
        "CRV": [[0, 1.0]],
        "CVX": [[0, 1.0]],
        "cvxCRV": [[0, 1.0]],
        "BRIBE-USD": [[0, 1.0]],
    },
    "initial_balances": [],
    "contract_accounts": ["agg"],
    "base_escrow": {
        "token": "CRV",
        "min_lock_weeks": 1,
        "max_lock_weeks": 208,
        "whitelist": ["agg"],
        "whitelist_enforced": True,
    },
    "gov_escrow": {"token": "CVX", "min_lock_weeks": 1, "max_lock_weeks": 16},
    "aggregator": {"protocol_account": "agg", "wrapper_token": "cvxCRV", "gov_token": "CVX"},
    "gauges": [{"name": "g0", "lp_accounts": [["lp0", 10000]]}],
    "emission_schedule": [],
    "agents": [],
}


def make_scenario(**overrides) -> dict:
    raw = copy.deepcopy(SCENARIO_TEMPLATE)
    raw.update(overrides)
    return raw


def write_trace(path, rows, **header) -> None:
    """Write ``rows``, which hold only the fields a test needs, as a trace file
    the reader takes: a header with ``format_version`` 1, ``protocol_account``
    "agg" (both unless given) and ``horizon_epochs`` one past the last row's
    epoch, then a row per epoch, a bare ``{"epoch": n}`` where ``rows`` has
    none.  Each row keeps its epoch, so an error still names it."""
    by_epoch = {row["epoch"]: row for row in rows}
    horizon = max(by_epoch) + 1
    lines = [{"type": "header", "format_version": 1, "protocol_account": "agg", "horizon_epochs": horizon, **header}]
    lines += [by_epoch.get(epoch, {"epoch": epoch}) for epoch in range(horizon)]
    Path(path).write_text("".join(json.dumps(line) + "\n" for line in lines))


class RandomizedRun(NamedTuple):
    out_dir: Path  # the --out directory: trace.ndjson and summary.json
    config: ScenarioConfig
    trace: SimTrace  # the in-memory trace ``run`` wrote
    run_seconds: float  # how long ``cli.run_scenario`` took
    stdout: str


@pytest.fixture(scope="session")
def randomized_run(tmp_path_factory):
    """``vetokensim run`` of the randomized-1000 scenario, once per session,
    keeping what ``cli.run_scenario`` returned; its consumers only read it."""
    from test_acceptance import _randomized_scenario  # it imports this module

    work = tmp_path_factory.mktemp("randomized")
    scenario, out_dir = work / "scenario.json", work / "out"
    scenario.write_text(json.dumps(_randomized_scenario()))
    runs = []

    def timed_run(config):
        started = time.monotonic()
        trace = run_scenario(config)
        runs.append((config, trace, time.monotonic() - started))
        return trace

    stdout = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, contextlib.redirect_stdout(stdout):
        patch.setattr(cli, "run_scenario", timed_run)
        assert cli.main(["run", str(scenario), "--out", str(out_dir)]) == 0
    (config, trace, seconds), = runs
    return RandomizedRun(out_dir, config, trace, seconds, stdout.getvalue())


@pytest.fixture(scope="session")
def randomized_1000(randomized_run):
    """(config, trace) of the randomized-1000 run."""
    return randomized_run.config, randomized_run.trace


@pytest.fixture
def scenario_dict():
    return make_scenario


@pytest.fixture
def ledger():
    book = Ledger()
    for symbol in ("CRV", "CVX", "cvxCRV", "BRIBE-USD"):
        book.register_token(symbol)
    book.register_token("SBT", transferable=False)
    return book


@pytest.fixture
def prices():
    series = PriceSeries()
    for symbol in ("CRV", "CVX", "cvxCRV", "BRIBE-USD"):
        series.add_point(symbol, 0, 1.0)
    return series
