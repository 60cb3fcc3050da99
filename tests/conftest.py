import copy

import pytest

from vetokensim.ledger import Ledger, PriceSeries, base_units
from vetokensim.sim import run_scenario

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


@pytest.fixture(scope="session")
def randomized_1000():
    """(config, trace) of the randomized-1000 scenario, run once per session;
    its consumers only read the trace."""
    from test_acceptance import _randomized_config  # it imports this module

    config = _randomized_config()
    return config, run_scenario(config)


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
