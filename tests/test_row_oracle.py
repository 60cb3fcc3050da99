"""Every row shortcut of the epoch loop against an oracle with no memo.

``World`` builds each row's ``token_totals``, ``locks`` and ``base_votes``
through shortcuts: entries shared by value (``_entries``), token sums shared
with the row before (``_last_totals``), and a ``base_votes`` map reused while
``GaugeController.allocations_version`` holds.  After each ``World.step`` the
oracle rebuilds those fields and the ledger digest from protocol state alone
and compares them with the row through ``canonical_json``.  After the run it
encodes every row again: a shared entry mutated by a later epoch changes an
earlier row's bytes.

Settlement moves tokens once per (token, account) per round, after every
gauge is settled.  The oracle copies the ledger just before each
``settle_round``, replays the row's recorded ``payouts`` and ``refunds`` on
the copy as one transfer per cut, and compares the balances with the ledger
just after the batched settlement."""

import copy
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim.ledger import canonical_json
from vetokensim.scenario import load_scenario, packaged_scenarios, scenario_from_dict
from vetokensim.sim import World

from test_acceptance import _randomized_scenario
from test_golden import _direct_lockers_scenario

CHECKED = ("token_totals", "ledger_digest", "locks", "base_votes")


def rebuilt(world: World) -> dict:
    """The checked row fields, built from ``world``'s protocol state with no memo."""
    ledger = world.ledger
    book = {"balances": ledger.balances, "minted": ledger.total_minted, "escrow_held": ledger.escrow_held}
    escrows = {"base": world.base_escrow, "governance": world.aggregator.gov_escrow}
    return {
        "token_totals": {
            token: {
                "minted": ledger.total_minted[token],
                "balances": sum(ledger.balances[token].values()),
                "escrow_held": ledger.escrow_held[token],
            }
            for token in ledger.tokens
        },
        "ledger_digest": hashlib.sha256(json.dumps(book, sort_keys=True, separators=(",", ":")).encode()).hexdigest(),
        "locks": {
            label: {
                account: {"amount": lock.amount, "unlock_epoch": lock.unlock_epoch, "created_epoch": lock.created_epoch}
                for account, lock in escrow.locks.items()
            }
            for label, escrow in escrows.items()
        },
        "base_votes": {
            account: {str(gauge): bps for gauge, bps in allocation.items()}
            for account, allocation in world.controller.allocations.items()
        },
    }


def replay_settlement(ledger, settlement: dict, escrow_account: str) -> int:
    """Move each recorded cut of a row's ``settlement`` out of the market
    escrow, one ledger transfer per (gauge, account, token); return how many."""
    moved = 0
    for gauge in settlement["gauges"].values():
        for cuts in (gauge["payouts"], gauge["refunds"]):
            for account, tokens in cuts.items():
                for token, amount in tokens.items():
                    ledger.transfer(token, escrow_account, account, amount)
                    moved += 1
    return moved


def check_rows(config) -> int:
    """Step ``config`` epoch by epoch against the oracle; return the number of
    settlement cuts replayed."""
    world = World(config)
    settle, settled = world.market.settle_round, []

    def recorded_settle(round_id):
        # the ledger before the settlement, and the balances it leaves
        before = copy.deepcopy(world.ledger)
        settlement = settle(round_id)
        settled.append((before, copy.deepcopy(world.ledger.balances)))
        return settlement

    world.market.settle_round = recorded_settle
    rows, built, cuts = [], [], 0
    for epoch in range(config.horizon_epochs):
        row = world.step(epoch)
        fresh = rebuilt(world)
        for field in CHECKED:
            assert canonical_json(row[field]) == canonical_json(fresh[field]), f"epoch {epoch}: {field}"
        if settled:  # a step settles at most one round
            before, after = settled.pop()
            cuts += replay_settlement(before, row["settlement"], config.bribe_escrow_account)
            assert canonical_json(before.balances) == canonical_json(after), f"epoch {epoch}: settlement"
        rows.append(row)
        built.append(canonical_json(row))
    for epoch, (row, text) in enumerate(zip(rows, built)):
        assert canonical_json(row) == text, f"epoch {epoch} changed after it was built"
    return cuts


@pytest.mark.parametrize("name", sorted(packaged_scenarios()))
def test_packaged_rows_match_the_oracle(name):
    assert check_rows(load_scenario(name)) > 0  # every packaged scenario pays bribes out


@settings(max_examples=25, deadline=None)
@given(horizon=st.integers(2, 40), n_gauges=st.integers(3, 12), seed=st.integers(0, 10**6))
@example(horizon=40, n_gauges=12, seed=424242)
def test_randomized_rows_match_the_oracle(horizon, n_gauges, seed):
    check_rows(scenario_from_dict(_randomized_scenario(horizon, n_gauges, seed)))


@settings(max_examples=25, deadline=None)
@given(lockers=st.integers(3, 48), horizon=st.integers(2, 40), seed=st.integers(0, 10**6))
@example(lockers=48, horizon=24, seed=2024)
def test_direct_locker_rows_match_the_oracle(lockers, horizon, seed):
    check_rows(scenario_from_dict(_direct_lockers_scenario(lockers, horizon, seed)))
