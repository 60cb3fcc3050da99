"""Every row shortcut of the epoch loop against an oracle with no memo.

``World`` builds each row's ``locks`` and ``base_votes`` through shortcuts:
entries shared by value (``_entries``) and a ``base_votes`` map reused while
``GaugeController.allocations_version`` holds.  After each ``World.step`` the
oracle rebuilds those fields, ``token_totals`` and the ledger digest from
protocol state alone and compares them with the row through
``canonical_json``.  After the run it
encodes every row again: a shared entry mutated by a later epoch changes an
earlier row's bytes.  The trace writer, which takes a member's text from the
previous row where it holds the previous row's objects, must write each row
as ``canonical_json`` wrote it when it was built.

Settlement moves tokens once per (token, account) per round, after every
gauge is settled.  The oracle copies the ledger just before each
``settle_round``, replays the row's recorded ``payouts`` and ``refunds`` on
the copy as one transfer per cut, and compares the balances with the ledger
just after the batched settlement.

The direct-lock ``CostFold`` must read each run's rows, and must refuse them
at the right row and key once a ballot equal to the voter's ballot in the
snapshot row before is replaced by an equal one of float basis points
(``{"0": 1.0} == {"0": 1}``)."""

import copy
import hashlib
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim.errors import ScenarioError
from vetokensim.ledger import canonical_json
from vetokensim.metrics import CostFold, fold
from vetokensim.scenario import load_scenario, packaged_scenarios, scenario_from_dict
from vetokensim.sim import World
from vetokensim.trace import SimTrace

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
    header = world.header()
    assert list(SimTrace(header, rows).lines()) == [canonical_json({"type": "header", **header}), *built]
    voters = {account for row in rows for account in row["base_votes"]}  # the aggregator's account too
    check_cost_fold(rows, sorted(voters.union(agent.account for agent in config.agents)))
    return cuts


def direct_lock_error(rows: list, actors: list) -> str | None:
    """The error a direct-lock fold of ``rows`` or its ``final()`` raises, or None."""
    folded = CostFold({}, "direct-lock", actors)
    try:
        fold(SimTrace({}, rows), folded)
        folded.final()
    except ScenarioError as exc:
        return str(exc)
    return None


def check_cost_fold(rows: list, actors: list) -> None:
    """The direct-lock fold reads ``rows``.  It refuses them at the right row
    and key once one ballot, in a copy of its row, has float basis points: the
    ballot of the first of ``actors`` that holds an equal ballot in the
    snapshot row before, in the last snapshot row where one does."""
    assert direct_lock_error(rows, actors) is None
    snapshots = [i for i, row in enumerate(rows) if row["snapshot"] is not None]
    for before, at in reversed(list(zip(snapshots, snapshots[1:]))):
        earlier, ballots = rows[before]["base_votes"], rows[at]["base_votes"]
        for actor, ballot in ballots.items():
            if actor in actors and ballot and ballot == earlier.get(actor):
                floats = {gauge: float(bps) for gauge, bps in ballot.items()}
                changed = [*rows[:at], {**rows[at], "base_votes": {**ballots, actor: floats}}, *rows[at + 1:]]
                gauge, bps = next(iter(floats.items()))
                where = f"trace epoch {rows[at]['epoch']}: base_votes.{actor}.{gauge}"
                assert direct_lock_error(changed, actors) == f"{where}: expected an integer, got {bps!r}"
                return


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
