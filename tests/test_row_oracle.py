"""Every row shortcut of the epoch loop against an oracle with no memo.

``World`` builds each row's ``token_totals``, ``locks`` and ``base_votes``
through shortcuts: entries shared by value (``_entries``), token sums shared
with the row before (``_last_totals``), and a ``base_votes`` map reused while
``GaugeController.allocations_version`` holds.  After each ``World.step`` the
oracle rebuilds those fields and the ledger digest from protocol state alone
and compares them with the row through ``canonical_json``.  After the run it
encodes every row again: a shared entry mutated by a later epoch changes an
earlier row's bytes.  The trace writer, which takes a member's text from the
previous row where it holds the previous row's objects, must write each row
as ``canonical_json`` wrote it when it was built.

Settlement moves tokens once per (token, account) per round, after every
gauge is settled.  The oracle copies the ledger just before each
``settle_round``, replays the row's recorded ``payouts`` and ``refunds`` on
the copy as one transfer per cut, and compares the balances with the ledger
just after the batched settlement.

The direct-lock ``CostFold`` sums a ballot's basis points once and reuses the
sum while later rows hold the same ballot object.  Each run's rows are folded
again with a fold whose cache never hits, and once more with a ballot that
equals the voter's ballot in the snapshot row before replaced by an equal
ballot of float basis points, which the fold must read again and refuse
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


class NeverHit(dict):
    """A cache that holds what it is given and never finds it."""

    def get(self, key, default=None):
        return default


class UncachedCostFold(CostFold):
    """``CostFold`` whose direct-lock ballot cache never hits, so every ballot is summed and checked."""

    def __init__(self, header, avenue, actors):
        super().__init__(header, avenue, actors)
        self._ballot_bps = NeverHit()


def direct_lock_outcome(fold_class, rows: list, actors: list):
    """``(votes, final())`` of a direct-lock fold of ``rows``, or its error's text."""
    folded = fold_class({}, "direct-lock", actors)
    try:
        fold(SimTrace({}, rows), folded)
        return folded.votes, folded.final()
    except ScenarioError as exc:
        return f"error: {exc}"


def retyped(rows: list, actors: list) -> list | None:
    """``rows`` with one ballot replaced, in a copy of its row, by the same
    ballot with float basis points: the ballot of the first of ``actors`` that
    holds an equal ballot in the snapshot row before, in the last snapshot row
    where one does; None if there is no such row."""
    snapshots = [i for i, row in enumerate(rows) if row["snapshot"] is not None]
    for before, at in reversed(list(zip(snapshots, snapshots[1:]))):
        earlier, ballots = rows[before]["base_votes"], rows[at]["base_votes"]
        for actor, ballot in ballots.items():
            if actor in actors and ballot and ballot == earlier.get(actor):
                retyped_ballots = {**ballots, actor: {gauge: float(bps) for gauge, bps in ballot.items()}}
                return [*rows[:at], {**rows[at], "base_votes": retyped_ballots}, *rows[at + 1:]]
    return None


def check_cost_fold(rows: list, actors: list) -> None:
    """The direct-lock fold of ``rows`` gives the uncached fold's votes and
    final values, and on ``retyped(rows)`` the uncached fold's error."""
    assert direct_lock_outcome(CostFold, rows, actors) == direct_lock_outcome(UncachedCostFold, rows, actors)
    changed = retyped(rows, actors)
    if changed is not None:
        refused = direct_lock_outcome(UncachedCostFold, changed, actors)
        assert refused.startswith("error: ")  # a float bps is not an integer
        assert direct_lock_outcome(CostFold, changed, actors) == refused


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
