import random
from fractions import Fraction

import pytest

from vetokensim.aggregator import Aggregator
from vetokensim.errors import AggregatorError, EscrowError
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.gauges import BPS, EmissionSchedule, GaugeController
from vetokensim.ledger import Ledger

from conftest import U

PROTOCOL = "convex-like"


def build(whitelisted=True, gauges=2, base_weeks=208):
    ledger = Ledger()
    for symbol in ("CRV", "CVX", "cvxCRV"):
        ledger.register_token(symbol)
    whitelist = (PROTOCOL,) if whitelisted else ()
    base_escrow = Escrow(
        EscrowConfig(token="CRV", max_lock_weeks=base_weeks, whitelist=whitelist, whitelist_enforced=True),
        ledger,
        contract_accounts=frozenset([PROTOCOL]),
    )
    controller = GaugeController(base_escrow, ledger, EmissionSchedule(), "CRV")
    for g in range(gauges):
        controller.add_gauge([(f"lp{g}", 10000)])
    agg = Aggregator(
        ledger=ledger,
        base_escrow=base_escrow,
        controller=controller,
        protocol_account=PROTOCOL,
        wrapper_token="cvxCRV",
        gov_escrow_config=EscrowConfig(token="CVX", max_lock_weeks=16),
        contract_accounts=frozenset([PROTOCOL]),
        round_length=2,
    )
    return ledger, agg


def gov_lock(ledger, agg, account, tokens, weeks=16, now=0):
    ledger.mint("CVX", account, U(tokens))
    agg.gov_escrow.lock(account, U(tokens), now + weeks, now)


def result_shares(rnd):
    """Exact meta-round result shares from the round's tally numerators."""
    total = sum(rnd.tally_num.values())
    return {g: Fraction(num, total) for g, num in rnd.tally_num.items()}


class TestDepositAndLock:
    def test_one_to_one_wrapper_and_max_lock(self):
        ledger, agg = build()
        ledger.mint("CRV", "user", U(100))
        agg.deposit_and_lock("user", U(100), 0)
        assert ledger.balance("user", "cvxCRV") == U(100)
        lock = agg.base_escrow.locks[PROTOCOL]
        assert lock.amount == U(100)
        assert lock.unlock_epoch == 208

    def test_two_deposits_are_additive(self):
        ledger, agg = build()
        for user in ("u1", "u2"):
            ledger.mint("CRV", user, U(50))
            agg.deposit_and_lock(user, U(50), 0)
        assert agg.base_escrow.locks[PROTOCOL].amount == U(100)
        assert ledger.balance("u1", "cvxCRV") == U(50)
        assert ledger.balance("u2", "cvxCRV") == U(50)

    def test_non_whitelisted_protocol_account(self):
        ledger, agg = build(whitelisted=False)
        ledger.mint("CRV", "user", U(10))
        with pytest.raises(EscrowError):
            agg.deposit_and_lock("user", U(10), 0)

    def test_wrapper_supply_tracks_cumulative_deposits(self):
        ledger, agg = build()
        deposits = [3, 9, 5]
        for i, tokens in enumerate(deposits):
            ledger.mint("CRV", f"u{i}", U(tokens))
            agg.deposit_and_lock(f"u{i}", U(tokens), i)
        assert ledger.total_minted["cvxCRV"] == U(sum(deposits))

    def test_refresh_keeps_lock_at_maximum(self):
        ledger, agg = build()
        ledger.mint("CRV", "user", U(10))
        agg.deposit_and_lock("user", U(10), 0)
        agg.refresh_max_lock(40)
        assert agg.base_escrow.locks[PROTOCOL].unlock_epoch == 40 + 208
        assert agg.base_escrow.voting_weight(PROTOCOL, 40) == Fraction(10)

    def test_refresh_relocks_an_ended_lock_in_full(self):
        # a one-week maximum ends the pooled lock at the next epoch
        ledger, agg = build(base_weeks=1)
        ledger.mint("CRV", "user", U(10))
        agg.deposit_and_lock("user", U(10), 0)
        agg.refresh_max_lock(1)
        lock = agg.base_escrow.locks[PROTOCOL]
        assert (lock.amount, lock.unlock_epoch, lock.created_epoch) == (U(10), 2, 1)
        assert agg.base_escrow.voting_weight(PROTOCOL, 1) == Fraction(10)
        assert ledger.balance(PROTOCOL, "CRV") == 0
        ledger.assert_conservation()


class TestLockGovernance:
    def test_sixteen_to_one_equivalence(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 16, weeks=1)
        gov_lock(ledger, agg, "B", 1, weeks=16)
        assert agg.gov_escrow.voting_weight("A", 0) == agg.gov_escrow.voting_weight("B", 0)

    def test_seventeen_weeks_rejected(self):
        ledger, agg = build()
        ledger.mint("CVX", "A", U(1))
        with pytest.raises(EscrowError):
            agg.gov_escrow.lock("A", U(1), 17, 0)

    def test_half_weight_halfway(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 100, weeks=16)
        assert agg.gov_escrow.voting_weight("A", 8) == agg.gov_escrow.voting_weight("A", 0) / 2

    def test_second_lock_becomes_modify(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 10, weeks=16)
        ledger.mint("CVX", "A", U(5))
        agg.gov_escrow.lock("A", U(5), 16, 0)
        assert agg.gov_escrow.locks["A"].amount == U(15)


class TestCastMetaVote:
    def test_single_voter_all_in(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 10)
        agg.ensure_round(0)
        agg.cast_meta_vote("A", 0, [(0, 10000)], 1)
        allocation = agg.finalize_round(0, 2)
        assert result_shares(agg.rounds[0]) == {0: Fraction(1)}
        assert allocation == {0: 10000}

    def test_recast_replaces(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 10)
        agg.ensure_round(0)
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.cast_meta_vote("A", 0, [(1, 10000)], 1)
        agg.finalize_round(0, 2)
        assert result_shares(agg.rounds[0]) == {1: Fraction(1)}

    def test_zero_weight_voter_rejected(self):
        ledger, agg = build()
        agg.ensure_round(0)
        with pytest.raises(AggregatorError):
            agg.cast_meta_vote("nobody", 0, [(0, 10000)], 0)

    def test_closed_round_rejected(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 10)
        agg.ensure_round(0)
        with pytest.raises(AggregatorError):
            agg.cast_meta_vote("A", 0, [(0, 10000)], 2)

    def test_early_and_late_casts_weigh_the_same(self):
        results = []
        for cast_epoch in (0, 1):
            ledger, agg = build()
            gov_lock(ledger, agg, "A", 10)
            agg.ensure_round(0)
            agg.cast_meta_vote("A", 0, [(0, 10000)], cast_epoch)
            agg.finalize_round(0, 2)
            results.append(agg.rounds[0].counted_weight["A"])
        assert results[0] == results[1]


class TestFinalizeRound:
    def test_quarter_three_quarter(self):
        ledger, agg = build()
        ledger.mint("CRV", "user", U(100))
        agg.deposit_and_lock("user", U(100), 0)
        gov_lock(ledger, agg, "A", 10)
        gov_lock(ledger, agg, "B", 30)
        agg.ensure_round(0)
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.cast_meta_vote("B", 0, [(1, 10000)], 0)
        allocation = agg.finalize_round(0, 2)
        assert result_shares(agg.rounds[0]) == {0: Fraction(1, 4), 1: Fraction(3, 4)}
        assert allocation == {0: 2500, 1: 7500}
        # the pooled base vote was recast to match
        assert agg.controller.allocations[PROTOCOL] == {0: 2500, 1: 7500}

    def test_empty_round_keeps_previous_base_allocation(self):
        ledger, agg = build()
        ledger.mint("CRV", "user", U(100))
        agg.deposit_and_lock("user", U(100), 0)
        gov_lock(ledger, agg, "A", 10)
        agg.ensure_round(0)
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        before = dict(agg.controller.allocations[PROTOCOL])
        agg.ensure_round(2)
        allocation = agg.finalize_round(1, 4)
        assert agg.rounds[1].finalized and agg.rounds[1].tally_num == {} and allocation is None
        assert agg.controller.allocations[PROTOCOL] == before

    def test_double_finalize_rejected(self):
        ledger, agg = build()
        agg.ensure_round(0)
        agg.finalize_round(0, 2)
        with pytest.raises(AggregatorError):
            agg.finalize_round(0, 2)

    def test_open_round_rejected(self):
        ledger, agg = build()
        agg.ensure_round(0)
        with pytest.raises(AggregatorError):
            agg.finalize_round(0, 1)

    def test_random_rounds_match_brute_force_tally(self):
        # oracle: independent tally over (voter, gauge) plus exact bps check
        rng = random.Random(4242)
        ledger, agg = build(gauges=3)
        voters = {}
        for i in range(4):
            account = f"v{i}"
            tokens = rng.randint(1, 1000)
            gov_lock(ledger, agg, account, tokens, weeks=16)
            splits = [rng.randint(0, 3000) for _ in range(3)]
            voters[account] = splits
        agg.ensure_round(0)
        for account, splits in voters.items():
            agg.cast_meta_vote(account, 0, list(enumerate(splits)), 1)
        allocation = agg.finalize_round(0, 2)
        result = result_shares(agg.rounds[0])

        tally = {}
        for account, splits in voters.items():
            weight = agg.gov_escrow.voting_weight(account, 2)
            for g, bps in enumerate(splits):
                if bps:
                    tally[g] = tally.get(g, Fraction(0)) + weight * Fraction(bps, BPS)
        total = sum(tally.values(), Fraction(0))
        assert result == {g: w / total for g, w in tally.items()}
        assert sum(allocation.values()) <= BPS
        for g, share in result.items():
            assert abs(Fraction(allocation.get(g, 0), BPS) - share) < Fraction(1, BPS)

    def test_partial_ballots_renormalize_over_cast_weight(self):
        ledger, agg = build()
        gov_lock(ledger, agg, "A", 10)
        gov_lock(ledger, agg, "abstainer", 1000)  # locked but never votes
        agg.ensure_round(0)
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        assert result_shares(agg.rounds[0]) == {0: Fraction(1)}
