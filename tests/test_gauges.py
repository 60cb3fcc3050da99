import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim.errors import GaugeError
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.gauges import BPS, EmissionSchedule, GaugeController, shares_to_bps
from vetokensim.ledger import Ledger

from conftest import U


def build(schedule_entries=(), max_weeks=208):
    ledger = Ledger()
    ledger.register_token("CRV")
    escrow = Escrow(EscrowConfig(token="CRV", max_lock_weeks=max_weeks), ledger)
    controller = GaugeController(escrow, ledger, EmissionSchedule(schedule_entries), "CRV")
    return ledger, escrow, controller


def give_weight(ledger, escrow, account, tokens, weeks=208, now=0):
    ledger.mint("CRV", account, U(tokens))
    escrow.create_lock(account, U(tokens), now + weeks, now)


def shares(weights):
    """Exact relative weights from ``relative_weights`` numerators."""
    total = sum(weights.values())
    return {g: Fraction(num, total) if total else Fraction(0) for g, num in weights.items()}


class TestAddGauge:
    def test_first_id_is_zero(self):
        _, _, controller = build()
        assert controller.add_gauge([("P", 10000)]) == 0

    def test_ids_distinct(self):
        _, _, controller = build()
        first = controller.add_gauge([("P", 10000)])
        second = controller.add_gauge([("Q", 10000)])
        assert (first, second) == (0, 1)


class TestEmissionSchedule:
    def test_abutting_ranges_switch_rate_at_the_boundary(self):
        # [0, 4) at 100 a week, then [4, 9) at 60: each range is half-open
        schedule = EmissionSchedule([(4, 9, 60), (0, 4, 100)])
        assert [schedule.amount_for(e) for e in (0, 3, 4, 8, 9)] == [100, 100, 60, 60, 0]


class TestCheckAllocation:
    def test_zero_bps_entries_are_dropped(self):
        _, _, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        assert controller.check_allocation([(0, 0), (1, 10000)]) == {1: 10000}

    @pytest.mark.parametrize("bps", [True, False])
    def test_a_bool_is_not_bps(self, bps):
        # ``isinstance(True, int)`` holds, so the type is checked exactly
        _, _, controller = build()
        controller.add_gauge([("P", 10000)])
        with pytest.raises(GaugeError, match="bps for gauge 0 must be a non-negative int"):
            controller.check_allocation([(0, bps)])


class TestVoteForGaugeWeights:
    def test_single_voter_owns_snapshot(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        give_weight(ledger, escrow, "A", 100)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        assert shares(controller.relative_weights(0)) == {0: Fraction(1)}

    def test_split_allocation(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100)
        controller.vote_for_gauge_weights("A", [(0, 6000), (1, 4000)], 0)
        weights = shares(controller.relative_weights(0))
        assert weights[0] == Fraction(6, 10)
        assert weights[1] == Fraction(4, 10)

    def test_only_a_changed_vote_moves_the_version(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100)
        assert controller.allocations_version == 0
        controller.vote_for_gauge_weights("A", [(0, 6000), (1, 4000)], 0)
        stored = controller.allocations["A"]
        assert controller.allocations_version == 1
        # an equal re-vote, in either order, keeps the stored dict
        controller.vote_for_gauge_weights("A", [(1, 4000), (0, 6000)], 1)
        controller.vote_for_gauge_weights("A", [(0, 6000), (1, 4000)], 2)
        assert controller.allocations["A"] is stored
        assert controller.allocations_version == 1
        controller.vote_for_gauge_weights("A", [(0, 10000), (1, 0)], 3)
        assert controller.allocations == {"A": {0: 10000}}
        assert controller.allocations_version == 2

    def test_bps_overflow(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100)
        with pytest.raises(GaugeError):
            controller.vote_for_gauge_weights("A", [(0, 7000), (1, 4000)], 0)

    def test_zero_weight_voter(self):
        _, _, controller = build()
        controller.add_gauge([("P", 10000)])
        with pytest.raises(GaugeError):
            controller.vote_for_gauge_weights("nobody", [(0, 10000)], 0)

    def test_unknown_gauge(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        give_weight(ledger, escrow, "A", 100)
        with pytest.raises(GaugeError):
            controller.vote_for_gauge_weights("A", [(5, 10000)], 0)

    def test_vote_persists_with_decayed_weight(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100, weeks=100)
        give_weight(ledger, escrow, "B", 100, weeks=208)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        controller.vote_for_gauge_weights("B", [(1, 10000)], 0)
        later = shares(controller.relative_weights(50))
        # A decays to 50/208 weight, B to 158/208; shares follow with no re-vote
        assert later[0] == Fraction(50, 50 + 158)
        assert later[1] == Fraction(158, 50 + 158)


class TestRelativeWeights:
    def test_two_voters(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100)
        give_weight(ledger, escrow, "B", 300)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        controller.vote_for_gauge_weights("B", [(1, 10000)], 0)
        weights = controller.relative_weights(0)
        assert weights[1] == 3 * weights[0]
        assert shares(weights) == {0: Fraction(1, 4), 1: Fraction(3, 4)}

    def test_no_votes_all_zero_and_no_emissions(self):
        _, _, controller = build(schedule_entries=[(0, 10, U(1000))])
        controller.add_gauge([("P", 10000)])
        assert controller.relative_weights(0) == {0: 0}
        controller.take_snapshot(0)
        assert controller.distribute_emissions(0) == []

    def test_matches_brute_force_double_loop(self):
        # oracle: independent nested summation over voters x gauges
        rng = random.Random(99)
        ledger, escrow, controller = build()
        for g in range(3):
            controller.add_gauge([(f"lp{g}", 10000)])
        allocations = {}
        for i in range(5):
            account = f"acct{i}"
            give_weight(ledger, escrow, account, rng.randint(1, 500), weeks=rng.randint(1, 208))
            splits = [rng.randint(0, 3000) for _ in range(3)]
            allocations[account] = splits
            controller.vote_for_gauge_weights(account, list(enumerate(splits)), 0)
        now = 7
        raw = {g: Fraction(0) for g in range(3)}
        for account, splits in allocations.items():
            for g, bps in enumerate(splits):
                raw[g] += escrow.voting_weight(account, now) * Fraction(bps, BPS)
        total = sum(raw.values(), Fraction(0))
        expected = {g: raw[g] / total for g in range(3)}
        assert shares(controller.relative_weights(now)) == expected

    def test_snapshot_recompute_is_idempotent(self):
        ledger, escrow, controller = build()
        controller.add_gauge([("P", 10000)])
        give_weight(ledger, escrow, "A", 100)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        assert controller.take_snapshot(3) == controller.take_snapshot(3)


class TestDistributeEmissions:
    def test_quarter_three_quarter_split(self):
        ledger, escrow, controller = build(schedule_entries=[(0, 10, U(1000))])
        controller.add_gauge([("P", 10000)])
        controller.add_gauge([("Q", 10000)])
        give_weight(ledger, escrow, "A", 100)
        give_weight(ledger, escrow, "B", 300)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        controller.vote_for_gauge_weights("B", [(1, 10000)], 0)
        controller.take_snapshot(0)
        events = controller.distribute_emissions(0)
        assert events == [(0, "P", U(250)), (1, "Q", U(750))]
        assert ledger.balance("P", "CRV") == U(250)

    def test_remainder_goes_to_largest_weight_lowest_id(self):
        # oracle: exact rational split of 100 base units at weights 1/3 each is
        # 33.33..; flooring gives 33 apiece and the remainder lands on gauge 0
        ledger, escrow, controller = build(schedule_entries=[(0, 10, 100)])
        for g in range(3):
            controller.add_gauge([(f"lp{g}", 10000)])
        give_weight(ledger, escrow, "A", 300)
        controller.vote_for_gauge_weights("A", [(0, 3333), (1, 3333), (2, 3333)], 0)
        controller.take_snapshot(0)
        events = controller.distribute_emissions(0)
        assert events == [(0, "lp0", 34), (1, "lp1", 33), (2, "lp2", 33)]
        assert sum(amount for _, _, amount in events) == 100

    def test_requires_snapshot(self):
        _, _, controller = build(schedule_entries=[(0, 10, 100)])
        controller.add_gauge([("P", 10000)])
        with pytest.raises(GaugeError):
            controller.distribute_emissions(0)

    def test_lp_split_with_remainder(self):
        ledger, escrow, controller = build(schedule_entries=[(0, 10, 101)])
        controller.add_gauge([("P", 6000), ("Q", 4000)])
        give_weight(ledger, escrow, "A", 10)
        controller.vote_for_gauge_weights("A", [(0, 10000)], 0)
        controller.take_snapshot(0)
        events = controller.distribute_emissions(0)
        # 101 * 0.6 = 60.6 -> 60, 101 * 0.4 = 40.4 -> 40, remainder 1 to P
        assert events == [(0, "P", 61), (0, "Q", 40)]


@settings(max_examples=40, deadline=None)
@given(
    emission=st.integers(min_value=0, max_value=10**24),
    splits=st.lists(st.integers(min_value=0, max_value=2500), min_size=2, max_size=4),
)
def test_emission_conservation(emission, splits):
    ledger, escrow, controller = build(schedule_entries=[(0, 1, emission)])
    for g in range(len(splits)):
        controller.add_gauge([(f"lp{g}", 10000)])
    give_weight(ledger, escrow, "A", 100)
    if sum(splits) == 0:
        return
    controller.vote_for_gauge_weights("A", list(enumerate(splits)), 0)
    controller.take_snapshot(0)
    events = controller.distribute_emissions(0)
    assert sum(amount for _, _, amount in events) == emission
    ledger.assert_conservation()


class TestSharesToBps:
    def test_exact_shares(self):
        assert shares_to_bps({0: Fraction(1, 4), 1: Fraction(3, 4)}) == {0: 2500, 1: 7500}

    def test_rounding_stays_within_one_bp(self):
        shares = {0: Fraction(1, 3), 1: Fraction(1, 3), 2: Fraction(1, 3)}
        bps = shares_to_bps(shares)
        assert sum(bps.values()) == BPS
        for g in shares:
            assert abs(bps[g] - Fraction(10000, 3)) < 1

    def test_empty(self):
        assert shares_to_bps({}) == {}
        assert shares_to_bps({0: 0}) == {}

    def test_custom_total(self):
        assert shares_to_bps({0: 1, 1: 1}, total_bps=8500) == {0: 4250, 1: 4250}
