import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim.aggregator import Aggregator
from vetokensim.bribemarket import BribeMarket, _prorata
from vetokensim.errors import BribeMarketError
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.gauges import EmissionSchedule, GaugeController
from vetokensim.ledger import ONE, Ledger, PriceSeries

from conftest import U

PROTOCOL = "convex-like"


def build(gauges=2, bribe_price=1.0):
    ledger = Ledger()
    for symbol in ("CRV", "CVX", "cvxCRV", "BRIBE-USD"):
        ledger.register_token(symbol)
    prices = PriceSeries()
    for symbol in ("CRV", "CVX", "cvxCRV"):
        prices.add_point(symbol, 0, 1.0)
    prices.add_point("BRIBE-USD", 0, bribe_price)
    base_escrow = Escrow(EscrowConfig(token="CRV", max_lock_weeks=208), ledger)
    controller = GaugeController(base_escrow, ledger, EmissionSchedule(), "CRV")
    for g in range(gauges):
        controller.add_gauge(f"g{g}", [(f"lp{g}", 10000)])
    agg = Aggregator(
        ledger=ledger,
        base_escrow=base_escrow,
        controller=controller,
        protocol_account=PROTOCOL,
        wrapper_token="cvxCRV",
        gov_token="CVX",
        gov_escrow_config=EscrowConfig(token="CVX", max_lock_weeks=16),
        round_length=2,
    )
    market = BribeMarket(ledger, agg, prices)
    return ledger, agg, market


def gov_lock(ledger, agg, account, units, weeks=16, now=0):
    ledger.mint("CVX", account, units)
    agg.lock_governance(account, units, now + weeks, now)


def fund_and_post(ledger, market, briber, gauge, units, round_id=0, now=0):
    ledger.mint("BRIBE-USD", briber, units)
    market.post_bribe(round_id, gauge, briber, "BRIBE-USD", units, now)


class TestPostBribe:
    def test_deposit_moves_to_market_escrow(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(1000))
        assert ledger.balance(market.escrow_account, "BRIBE-USD") == U(1000)

    def test_deposits_accumulate(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(600))
        fund_and_post(ledger, market, "briber", 0, U(400))
        total = sum(d.amount for d in market.deposits[0] if d.gauge_id == 0)
        assert total == U(1000)

    def test_post_after_close_rejected(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        ledger.mint("BRIBE-USD", "briber", U(1))
        with pytest.raises(BribeMarketError):
            market.post_bribe(0, 0, "briber", "BRIBE-USD", U(1), 2)

    def test_insufficient_balance(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        with pytest.raises(Exception):
            market.post_bribe(0, 0, "poor", "BRIBE-USD", U(1), 0)


class TestSettleRound:
    def test_pro_rata_example(self):
        ledger, agg, market = build()
        gov_lock(ledger, agg, "A", U(10))
        gov_lock(ledger, agg, "B", U(30))
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(1000))
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.cast_meta_vote("B", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        settlement = market.settle_round(0)
        gs = settlement.gauges[0]
        assert gs.payouts["A"]["BRIBE-USD"] == U(250)
        assert gs.payouts["B"]["BRIBE-USD"] == U(750)
        assert ledger.balance("A", "BRIBE-USD") == U(250)

    def test_zero_votes_refund(self):
        ledger, agg, market = build()
        gov_lock(ledger, agg, "A", U(10))
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(1000))
        agg.cast_meta_vote("A", 0, [(1, 10000)], 0)  # votes elsewhere
        agg.finalize_round(0, 2)
        settlement = market.settle_round(0)
        assert settlement.gauges[0].refunds["briber"]["BRIBE-USD"] == U(1000)
        assert ledger.balance("briber", "BRIBE-USD") == U(1000)
        assert ledger.balance(market.escrow_account, "BRIBE-USD") == 0

    def test_settle_before_finalize_rejected(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        with pytest.raises(BribeMarketError):
            market.settle_round(0)

    def test_double_settlement_rejected(self):
        ledger, agg, market = build()
        agg.ensure_round(0)
        agg.finalize_round(0, 2)
        market.settle_round(0)
        with pytest.raises(BribeMarketError):
            market.settle_round(0)

    def test_random_instances_match_brute_force(self):
        # oracle: enumerate every (voter, gauge) pair, compute the exact
        # rational entitlement, apply the documented largest-remainder rule
        rng = random.Random(20230901)
        for _ in range(20):
            gauges = rng.randint(1, 3)
            ledger, agg, market = build(gauges=gauges)
            voters = {}
            for i in range(rng.randint(1, 5)):
                account = f"v{i}"
                units = rng.randint(1, 10**6) * ONE // 1000
                gov_lock(ledger, agg, account, units, weeks=rng.randint(1, 16))
                splits = [rng.randint(0, 3000) for _ in range(gauges)]
                voters[account] = splits
            agg.ensure_round(0)
            deposits = {}
            for g in range(gauges):
                if rng.random() < 0.8:
                    units = rng.randint(1, 10**9)
                    deposits[g] = units
                    fund_and_post(ledger, market, f"briber{g}", g, units)
            for account, splits in voters.items():
                if sum(splits) > 0 and agg.gov_escrow.voting_weight(account, 2) > 0:
                    agg.cast_meta_vote(account, 0, list(enumerate(splits)), 1)
            agg.finalize_round(0, 2)
            rnd = agg.rounds[0]
            settlement = market.settle_round(0)

            for g, total in deposits.items():
                weights = {
                    v: Fraction(per[g], rnd.cut_den)
                    for v, per in rnd.voter_gauge_num.items()
                    if per.get(g, 0) > 0
                }
                gs = settlement.gauges[g]
                if not weights:
                    assert gs.refunds[f"briber{g}"]["BRIBE-USD"] == total
                    continue
                grand = sum(weights.values(), Fraction(0))
                exact = {v: Fraction(total) * w / grand for v, w in weights.items()}
                floors = {v: int(q) for v, q in exact.items()}
                leftover = total - sum(floors.values())
                order = sorted(weights, key=lambda v: (-(exact[v] - floors[v]), v))
                for v in order[:leftover]:
                    floors[v] += 1
                expected = {v: cut for v, cut in floors.items() if cut}
                actual = {v: tokens["BRIBE-USD"] for v, tokens in gs.payouts.items()}
                assert actual == expected
                assert sum(actual.values()) == total  # conservation, exactly
            ledger.assert_conservation()


class TestDollarsPerVote:
    def test_simple_quotient(self):
        ledger, agg, market = build()
        gov_lock(ledger, agg, "A", U(640), weeks=16, now=0)
        # weight at close epoch 2: 640 * 14/16 = 560 ... use explicit value below
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(1000))
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        market.settle_round(0)
        rnd = agg.rounds[0]
        weight = rnd.tally_num[0] / rnd.cut_den
        assert market.settlements[0].gauges[0].vote_num == rnd.tally_num[0]
        assert market.settlements[0].gauges[0].usd_per_vote == pytest.approx(1000.0 / weight)

    def test_forty_weight_units(self):
        # $1000 of bribes against exactly 40 weight units -> 25 $/vote
        # (80 tokens locked to epoch 10 carry 80 * 8/16 = 40 weight at close 2)
        ledger, agg, market = build()
        gov_lock(ledger, agg, "A", U(80), weeks=10, now=0)
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(1000))
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        market.settle_round(0)
        assert Fraction(agg.rounds[0].tally_num[0], agg.rounds[0].cut_den) == 40
        assert market.settlements[0].gauges[0].usd_per_vote == 25.0

    @pytest.mark.parametrize(
        "usd,votes,expected",
        [
            # the two reference quotients: 103.69e6/6.72e9 and 64.74e6/2.88e9
            (103_690_000, 6_720_000_000, 0.0154),
            (64_740_000, 2_880_000_000, 0.0225),
        ],
    )
    def test_reference_quotients(self, usd, votes, expected):
        ledger, agg, market = build()
        # a lock with 8 of 16 weeks remaining at close carries half its tokens
        gov_lock(ledger, agg, "A", U(2 * votes), weeks=10, now=0)
        agg.ensure_round(0)
        fund_and_post(ledger, market, "briber", 0, U(usd))
        agg.cast_meta_vote("A", 0, [(0, 10000)], 0)
        agg.finalize_round(0, 2)
        market.settle_round(0)
        assert Fraction(agg.rounds[0].tally_num[0], agg.rounds[0].cut_den) == votes
        assert market.settlements[0].gauges[0].usd_per_vote == pytest.approx(expected, abs=0.0005)


class TestProrata:
    def test_exact_share_conservation(self):
        weights = {"a": 1, "b": 2, "c": 4}
        cuts = _prorata(700, weights)
        assert cuts == {"a": 100, "b": 200, "c": 400}

    def test_homogeneity(self):
        # scaling all weights by a common factor leaves payouts unchanged
        weights = {"a": 3, "b": 5, "c": 11}
        scaled = {k: w * 12345 for k, w in weights.items()}
        assert _prorata(10**9 + 7, weights) == _prorata(10**9 + 7, scaled)

    @given(
        total=st.integers(min_value=0, max_value=10**24),
        raw=st.lists(st.integers(min_value=1, max_value=10**12), min_size=1, max_size=6),
    )
    @settings(max_examples=60, deadline=None)
    def test_conservation_property(self, total, raw):
        weights = {f"v{i}": w for i, w in enumerate(raw)}
        cuts = _prorata(total, weights)
        assert sum(cuts.values()) == total
        grand = sum(weights.values())
        for who, cut in cuts.items():
            exact = Fraction(total) * weights[who] / grand
            assert abs(Fraction(cut) - exact) < 1

    def test_new_voter_dilutes_incumbents(self):
        # exact entitlements strictly decrease when a voter joins a bribed gauge
        total = 10**18
        incumbents = {"a": 5, "b": 9}
        grand = sum(incumbents.values())
        before = {v: Fraction(total) * w / grand for v, w in incumbents.items()}
        joined = dict(incumbents, c=3)
        grand2 = sum(joined.values())
        after = {v: Fraction(total) * w / grand2 for v, w in incumbents.items()}
        for v in incumbents:
            assert after[v] < before[v]
        # and the integer payouts follow (weakly at worst, strictly at this scale)
        cuts_before = _prorata(total, incumbents)
        cuts_after = _prorata(total, joined)
        for v in incumbents:
            assert cuts_after[v] < cuts_before[v]
