"""Voting market: bribe deposits against (round, gauge) pairs, paid out
pro-rata to the meta-voters who directed weight to the bribed gauge.

Deposits sit in a reserved market escrow account until settlement, so ledger
conservation covers them.  Payouts are exact to the base unit: flooring
remainders are handed out by largest fractional share (ties by account id).
A bribed gauge that attracted no votes refunds its bribers in full.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .aggregator import Aggregator
from .errors import BribeMarketError, PriceError
from .ledger import Ledger, PriceSeries, check_amount


class BribeDeposit(NamedTuple):
    round_id: int
    gauge_id: int
    briber: str
    token: str
    amount: int


class GaugeSettlement:
    def __init__(self):
        self.deposits: dict[str, int] = {}  # token -> amount
        self.deposits_by_briber: dict[str, dict[str, int]] = {}
        self.bribe_usd = 0.0
        self.briber_usd: dict[str, float] = {}
        self.vote_num = 0  # the weight voted for the gauge, over the round's cut_den
        self.usd_per_vote: float | None = None
        self.payouts: dict[str, dict[str, int]] = {}
        self.refunds: dict[str, dict[str, int]] = {}


class RoundSettlement:
    def __init__(self, round_id: int, close_epoch: int):
        self.round_id = round_id
        self.close_epoch = close_epoch
        self.gauges: dict[int, GaugeSettlement] = {}


def _prorata(total: int, weights: dict[str, int]) -> dict[str, int]:
    """Split an integer amount by integer weight, exactly (largest remainder, id ties).

    Every quota ``total * w / grand`` shares the denominator ``grand``, so its
    floor and fractional part are the quotient and remainder of one divmod.
    """
    grand = sum(weights.values())
    floors: dict[str, int] = {}
    remainders: list[tuple[int, str]] = []
    for who in sorted(weights):
        floors[who], remainder = divmod(total * weights[who], grand)
        remainders.append((remainder, who))
    leftover = total - sum(floors.values())
    for _, who in sorted(remainders, key=lambda item: (-item[0], item[1]))[:leftover]:
        floors[who] += 1
    return floors


def _check_usd(value: float, gauge_id: int, name: str) -> None:
    if not math.isfinite(value):
        raise PriceError(f"gauge {gauge_id} {name} overflows a float")


class BribeMarket:
    def __init__(
        self,
        ledger: Ledger,
        aggregator: Aggregator,
        prices: PriceSeries,
        escrow_account: str = "bribe-market-escrow",
    ):
        self.ledger = ledger
        self.aggregator = aggregator
        self.prices = prices
        self.escrow_account = escrow_account
        self.deposits: dict[int, list[BribeDeposit]] = {}
        self.settled: set[int] = set()

    def post_bribe(self, round_id: int, gauge_id: int, briber: str, token: str, amount: int, now: int) -> BribeDeposit:
        check_amount(amount)
        if amount == 0:
            raise BribeMarketError("bribe amount must be positive")
        rnd = self.aggregator._require_round(round_id)
        if rnd.finalized or now >= rnd.close_epoch:
            raise BribeMarketError(f"round {round_id} is closed to new bribes")
        if gauge_id not in self.aggregator.controller.gauges:
            raise BribeMarketError(f"unknown gauge {gauge_id}")
        self.ledger.transfer(token, briber, self.escrow_account, amount)
        deposit = BribeDeposit(round_id, gauge_id, briber, token, amount)
        self.deposits.setdefault(round_id, []).append(deposit)
        return deposit

    def settle_round(self, round_id: int) -> RoundSettlement:
        rnd = self.aggregator._require_round(round_id)
        if not rnd.finalized:
            raise BribeMarketError(f"round {round_id} is not finalized yet")
        if round_id in self.settled:
            raise BribeMarketError(f"round {round_id} already settled")
        settlement = RoundSettlement(round_id, rnd.close_epoch)
        for deposit in self.deposits.pop(round_id, ()):
            gs = settlement.gauges.setdefault(deposit.gauge_id, GaugeSettlement())
            gs.deposits[deposit.token] = gs.deposits.get(deposit.token, 0) + deposit.amount
            per_briber = gs.deposits_by_briber.setdefault(deposit.briber, {})
            per_briber[deposit.token] = per_briber.get(deposit.token, 0) + deposit.amount
        # gauge -> {voter: integer cut over rnd.cut_den}, one pass over the voters
        voters_by_gauge: dict[int, dict[str, int]] = {}
        for voter in sorted(rnd.voter_gauge_num):
            for gauge_id, cut in rnd.voter_gauge_num[voter].items():
                if cut > 0:
                    voters_by_gauge.setdefault(gauge_id, {})[voter] = cut
        for gauge_id in sorted(settlement.gauges):
            self._settle_gauge(rnd, gauge_id, settlement.gauges[gauge_id], voters_by_gauge.get(gauge_id, {}))
        # the share table sums the round's bribe_usd in gauge order, as here
        if not math.isfinite(sum(gs.bribe_usd for _, gs in sorted(settlement.gauges.items()))):
            raise PriceError("the round's bribe_usd total overflows a float")
        self.settled.add(round_id)
        return settlement

    def _settle_gauge(self, rnd, gauge_id: int, gs: GaugeSettlement, voters: dict[str, int]) -> None:
        close = rnd.close_epoch
        gs.vote_num = sum(voters.values())
        gs.bribe_usd = sum(
            self.prices.usd_value(token, amount, close) for token, amount in sorted(gs.deposits.items())
        )
        gs.briber_usd = {
            briber: sum(self.prices.usd_value(t, a, close) for t, a in sorted(tokens.items()))
            for briber, tokens in sorted(gs.deposits_by_briber.items())
        }
        # each briber_usd sums terms no larger than those of bribe_usd, so it is finite too
        _check_usd(gs.bribe_usd, gauge_id, "bribe_usd")
        if gs.vote_num == 0:
            # nobody voted for the bribed gauge: return every deposit
            for briber, tokens in sorted(gs.deposits_by_briber.items()):
                for token, amount in sorted(tokens.items()):
                    self.ledger.transfer(token, self.escrow_account, briber, amount)
                    gs.refunds.setdefault(briber, {})[token] = amount
            return
        gs.usd_per_vote = gs.bribe_usd / (gs.vote_num / rnd.cut_den)
        _check_usd(gs.usd_per_vote, gauge_id, "usd_per_vote")
        for token, total in sorted(gs.deposits.items()):
            for voter, cut in _prorata(total, voters).items():
                if cut == 0:
                    continue
                self.ledger.transfer(token, self.escrow_account, voter, cut)
                gs.payouts.setdefault(voter, {})[token] = cut
