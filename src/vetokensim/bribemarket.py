"""Voting market: bribe deposits against (round, gauge) pairs, paid out
pro-rata to the meta-voters who directed weight to the bribed gauge.

Deposits sit in a reserved market escrow account until settlement, so ledger
conservation covers them.  Payouts are exact to the base unit: flooring
remainders are handed out by largest fractional share (ties by account id).
A bribed gauge that attracted no votes refunds its bribers in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .aggregator import Aggregator
from .errors import BribeMarketError
from .ledger import Ledger, PriceSeries, check_amount


@dataclass(frozen=True)
class BribeDeposit:
    round_id: int
    gauge_id: int
    briber: str
    token: str
    amount: int


@dataclass
class GaugeSettlement:
    deposits: dict[str, int] = field(default_factory=dict)  # token -> amount
    deposits_by_briber: dict[str, dict[str, int]] = field(default_factory=dict)
    bribe_usd: float = 0.0
    briber_usd: dict[str, float] = field(default_factory=dict)
    vote_num: int = 0  # the weight voted for the gauge, over the round's cut_den
    usd_per_vote: float | None = None
    payouts: dict[str, dict[str, int]] = field(default_factory=dict)
    refunds: dict[str, dict[str, int]] = field(default_factory=dict)


@dataclass
class RoundSettlement:
    round_id: int
    close_epoch: int
    gauges: dict[int, GaugeSettlement] = field(default_factory=dict)


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
        self.settlements: dict[int, RoundSettlement] = {}

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
        if round_id in self.settlements:
            raise BribeMarketError(f"round {round_id} already settled")
        settlement = RoundSettlement(round_id, rnd.close_epoch)
        for deposit in self.deposits.get(round_id, ()):
            gs = settlement.gauges.setdefault(deposit.gauge_id, GaugeSettlement())
            gs.deposits[deposit.token] = gs.deposits.get(deposit.token, 0) + deposit.amount
            per_briber = gs.deposits_by_briber.setdefault(deposit.briber, {})
            per_briber[deposit.token] = per_briber.get(deposit.token, 0) + deposit.amount
        for gauge_id in sorted(settlement.gauges):
            self._settle_gauge(rnd, gauge_id, settlement.gauges[gauge_id])
        self.settlements[round_id] = settlement
        return settlement

    def _settle_gauge(self, rnd, gauge_id: int, gs: GaugeSettlement) -> None:
        close = rnd.close_epoch
        # integer cuts over rnd.cut_den
        voters = {
            voter: per_gauge[gauge_id]
            for voter, per_gauge in rnd.voter_gauge_num.items()
            if per_gauge.get(gauge_id, 0) > 0
        }
        gs.vote_num = sum(voters.values())
        gs.bribe_usd = sum(
            self.prices.usd_value(token, amount, close) for token, amount in sorted(gs.deposits.items())
        )
        gs.briber_usd = {
            briber: sum(self.prices.usd_value(t, a, close) for t, a in sorted(tokens.items()))
            for briber, tokens in sorted(gs.deposits_by_briber.items())
        }
        if gs.vote_num == 0:
            # nobody voted for the bribed gauge: return every deposit
            for briber, tokens in sorted(gs.deposits_by_briber.items()):
                for token, amount in sorted(tokens.items()):
                    self.ledger.transfer(token, self.escrow_account, briber, amount)
                    gs.refunds.setdefault(briber, {})[token] = amount
            return
        gs.usd_per_vote = gs.bribe_usd / (gs.vote_num / rnd.cut_den)
        for token, total in sorted(gs.deposits.items()):
            for voter, cut in _prorata(total, voters).items():
                if cut == 0:
                    continue
                self.ledger.transfer(token, self.escrow_account, voter, cut)
                gs.payouts.setdefault(voter, {})[token] = cut
