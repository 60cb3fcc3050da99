"""Pooling aggregator: one perpetually max-locked escrow position steered by
meta-governance rounds among holders of the aggregator's own short-lock token.

User deposits of the base token are irreversible; depositors receive a
transferable wrapper token 1:1.  The pooled position follows the base
escrow's one lock rule (``Escrow.lock``) and is re-extended to the maximum
duration every epoch; where a one-week maximum has ended it, it is relocked in
full.  Governance tokens are locked in ``gov_escrow`` through the same rule.
Meta-round ballots are weighed with the governance escrow's decaying weight
evaluated at the round's close epoch, so casting early or late within a round
makes no difference.  At the base tier all of this activity appears as the
single protocol account.

A round's tally is kept as integer numerators (see ``MetaRound``); a gauge's
result share is its tally numerator over the sum of all of them.
"""

from __future__ import annotations

from .errors import AggregatorError
from .escrow import Escrow
from .gauges import GaugeController, shares_to_bps
from .ledger import BPS, Ledger, check_amount
from .scenario import EscrowConfig


class MetaRound:
    """One meta-governance round.

    Once ``finalized``, the tally is kept as integer numerators:
    ``counted_num`` and ``total_gov_num`` over ``weight_den`` (the governance
    escrow's weight denominator), and the per-gauge cuts ``weight * bps`` in
    ``voter_gauge_num`` and ``tally_num`` over ``cut_den``.
    """

    def __init__(self, round_id: int, open_epoch: int, close_epoch: int):
        self.round_id = round_id
        self.open_epoch = open_epoch
        self.close_epoch = close_epoch
        self.ballots: dict[str, dict[int, int]] = {}
        self.finalized = False
        self.weight_den = 1
        self.counted_num: dict[str, int] = {}
        self.voter_gauge_num: dict[str, dict[int, int]] = {}
        self.tally_num: dict[int, int] = {}
        self.total_gov_num = 0
        self.base_allocation: dict[int, int] | None = None

    @property
    def cut_den(self) -> int:
        return self.weight_den * BPS

    # The benchmark tracer counts counted voters through this name, so this
    # exact-weight view of ``counted_num`` stays, importing ``fractions`` when read.
    @property
    def counted_weight(self) -> dict[str, Fraction]:
        from fractions import Fraction
        return {v: Fraction(n, self.weight_den) for v, n in self.counted_num.items()}


class Aggregator:
    def __init__(
        self,
        ledger: Ledger,
        base_escrow: Escrow,
        controller: GaugeController,
        protocol_account: str,
        wrapper_token: str,
        gov_escrow_config: EscrowConfig,
        contract_accounts=frozenset(),
        round_length: int = 2,
    ):
        self.ledger = ledger
        self.base_escrow = base_escrow
        self.controller = controller
        self.protocol_account = protocol_account
        self.base_token = base_escrow.config.token
        self.wrapper_token = wrapper_token
        self.gov_escrow = Escrow(gov_escrow_config, ledger, contract_accounts)
        self.round_length = round_length
        self.rounds: dict[int, MetaRound] = {}

    # -- rounds ------------------------------------------------------------

    def ensure_round(self, epoch: int) -> MetaRound:
        round_id = epoch // self.round_length
        rnd = self.rounds.get(round_id)
        if rnd is None:
            open_epoch = round_id * self.round_length
            rnd = MetaRound(round_id, open_epoch, open_epoch + self.round_length)
            self.rounds[round_id] = rnd
        return rnd

    def _require_round(self, round_id: int) -> MetaRound:
        rnd = self.rounds.get(round_id)
        if rnd is None:
            raise AggregatorError(f"unknown round {round_id}")
        return rnd

    # -- deposits and locks --------------------------------------------------

    def refresh_max_lock(self, now: int) -> None:
        """Re-extend the pooled base lock to the maximum duration; a lock that
        has ended (a one-week maximum) is relocked in full."""
        lock = self.base_escrow.locks.get(self.protocol_account)
        if lock is not None:
            amount = lock.amount if now >= lock.unlock_epoch else 0
            self.base_escrow.lock(
                self.protocol_account, amount, now + self.base_escrow.config.max_lock_weeks, now
            )

    def deposit_and_lock(self, user: str, amount: int, now: int) -> None:
        check_amount(amount)
        if amount == 0:
            raise AggregatorError("cannot deposit a zero amount")
        self.ledger.transfer(self.base_token, user, self.protocol_account, amount)
        unlock = now + self.base_escrow.config.max_lock_weeks
        self.base_escrow.lock(self.protocol_account, amount, unlock, now)
        self.ledger.mint(self.wrapper_token, user, amount)

    # -- voting ----------------------------------------------------------------

    def cast_meta_vote(self, voter: str, round_id: int, allocation, now: int) -> None:
        rnd = self._require_round(round_id)
        if rnd.finalized or now >= rnd.close_epoch:
            raise AggregatorError(f"round {round_id} is closed")
        if now < rnd.open_epoch:
            raise AggregatorError(f"round {round_id} has not opened yet")
        cleaned = self.controller.check_allocation(allocation)
        if self.gov_escrow.weight_numerator(voter, rnd.close_epoch) == 0:
            raise AggregatorError(f"{voter} has no governance weight at epoch {rnd.close_epoch}")
        rnd.ballots[voter] = cleaned

    def finalize_round(self, round_id: int, now: int):
        """Tally ballots at close weight, then recast the pooled base-tier vote.

        Returns the base-tier bps allocation, or None for an empty round, which
        leaves the previous base allocation standing.
        """
        rnd = self._require_round(round_id)
        if rnd.finalized:
            raise AggregatorError(f"round {round_id} already finalized")
        if now < rnd.close_epoch:
            raise AggregatorError(f"round {round_id} is still open until epoch {rnd.close_epoch}")
        close = rnd.close_epoch
        counted: dict[str, int] = {}
        voter_gauge_num: dict[str, dict[int, int]] = {}
        tally: dict[int, int] = {}
        for voter in sorted(rnd.ballots):
            weight = self.gov_escrow.weight_numerator(voter, close)
            ballot = rnd.ballots[voter]
            if weight == 0 or not ballot:
                continue
            counted[voter] = weight
            per_gauge = {g: weight * bps for g, bps in ballot.items()}
            voter_gauge_num[voter] = per_gauge
            for g, cut in per_gauge.items():
                tally[g] = tally.get(g, 0) + cut
        rnd.finalized = True
        rnd.weight_den = self.gov_escrow.weight_denominator
        rnd.counted_num = counted
        rnd.voter_gauge_num = voter_gauge_num
        rnd.tally_num = tally
        rnd.total_gov_num = self.gov_escrow.total_weight_numerator(close)
        if not tally:
            return None
        allocation = shares_to_bps(tally)
        rnd.base_allocation = allocation
        if self.base_escrow.weight_numerator(self.protocol_account, now) > 0:
            self.controller.vote_for_gauge_weights(
                self.protocol_account, sorted(allocation.items()), now
            )
        return allocation
