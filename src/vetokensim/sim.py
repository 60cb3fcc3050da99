"""The deterministic epoch loop.

Each epoch runs a fixed phase order: agents observe and act (in ascending
account order), the round before the one that opens this epoch is finalized
and its bribes settled, then the weekly weight snapshot is taken and emissions
distributed.  Every epoch fills in one full trace row; re-running the same
scenario (same seed) reproduces the trace byte for byte.
"""

from __future__ import annotations

from .aggregator import Aggregator
from .agents import (
    BaseVoteAction,
    BribeAction,
    DepositAction,
    LockAction,
    MetaVoteAction,
    Observation,
    decide,
)
from .bribemarket import BribeMarket
from .errors import SimulationError, VeTokenSimError
from .escrow import Escrow
from .gauges import EmissionSchedule, GaugeController
from .ledger import Ledger, PriceSeries
from .scenario import AgentSpec, ScenarioConfig
from .trace import FORMAT_VERSION, SimTrace, _ratio_str


def _weight_strs(escrow: Escrow, epoch: int) -> dict[str, str]:
    """Each lock's weight at ``epoch`` as a trace ratio.  Every weight the loop
    and the trace readers turn into a float (an agent's own weight, a round's
    tally and totals, a gauge's vote weight) is at most the total at its epoch
    or an earlier one, so a total that a float cannot hold ends the run here."""
    den = escrow.weight_denominator
    accounts = sorted(escrow.locks)
    nums = [escrow.weight_numerator(a, epoch) for a in accounts]
    try:
        sum(nums) / den
    except OverflowError:
        raise SimulationError(f"the {escrow.config.token} weight total overflows a float") from None
    return {a: _ratio_str(num, den) for a, num in zip(accounts, nums)}


def _shared(memo: dict, key: tuple, build):
    """``build(key)``, built once per ``key`` in ``memo``: most rows repeat the row before."""
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = build(key)
    return entry


def _lock_entry(key: tuple) -> dict:
    return dict(zip(("amount", "unlock_epoch", "created_epoch"), key))


def _noise_seed(seed: int, account: str, round_id: int) -> int:
    import hashlib  # here, not at the top: only ``run`` hashes, and importing it loads OpenSSL
    digest = hashlib.sha256(f"{seed}:{account}:{round_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class World:
    """Mutable protocol state assembled from a scenario config.  The config's
    values are trusted: ``scenario_from_dict`` is the one place that checks them."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ledger = Ledger()
        for token in config.tokens:
            self.ledger.register_token(token.symbol, token.transferable)
        self.prices = PriceSeries()
        for token, points in sorted(config.price_series.items()):
            for epoch, price in points:
                self.prices.add_point(token, epoch, price)
        for account, token, amount in config.initial_balances:
            self.ledger.mint(token, account, amount)
        contract_accounts = frozenset(config.contract_accounts)
        self.base_escrow = Escrow(config.base_escrow, self.ledger, contract_accounts)
        schedule = EmissionSchedule(config.emission_schedule)
        self.controller = GaugeController(
            self.base_escrow, self.ledger, schedule, config.base_escrow.token
        )
        self.aggregator = Aggregator(
            ledger=self.ledger,
            base_escrow=self.base_escrow,
            controller=self.controller,
            protocol_account=config.aggregator.protocol_account,
            wrapper_token=config.aggregator.wrapper_token,
            gov_escrow_config=config.gov_escrow,
            contract_accounts=contract_accounts,
            round_length=config.round_length,
        )
        self.market = BribeMarket(self.ledger, self.aggregator, self.prices, config.bribe_escrow_account)
        for gauge in config.gauges:
            self.controller.add_gauge(gauge.lp_accounts)
        # each gauge's trace key, by gauge id: ``str(g)`` builds a new string on every call
        self._gauge_keys = [str(g) for g in self.controller.gauges]
        # row entries by value; the keys of a lock (three ints), a ballot (its
        # sorted pairs), a pair (two ints), an allocation ("allocation", pairs)
        # and a base vote ("base_vote", ...) never compare equal.  A meta vote
        # names its round, so it is kept only while that round is open.
        self._entries: dict[tuple, dict | list] = {}
        self._round_votes: dict[tuple, dict] = {}
        # the last row's base_votes, built at this allocations_version: reused while no vote changes it
        self._base_votes: dict[str, dict] = {}
        self._base_votes_version = self.controller.allocations_version

    def header(self) -> dict:
        return {
            "format_version": FORMAT_VERSION,
            "scenario_name": self.config.name,
            "config_digest": self.config.digest(),
            "rng_seed": self.config.rng_seed,
            "horizon_epochs": self.config.horizon_epochs,
            "round_length": self.config.round_length,
            "base_snapshot_cadence": self.config.base_snapshot_cadence,
            "bootstrap_rounds": self.config.bootstrap_rounds,
            "base_token": self.config.base_escrow.token,
            "gov_token": self.config.aggregator.gov_token,
            "wrapper_token": self.config.aggregator.wrapper_token,
            "protocol_account": self.config.aggregator.protocol_account,
            "bribe_escrow_account": self.config.bribe_escrow_account,
            "gauges": dict(zip(self._gauge_keys, (spec.name for spec in self.config.gauges))),
        }

    # -- observations ---------------------------------------------------------

    def _round_bribes_usd(self, round_id: int, epoch: int) -> dict[int, float]:
        totals: dict[int, float] = {}
        for deposit in self.market.deposits.get(round_id, ()):
            usd = self.prices.usd_value(deposit.token, deposit.amount, epoch)
            totals[deposit.gauge_id] = totals.get(deposit.gauge_id, 0.0) + usd
        return totals

    def _prev_round_weights(self, round_id: int) -> dict[int, float]:
        prev = self.aggregator.rounds.get(round_id - 1)
        if prev is None:
            return {}
        return {g: num / prev.cut_den for g, num in prev.tally_num.items()}

    def _observation(self, spec: AgentSpec, epoch: int, rnd, bribes, prev, prices_now, active) -> Observation:
        gov_escrow, base_escrow = self.aggregator.gov_escrow, self.base_escrow
        # positional, in ``Observation``'s field order: keywords cost a lookup each on every build
        return Observation(
            epoch,
            rnd.round_id,
            rnd.open_epoch,
            rnd.close_epoch,
            dict(bribes),
            dict(prev),
            gov_escrow.weight_numerator(spec.account, rnd.close_epoch) / gov_escrow.weight_denominator,
            base_escrow.weight_numerator(spec.account, epoch) / base_escrow.weight_denominator,
            active,
            dict(prices_now),
            gov_escrow.config.max_lock_weeks,
            base_escrow.config.max_lock_weeks,
            # only ``_apply_noise`` reads the seed, and only when there is noise
            _noise_seed(self.config.rng_seed, spec.account, rnd.round_id) if spec.noise else 0,
        )

    # -- applying actions -------------------------------------------------------

    def _apply(self, spec: AgentSpec, action, epoch: int, rnd, row: dict) -> None:
        # votes are most of the actions, so their types are tested first; no action has two types
        if isinstance(action, BaseVoteAction):
            self.controller.vote_for_gauge_weights(spec.account, list(action.allocation), epoch)
            key = ("base_vote", spec.account, None, action.allocation)
            row["actions"].append(_shared(self._entries, key, self._vote_entry))
        elif isinstance(action, MetaVoteAction):
            self.aggregator.cast_meta_vote(spec.account, rnd.round_id, list(action.allocation), epoch)
            key = ("meta_vote", spec.account, rnd.round_id, action.allocation)
            row["actions"].append(_shared(self._round_votes, key, self._vote_entry))
        elif isinstance(action, LockAction):
            base = action.escrow == "base"
            escrow = self.base_escrow if base else self.aggregator.gov_escrow
            lock = escrow.lock(spec.account, action.amount, action.unlock_epoch, epoch)
            if lock is not None:
                row["lock_events"].append(
                    {
                        "account": spec.account,
                        "escrow": "base" if base else "governance",
                        "amount": action.amount,
                        "unlock_epoch": lock.unlock_epoch,
                        "usd_cost": self.prices.usd_value(escrow.config.token, action.amount, epoch),
                    }
                )
        elif isinstance(action, DepositAction):
            self.aggregator.deposit_and_lock(spec.account, action.amount, epoch)
            row["deposit_events"].append(
                {
                    "account": spec.account,
                    "amount": action.amount,
                    "usd_cost": self.prices.usd_value(self.aggregator.base_token, action.amount, epoch),
                }
            )
        elif isinstance(action, BribeAction):
            self.market.post_bribe(
                rnd.round_id, action.gauge_id, spec.account, action.token, action.amount, epoch
            )
            row["bribe_events"].append(
                {
                    "round": rnd.round_id,
                    "gauge": action.gauge_id,
                    "briber": spec.account,
                    "token": action.token,
                    "amount": action.amount,
                    "usd_at_post": self.prices.usd_value(action.token, action.amount, epoch),
                }
            )
        else:
            raise SimulationError(f"unknown action type {type(action).__name__}")

    # -- one epoch -----------------------------------------------------------------

    def step(self, epoch: int) -> dict:
        where = f"epoch {epoch}"  # the phase running now: a failure names it
        try:
            self.aggregator.refresh_max_lock(epoch)
            rnd = self.aggregator.ensure_round(epoch)
            closing = None
            if epoch == rnd.open_epoch:  # a round closes at the epoch its successor opens
                self._round_votes.clear()
                closing = self.aggregator.rounds.get(rnd.round_id - 1)
            bribes = self._round_bribes_usd(rnd.round_id, epoch)
            prev = self._prev_round_weights(rnd.round_id)
            prices_now = {t: self.prices.usd_price(t, epoch) for t in sorted(self.ledger.tokens)}
            active = tuple(self.controller.gauges)
            row = {
                "type": "epoch",
                "epoch": epoch,
                "round_id": rnd.round_id,
                "lock_events": [],
                "deposit_events": [],
                "bribe_events": [],
                "actions": [],
                "round_finalized": None,
                "settlement": None,
                "snapshot": None,
            }
            for spec in self.config.agents:  # sorted by account
                where = f"epoch {epoch}, agent {spec.account}"
                obs = self._observation(spec, epoch, rnd, bribes, prev, prices_now, active)
                for action in decide(spec, obs):
                    self._apply(spec, action, epoch, rnd, row)
            where = f"epoch {epoch}"
            # the epoch's locks are final: check their weights before a round divides them
            row["escrow_weights"] = {
                "base": _weight_strs(self.base_escrow, epoch),
                "governance": _weight_strs(self.aggregator.gov_escrow, epoch),
            }

            if closing is not None:
                where = f"epoch {epoch}, round {closing.round_id}"
                self.aggregator.finalize_round(closing.round_id, epoch)
                settlement = self.market.settle_round(closing.round_id)
                where = f"epoch {epoch}"
                row["round_finalized"] = self._finalized_row(closing)
                row["settlement"] = self._settlement_row(settlement, closing.cut_den)
                # from here on the loop reads only the open round and the one before it
                self.aggregator.rounds.pop(closing.round_id - 1, None)

            if epoch % self.config.base_snapshot_cadence == 0:
                weights = self.controller.take_snapshot(epoch)
                emission_events = self.controller.distribute_emissions(epoch)
                keys = self._gauge_keys
                per_gauge: dict[str, int] = {}
                for gauge_id, _, amount in emission_events:
                    key = keys[gauge_id]
                    per_gauge[key] = per_gauge.get(key, 0) + amount
                total = sum(weights.values()) or 1  # no weight anywhere: every gauge reads "0"
                row["snapshot"] = {
                    "relative_weights": {keys[g]: _ratio_str(n, total) for g, n in sorted(weights.items())},
                    "emissions": per_gauge,
                    "emission_total": sum(per_gauge.values()),
                }

            return self._row(row, self.ledger.assert_conservation())
        except VeTokenSimError as exc:
            raise SimulationError(f"{where}: {exc}") from exc

    # -- row entries, each built once per distinct value (see ``_entries``) ------

    def _ballot_entry(self, key: tuple) -> dict:
        """The trace ballot ``{gauge key: bps}`` of an allocation's sorted ``(gauge, bps)`` pairs."""
        keys = self._gauge_keys
        return {keys[g]: bps for g, bps in key}

    def _allocation_entry(self, key: tuple) -> list:
        entries = self._entries
        return [_shared(entries, pair, list) for pair in key[1]]

    def _vote_entry(self, key: tuple) -> dict:
        kind, account, round_id, allocation = key
        entry = {
            "account": account,
            "kind": kind,
            "round": round_id,
            "allocation": _shared(self._entries, ("allocation", allocation), self._allocation_entry),
        }
        if kind == "base_vote":  # a base vote belongs to no round
            del entry["round"]
        return entry

    def _finalized_row(self, rnd) -> dict:
        keys, entries, ballot = self._gauge_keys, self._entries, self._ballot_entry
        weight_den, cut_den = rnd.weight_den, rnd.cut_den
        tally = sorted(rnd.tally_num.items())
        tally_total = sum(rnd.tally_num.values())
        return {
            "round": rnd.round_id,
            "open_epoch": rnd.open_epoch,
            "close_epoch": rnd.close_epoch,
            "ballots": {v: _shared(entries, tuple(sorted(b.items())), ballot) for v, b in sorted(rnd.ballots.items())},
            "counted_weight": {v: _ratio_str(n, weight_den) for v, n in sorted(rnd.counted_num.items())},
            "voter_mass": {
                v: _ratio_str(sum(per.values()), cut_den) for v, per in sorted(rnd.voter_gauge_num.items())
            },
            "tally": {keys[g]: _ratio_str(n, cut_den) for g, n in tally},
            "tally_total": _ratio_str(tally_total, cut_den),
            "total_gov_weight": _ratio_str(rnd.total_gov_num, weight_den),
            "result": {keys[g]: _ratio_str(n, tally_total) for g, n in tally},
            "base_allocation": (
                _shared(entries, tuple(sorted(rnd.base_allocation.items())), ballot) if rnd.base_allocation else None
            ),
        }

    def _settlement_row(self, settlement, cut_den: int) -> dict:
        keys = self._gauge_keys
        gauges = {}
        for gauge_id, gs in sorted(settlement.gauges.items()):
            # the settlement builds ``briber_usd`` in briber order and each
            # voter's or briber's token dict in token order; the row holds them
            gauges[keys[gauge_id]] = {
                "deposits": dict(sorted(gs.deposits.items())),
                "bribe_usd": gs.bribe_usd,
                "briber_usd": gs.briber_usd,
                "vote_weight": _ratio_str(gs.vote_num, cut_den),
                "usd_per_vote": gs.usd_per_vote,
                "payouts": {v: gs.payouts[v] for v in sorted(gs.payouts)},
                "refunds": {b: gs.refunds[b] for b in sorted(gs.refunds)},
            }
        return {"round": settlement.round_id, "close_epoch": settlement.close_epoch, "gauges": gauges}

    def _row(self, row: dict, token_totals: dict) -> dict:
        entries, ballot = self._entries, self._ballot_entry
        row["token_totals"] = token_totals
        row["ledger_digest"] = self.ledger.digest()
        row["locks"] = {
            label: {
                a: _shared(entries, (l.amount, l.unlock_epoch, l.created_epoch), _lock_entry)
                for a, l in sorted(escrow.locks.items())
            }
            for label, escrow in (("base", self.base_escrow), ("governance", self.aggregator.gov_escrow))
        }
        controller = self.controller
        if self._base_votes_version != controller.allocations_version:
            self._base_votes_version = controller.allocations_version
            self._base_votes = {
                a: _shared(entries, tuple(sorted(alloc.items())), ballot)
                for a, alloc in sorted(controller.allocations.items())
            }
        row["base_votes"] = self._base_votes
        return row


def run_scenario(config: ScenarioConfig) -> SimTrace:
    world = World(config)
    return SimTrace(world.header(), [world.step(epoch) for epoch in range(config.horizon_epochs)])
