"""Behavioral strategies that turn a per-round observation into actions.

Strategies
----------
PassiveLocker
    Works its lock/deposit schedule and never votes.
FixedAllocator
    Casts the same meta ballot every round it has weight.
BribeFollowerGreedy
    Puts all weight on the gauge with the best expected dollars per vote,
    estimated as bribes(g) / (previous round's weight on g + own weight).
    Ties go to the lowest gauge id.
BribeFollowerEquilibrium
    Splits weight by the water-filling allocation that equalises dollars per
    vote across supported gauges (proportional to bribes when no exogenous
    weight competes).
SelfPromoter
    Splits a per-round budget across its own gauges as bribes and votes all-in
    on whichever of its own gauges carries the most bribes, regardless of
    better dollars per vote elsewhere.  If it also holds base-escrow weight it
    casts the same all-in vote at the base tier.

A ``noise`` fraction diverts that share of a ballot to one uniformly random
active gauge drawn from a seeded generator, so identical (spec, observation,
seed) always yield identical actions.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from typing import NamedTuple

from .errors import AgentError
from .gauges import BPS, shares_to_bps
from .ledger import ONE

STRATEGIES = (
    "PassiveLocker",
    "FixedAllocator",
    "BribeFollowerGreedy",
    "BribeFollowerEquilibrium",
    "SelfPromoter",
)


class LockEntry(NamedTuple):
    """One schedule item: create/extend a lock, or deposit into the aggregator.

    kind is "base", "gov" or "deposit"; weeks is the lock duration from the
    entry's epoch (ignored for deposits).  A zero amount re-extends an
    existing lock without adding to it.
    """

    epoch: int
    kind: str
    amount: int
    weeks: int = 0


class AgentSpec:
    def __init__(
        self,
        account: str,
        strategy: str,
        lock_schedule: tuple[LockEntry, ...] = (),
        allocation: tuple[tuple[int, int], ...] = (),
        budget_per_round: float | tuple[float, ...] = 0.0,
        own_gauges: tuple[int, ...] = (),
        bribe_token: str = "BRIBE-USD",
        noise: float = 0.0,
        exogenous_weights: tuple[tuple[int, float], ...] = (),
    ):
        self.account = account
        self.strategy = strategy
        self.lock_schedule = lock_schedule
        self.allocation = allocation
        self.budget_per_round = budget_per_round
        self.own_gauges = own_gauges
        self.bribe_token = bribe_token
        self.noise = noise
        self.exogenous_weights = exogenous_weights
        # epoch -> schedule entries due then, in schedule order; built once here
        self.schedule_by_epoch: dict[int, list[LockEntry]] = {}
        for entry in lock_schedule:
            self.schedule_by_epoch.setdefault(entry.epoch, []).append(entry)

    def budget_for_round(self, round_id: int) -> float:
        if isinstance(self.budget_per_round, (int, float)):
            return float(self.budget_per_round)
        if round_id < len(self.budget_per_round):
            return float(self.budget_per_round[round_id])
        return 0.0


class Observation(NamedTuple):
    """Public state visible to an agent at decision time.

    Pending ballots of other agents are never included.  Own weights are
    evaluated at the current round's close epoch, matching how ballots will
    be counted.  A tuple, so its fields cannot be reassigned, and one is cheap
    to build for every agent in every epoch.
    """

    epoch: int
    round_id: int
    round_open_epoch: int
    round_close_epoch: int
    bribes_usd: dict[int, float]
    prev_round_weights: dict[int, float]
    own_gov_weight_at_close: float
    own_base_weight: float
    active_gauges: tuple[int, ...]
    token_prices: dict[str, float]
    gov_max_lock_weeks: int
    base_max_lock_weeks: int
    noise_seed: int = 0


class LockAction(NamedTuple):
    escrow: str  # "base" | "gov"
    amount: int
    unlock_epoch: int


class DepositAction(NamedTuple):
    amount: int


class BribeAction(NamedTuple):
    gauge_id: int
    token: str
    amount: int


class MetaVoteAction(NamedTuple):
    allocation: tuple[tuple[int, int], ...]


class BaseVoteAction(NamedTuple):
    allocation: tuple[tuple[int, int], ...]


def equilibrium_allocation(bribes_usd, follower_weight, exogenous_weight=None, tol: float = 1e-9):
    """Split follower weight across bribed gauges to equalise dollars per vote.

    Water-filling: binary search on the common dollars-per-vote level L; each
    gauge g gets max(0, bribes(g)/L - exogenous(g)).  At the solution every
    supported gauge pays exactly L and unsupported gauges pay at most L.  With
    no exogenous weight the allocation is proportional to bribes.

    Each probe sums a list built from the bribes (and exogenous weights, when
    any is positive) collected once per call, in gauge order, with the builtin
    ``sum``; only the answer is built as a dict.  A level that is zero or not
    finite, from bribes or a weight at the edge of the float range, raises
    ``AgentError``.  The search stops early when no float lies strictly
    between its bounds.
    """
    if tol <= 0:
        raise AgentError("tol must be positive")
    if follower_weight <= 0:
        raise AgentError("follower_weight must be positive")
    bribes = {g: float(b) for g, b in bribes_usd.items() if b > 0}
    if not bribes:
        raise AgentError("no positive bribes to follow")
    exo = {g: max(0.0, float(w)) for g, w in (exogenous_weight or {}).items()}

    def allocated(level: float) -> dict[int, float]:
        return {g: max(0.0, b / level - exo.get(g, 0.0)) for g, b in bribes.items()}

    # sum(allocated(level).values()) without the dict: b / level - 0.0 is
    # b / level, and max(0.0, x) is x for x >= 0, so both give the same float
    amounts = list(bribes.values())
    offsets = [exo.get(g, 0.0) for g in bribes]
    if any(offsets):
        pairs = list(zip(amounts, offsets))

        def demand(level: float) -> float:
            return sum([max(0.0, b / level - e) for b, e in pairs])
    else:

        def demand(level: float) -> float:
            return sum([b / level for b in amounts])

    # at hi the demand is at most follower_weight; walk lo down until demand covers it
    hi = sum(amounts) / follower_weight
    if not 0.0 < hi < math.inf:
        raise AgentError(f"equilibrium level {hi!r} is out of range for follower weight {follower_weight!r}")
    lo = hi
    while demand(lo) < follower_weight:
        lo /= 2.0
        if lo == 0.0:
            raise AgentError(f"no positive level covers follower weight {follower_weight!r}")
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        # a midpoint equal to a bound would repeat the step forever
        if demand(mid) >= follower_weight:
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    return {g: amount for g, amount in allocated(lo).items() if amount > 0}


def _apply_noise(ballot: dict[int, int], obs: Observation, noise: float) -> dict[int, int]:
    """Divert the noise fraction of the agent's weight to one random gauge.

    The main ballot is scaled down proportionally (abstained weight stays
    abstained), so a full ballot stays full and a partial one stays partial.
    """
    noise_bps = round(noise * BPS)
    if noise_bps == 0 or not ballot or not obs.active_gauges:
        return ballot
    rng = random.Random(obs.noise_seed)
    target = rng.choice(sorted(obs.active_gauges))
    keep_total = sum(ballot.values()) * (BPS - noise_bps) // BPS
    scaled = shares_to_bps(ballot, keep_total)
    scaled[target] = scaled.get(target, 0) + noise_bps
    return scaled


def _to_ballot(mapping: dict[int, int]) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(mapping.items()))


def _usd_to_units(usd: float, price: float) -> int:
    """Base units that ``usd`` buys at ``price``, rounded down, with both read as
    the decimals their ``repr`` shows (0.1 is one tenth, not its binary value)."""
    if price <= 0:
        raise AgentError(f"cannot convert USD at non-positive price {price}")
    usd_num, usd_den = Decimal(repr(float(usd))).as_integer_ratio()
    price_num, price_den = Decimal(repr(float(price))).as_integer_ratio()
    return usd_num * price_den * ONE // (usd_den * price_num)


def decide(spec: AgentSpec, obs: Observation) -> list:
    """Pure strategy evaluation: (spec, observation) -> ordered action list."""
    actions: list = []
    # added weight as integer numerators over each escrow's max_lock_weeks * ONE
    gov_added = 0
    base_added = 0
    for entry in spec.schedule_by_epoch.get(obs.epoch, ()):
        if entry.kind == "deposit":
            actions.append(DepositAction(entry.amount))
            continue
        unlock = obs.epoch + entry.weeks
        actions.append(LockAction(entry.kind, entry.amount, unlock))
        if entry.kind == "gov":
            gov_added += entry.amount * max(0, unlock - obs.round_close_epoch)
        else:
            base_added += entry.amount * max(0, unlock - obs.epoch)

    try:
        gov_weight = obs.own_gov_weight_at_close + gov_added / (obs.gov_max_lock_weeks * ONE)
        base_weight = obs.own_base_weight + base_added / (obs.base_max_lock_weeks * ONE)
    except OverflowError:
        raise AgentError("the weight of its new locks overflows a float") from None

    if spec.strategy == "PassiveLocker":
        return actions

    if spec.strategy == "FixedAllocator":
        if gov_weight > 0 and spec.allocation:
            ballot = _apply_noise(dict(spec.allocation), obs, spec.noise)
            actions.append(MetaVoteAction(_to_ballot(ballot)))
        return actions

    if spec.strategy == "BribeFollowerGreedy":
        positive_bribes = {g: b for g, b in obs.bribes_usd.items() if b > 0}
        if gov_weight > 0 and positive_bribes:
            best = min(
                positive_bribes,
                key=lambda g: (
                    -positive_bribes[g] / (obs.prev_round_weights.get(g, 0.0) + gov_weight),
                    g,
                ),
            )
            ballot = _apply_noise({best: BPS}, obs, spec.noise)
            actions.append(MetaVoteAction(_to_ballot(ballot)))
        return actions

    if spec.strategy == "BribeFollowerEquilibrium":
        positive_bribes = {g: b for g, b in obs.bribes_usd.items() if b > 0}
        if gov_weight > 0 and positive_bribes:
            split = equilibrium_allocation(positive_bribes, gov_weight, dict(spec.exogenous_weights))
            total = sum(split.values())
            ballot = shares_to_bps({g: amount / total for g, amount in split.items()})
            ballot = _apply_noise(ballot, obs, spec.noise)
            actions.append(MetaVoteAction(_to_ballot(ballot)))
        return actions

    # SelfPromoter: bribe own gauges once per round, then vote them
    own_bribes_usd: dict[int, float] = {}
    budget = spec.budget_for_round(obs.round_id)
    if obs.epoch == obs.round_open_epoch and budget > 0:
        price = obs.token_prices.get(spec.bribe_token)
        if price is None:
            raise AgentError(f"no price for bribe token {spec.bribe_token}")
        total_units = _usd_to_units(budget, price)
        gauges = sorted(spec.own_gauges)
        cut, extra = divmod(total_units, len(gauges))
        for index, gauge_id in enumerate(gauges):
            units = cut + (1 if index < extra else 0)
            if units == 0:
                continue
            actions.append(BribeAction(gauge_id, spec.bribe_token, units))
            own_bribes_usd[gauge_id] = units / ONE * price
    favourite = min(
        spec.own_gauges,
        key=lambda g: (-(obs.bribes_usd.get(g, 0.0) + own_bribes_usd.get(g, 0.0)), g),
    )
    if gov_weight > 0:
        ballot = _apply_noise({favourite: BPS}, obs, spec.noise)
        actions.append(MetaVoteAction(_to_ballot(ballot)))
    if base_weight > 0:
        actions.append(BaseVoteAction(((favourite, BPS),)))
    return actions
