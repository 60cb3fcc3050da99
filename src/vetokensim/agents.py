"""Behavioral strategies that turn a per-round observation into actions.

An agent's lock schedule is not a strategy: ``World`` applies each entry at
its epoch, in listed order, just before the actions ``decide`` returns, and
counts its weight in the agent's observation.  ``decide`` returns only
bribes, meta votes and base votes.

Strategies
----------
PassiveLocker
    Only its lock/deposit schedule acts; it never votes.
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

Every voting strategy's ballot goes through one noise step: a ``noise``
fraction of it goes to one uniformly random active gauge drawn from a seeded
generator, so identical (spec, observation, seed) yield identical actions.
"""

from __future__ import annotations

import math
import random
from decimal import Decimal
from typing import NamedTuple

from .errors import AgentError
from .gauges import shares_to_bps
from .ledger import BPS, ONE, left_sum
from .scenario import AgentSpec


class Observation(NamedTuple):
    """Public state visible to an agent at decision time.

    Pending ballots of other agents are never included.  Own weights count
    the weight held plus that of the agent's locks due this epoch, which
    ``World`` applies after the observation: the governance weight is taken
    at the current round's close epoch, as the ballot will be counted, and
    the base weight at this epoch.  A tuple, so its fields cannot be
    reassigned, and one is cheap to build for every agent in every epoch.
    """

    epoch: int
    round_id: int
    round_open_epoch: int
    bribes_usd: dict[int, float]
    prev_round_weights: dict[int, float]
    own_gov_weight_at_close: float
    own_base_weight: float
    active_gauges: tuple[int, ...]
    token_prices: dict[str, float]
    noise_seed: int = 0


class BribeAction(NamedTuple):
    gauge_id: int
    token: str
    amount: int


class MetaVoteAction(NamedTuple):
    allocation: tuple[tuple[int, int], ...]


class BaseVoteAction(NamedTuple):
    allocation: tuple[tuple[int, int], ...]


# the bisection stops once its bounds are within this fraction of the upper one
LEVEL_WIDTH = 1e-9


def _water_level(pairs, follower_weight: float) -> float:
    """The closed-form water-filling level of ``(bribe, exogenous)`` pairs: with
    gauges taken by ``bribe / exogenous``, highest first (no exogenous weight
    first of all), grow the supported prefix while the next gauge's ratio is
    above the level ``sum(bribe) / (follower_weight + sum(exogenous))`` of the
    prefix so far.  Only probes read it, so its roundings change no answer."""
    ordered = sorted(pairs, key=lambda pair: -pair[0] / pair[1] if pair[1] else -math.inf)
    bribes, weight, level = 0.0, follower_weight, math.inf
    for b, e in ordered:
        if e and b / e <= level:
            break
        bribes += b
        weight += e
        level = bribes / weight
    return level


def equilibrium_allocation(bribes_usd, follower_weight, exogenous_weight=None):
    """Split follower weight across bribed gauges to equalise dollars per vote.

    Water-filling: binary search on the common dollars-per-vote level L; each
    gauge g gets max(0, bribes(g)/L - exogenous(g)).  At the solution every
    supported gauge pays exactly L and unsupported gauges pay at most L.  With
    no exogenous weight the allocation is proportional to bribes.

    Each probe adds, with ``ledger.left_sum``, lists of the bribed gauges'
    bribes and exogenous weights collected once per call in gauge order, and
    the answer is read from the same lists.  A level that is zero or not
    finite, from bribes or a weight at the edge of the float range, raises
    ``AgentError``.  The search stops once its bounds are within
    ``LEVEL_WIDTH`` of the upper one, or when no float lies between them.

    Probes go through a memo: ``covered``, the highest level seen to cover
    the weight, and ``short``, the lowest seen not to.  Float demand never
    rises with the level (the rounded ``b / level``, ``- e``, ``max`` and each
    rounded addition are monotone), so one probe answers every level on its
    side, and each bound and the result are bit for bit those of probing
    every level.  The demand crosses the weight within a few roundings of the
    closed-form level (``hi`` itself with no exogenous weight, else
    ``_water_level``), so two seed probes around it answer nearly every
    later midpoint.
    """
    if follower_weight <= 0:
        raise AgentError("follower_weight must be positive")
    gauges = [g for g, b in bribes_usd.items() if b > 0]
    if not gauges:
        raise AgentError("no positive bribes to follow")
    amounts = [float(bribes_usd[g]) for g in gauges]
    exo = exogenous_weight or {}
    offsets = [max(0.0, float(exo.get(g, 0.0))) for g in gauges] if exo else [0.0] * len(gauges)
    pairs = list(zip(amounts, offsets)) if any(offsets) else None
    if pairs:
        def demand(level: float) -> float:
            return left_sum([max(0.0, b / level - e) for b, e in pairs])
    else:
        # the general demand's floats: b / level - 0.0 is b / level, and max(0.0, x) is x for x >= 0
        def demand(level: float) -> float:
            return left_sum([b / level for b in amounts])

    covered, short = 0.0, math.inf  # demand covers the weight at every level up to covered, at none from short

    def covers(level: float) -> bool:
        nonlocal covered, short
        if covered < level < short:
            if demand(level) >= follower_weight:
                covered = level
            else:
                short = level
        return level <= covered

    # at hi the demand is at most follower_weight; walk lo down until demand covers it
    hi = left_sum(amounts) / follower_weight
    if not 0.0 < hi < math.inf:
        raise AgentError(f"equilibrium level {hi!r} is out of range for follower weight {follower_weight!r}")
    lo = hi
    while not covers(lo):
        lo /= 2.0
        if lo == 0.0:
            raise AgentError(f"no positive level covers follower weight {follower_weight!r}")
    if hi - lo > LEVEL_WIDTH * hi:
        # the demand crosses the weight within a few roundings of the closed-form level, so a probe
        # just below it and one just above answer nearly every midpoint.  With no exogenous weight
        # that level is hi, which the walk has probed: only the probe below can be summed.
        level = hi if pairs is None else _water_level(pairs, follower_weight)
        covers(level * (1 - 2**-40))
        covers(level * (1 + 2**-40))
    while hi - lo > LEVEL_WIDTH * hi:
        mid = (lo + hi) / 2.0
        # a midpoint equal to a bound would repeat the step forever
        if covers(mid):
            if mid == lo:
                break
            lo = mid
        else:
            if mid == hi:
                break
            hi = mid
    # max(0.0, x) > 0 exactly when x > 0, and is then x
    return {g: amount for g, b, e in zip(gauges, amounts, offsets) if (amount := b / lo - e) > 0}


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


def _usd_to_units(usd: float, price: float) -> int:
    """Base units that ``usd`` buys at ``price``, rounded down, with both read as
    the decimals their ``repr`` shows (0.1 is one tenth, not its binary value)."""
    if price <= 0:
        raise AgentError(f"cannot convert USD at non-positive price {price}")
    usd_num, usd_den = Decimal(repr(float(usd))).as_integer_ratio()
    price_num, price_den = Decimal(repr(float(price))).as_integer_ratio()
    return usd_num * price_den * ONE // (usd_den * price_num)


def decide(spec: AgentSpec, obs: Observation) -> list:
    """Pure strategy evaluation: (spec, observation) -> ordered action list of
    bribes, then a meta vote, then a base vote.  The agent's lock schedule is
    not read here: ``World`` applies each due entry just before these actions,
    and the observed own weights already count it."""
    if spec.strategy == "PassiveLocker":
        return []

    actions: list = []
    gov_weight = obs.own_gov_weight_at_close
    ballot: dict[int, int] = {}  # the meta ballot {gauge: bps}; an empty one is not cast
    if spec.strategy == "FixedAllocator":
        ballot = dict(spec.allocation)
    elif spec.strategy in ("BribeFollowerGreedy", "BribeFollowerEquilibrium") and gov_weight > 0:
        positive_bribes = {g: b for g, b in obs.bribes_usd.items() if b > 0}
        if positive_bribes and spec.strategy == "BribeFollowerGreedy":
            prev = obs.prev_round_weights
            _, best = min((-b / (prev.get(g, 0.0) + gov_weight), g) for g, b in positive_bribes.items())
            ballot = {best: BPS}
        elif positive_bribes and spec.strategy == "BribeFollowerEquilibrium":
            split = equilibrium_allocation(positive_bribes, gov_weight, dict(spec.exogenous_weights))
            total = left_sum(split.values())
            ballot = shares_to_bps({g: amount / total for g, amount in split.items()})
    elif spec.strategy == "SelfPromoter":
        # bribe own gauges once per round, then back the most bribed of them
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
        ballot = {favourite: BPS}

    if gov_weight > 0 and ballot:
        ballot = _apply_noise(ballot, obs, spec.noise)
        actions.append(MetaVoteAction(tuple(sorted(ballot.items()))))
    if spec.strategy == "SelfPromoter" and obs.own_base_weight > 0:
        actions.append(BaseVoteAction(((favourite, BPS),)))
    return actions
