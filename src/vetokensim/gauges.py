"""Gauge registry, persistent vote allocations, weight snapshots, and emissions.

Vote allocations are expressed in basis points of a voter's weight and persist
until replaced, so a stale allocation keeps steering snapshots with whatever
decayed weight its owner still has.  A snapshot holds one integer numerator
per gauge (escrow weight numerator times bps); their sum is the denominator.
Emission splits are exact: flooring remainders are reassigned by the
documented rules so each week's mint total equals the schedule to the base
unit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import GaugeError
from .escrow import Escrow
from .ledger import Ledger, check_amount

BPS = 10_000


def shares_to_bps(shares, total_bps: int = BPS) -> dict[int, int]:
    """Round fractional shares to basis points summing to exactly total_bps.

    Largest-remainder apportionment: floor every quota, then hand the leftover
    basis points to the largest fractional remainders (ties broken by larger
    share, then lower gauge id).  Keeps every gauge within one basis point of
    its exact quota.  Shares may be ints, Fractions or floats; each is taken
    exactly (``as_integer_ratio``) onto one common denominator, so the
    apportionment runs on integers.
    """
    ratios = {g: s.as_integer_ratio() for g, s in shares.items() if s > 0}
    common = math.lcm(*(den for _, den in ratios.values()))
    nums = {g: num * (common // den) for g, (num, den) in ratios.items()}
    total = sum(nums.values())
    if total == 0 or total_bps <= 0:
        return {}
    floors: dict[int, int] = {}
    remainders: dict[int, int] = {}
    for g, num in nums.items():
        floors[g], remainders[g] = divmod(num * total_bps, total)
    leftover = total_bps - sum(floors.values())
    order = sorted(nums, key=lambda g: (-remainders[g], -nums[g], g))
    for g in order[:leftover]:
        floors[g] += 1
    return {g: bps for g, bps in floors.items() if bps > 0}


@dataclass
class Gauge:
    gauge_id: int
    name: str
    lp_accounts: list[tuple[str, int]]


class EmissionSchedule:
    """Per-week emission amounts over non-overlapping half-open ranges [start, end)."""

    def __init__(self, entries=()):
        self.entries: list[tuple[int, int, int]] = []
        last_end = None
        for start, end, per_week in sorted(entries):
            if end <= start:
                raise GaugeError(f"emission range [{start}, {end}) is empty")
            check_amount(per_week)
            if last_end is not None and start < last_end:
                raise GaugeError(f"emission ranges overlap at epoch {start}")
            self.entries.append((start, end, per_week))
            last_end = end

    def amount_for(self, epoch: int) -> int:
        for start, end, per_week in self.entries:
            if start <= epoch < end:
                return per_week
        return 0


@dataclass
class VoteAllocation:
    """One account's persistent gauge split, in basis points (sum <= BPS)."""

    by_gauge: dict[int, int] = field(default_factory=dict)

    def total_bps(self) -> int:
        return sum(self.by_gauge.values())


class GaugeController:
    def __init__(self, escrow: Escrow, ledger: Ledger, schedule: EmissionSchedule, emission_token: str):
        self.escrow = escrow
        self.ledger = ledger
        self.schedule = schedule
        self.emission_token = emission_token
        self.gauges: dict[int, Gauge] = {}
        self.allocations: dict[str, VoteAllocation] = {}
        self.snapshot: tuple[int, dict[int, int]] | None = None  # (epoch, weights)
        self._next_id = 0

    def add_gauge(self, name: str, lp_accounts) -> int:
        shares = list(lp_accounts)
        if not shares:
            raise GaugeError("a gauge needs at least one liquidity account")
        for account, bps in shares:
            if not isinstance(bps, int) or bps <= 0:
                raise GaugeError(f"lp share for {account} must be a positive int of bps")
        if sum(bps for _, bps in shares) != BPS:
            raise GaugeError(f"lp shares for gauge {name!r} must sum to {BPS} bps")
        gauge_id = self._next_id
        self._next_id += 1
        self.gauges[gauge_id] = Gauge(gauge_id, name, shares)
        return gauge_id

    def check_allocation(self, allocation) -> dict[int, int]:
        """Validate a (gauge id, bps) list and return it as a dict (zeros dropped)."""
        seen: dict[int, int] = {}
        for gauge_id, bps in allocation:
            if gauge_id not in self.gauges:
                raise GaugeError(f"unknown gauge {gauge_id}")
            if not isinstance(bps, int) or bps < 0:
                raise GaugeError(f"bps for gauge {gauge_id} must be a non-negative int")
            if gauge_id in seen:
                raise GaugeError(f"gauge {gauge_id} listed twice in allocation")
            seen[gauge_id] = bps
        if sum(seen.values()) > BPS:
            raise GaugeError(f"allocation exceeds {BPS} bps")
        return {g: bps for g, bps in seen.items() if bps > 0}

    def vote_for_gauge_weights(self, account: str, allocation, now: int) -> VoteAllocation:
        cleaned = self.check_allocation(allocation)
        if self.escrow.weight_numerator(account, now) == 0:
            raise GaugeError(f"{account} has no voting weight at epoch {now}")
        replaced = VoteAllocation(cleaned)
        self.allocations[account] = replaced
        return replaced

    def relative_weights(self, now: int) -> dict[int, int]:
        """Each gauge's weight numerator at ``now``; a gauge's relative weight is
        its numerator over the sum of all of them (all zero: no weight anywhere)."""
        raw = dict.fromkeys(self.gauges, 0)
        for account, allocation in self.allocations.items():
            weight = self.escrow.weight_numerator(account, now)
            if weight == 0:
                continue
            for gauge_id, bps in allocation.by_gauge.items():
                raw[gauge_id] += weight * bps
        return raw

    def take_snapshot(self, now: int) -> dict[int, int]:
        weights = self.relative_weights(now)
        self.snapshot = (now, weights)
        return weights

    def distribute_emissions(self, now: int) -> list[tuple[int, str, int]]:
        """Mint this week's emission to each gauge's lp accounts, exactly."""
        if self.snapshot is None or self.snapshot[0] != now:
            raise GaugeError(f"no weight snapshot for epoch {now}")
        weights = self.snapshot[1]
        emission = self.schedule.amount_for(now)
        total = sum(weights.values())
        if emission == 0 or total == 0:
            return []
        per_gauge = {g: emission * num // total for g, num in weights.items()}
        leftover = emission - sum(per_gauge.values())
        if leftover:
            top = max(weights, key=lambda g: (weights[g], -g))
            per_gauge[top] += leftover
        events: list[tuple[int, str, int]] = []
        for gauge_id in sorted(per_gauge):
            amount = per_gauge[gauge_id]
            if amount == 0:
                continue
            events.extend(self._mint_to_lps(gauge_id, amount))
        return events

    def _mint_to_lps(self, gauge_id: int, amount: int) -> list[tuple[int, str, int]]:
        gauge = self.gauges[gauge_id]
        cuts = [amount * bps // BPS for _, bps in gauge.lp_accounts]
        # leftover base units go to the largest lp share, first listed on ties
        leftover = amount - sum(cuts)
        if leftover:
            top = max(range(len(cuts)), key=lambda i: (gauge.lp_accounts[i][1], -i))
            cuts[top] += leftover
        events = []
        for (account, _), cut in zip(gauge.lp_accounts, cuts):
            if cut:
                self.ledger.mint(self.emission_token, account, cut)
                events.append((gauge_id, account, cut))
        return events
