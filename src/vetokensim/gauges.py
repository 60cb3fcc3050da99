"""Gauge registry, persistent vote allocations, weight snapshots, and emissions.

A gauge is its id and its ``(account, bps)`` LP shares; its name lives only in
the scenario config.  Vote allocations map each account to ``{gauge id: bps}``
of its weight and persist until replaced, so a stale allocation keeps steering
snapshots with whatever decayed weight its owner still has.  A snapshot holds one integer numerator
per gauge (escrow weight numerator times bps); their sum is the denominator.
Emission splits are exact: flooring remainders are reassigned by the
documented rules so each week's mint total equals the schedule to the base
unit.
"""

from __future__ import annotations

import math

from .errors import GaugeError
from .escrow import Escrow
from .ledger import BPS, Ledger


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
    common = math.lcm(*{den for _, den in ratios.values()})  # float shares have few distinct denominators
    nums = {g: num * (common // den) for g, (num, den) in ratios.items()}
    total = sum(nums.values())
    floors: dict[int, int] = {}
    order: list[tuple[int, int, int]] = []  # (-remainder, -num, g): largest first, then larger share, lower id
    for g, num in nums.items():
        floors[g], remainder = divmod(num * total_bps, total)
        order.append((-remainder, -num, g))
    # no shares (then lcm() is 1 and the loop never divides) or total_bps <= 0: no bps above 0, so {}
    leftover = total_bps - sum(floors.values())
    if leftover > 0:
        order.sort()
        for _, _, g in order[:leftover]:
            floors[g] += 1
    return {g: bps for g, bps in floors.items() if bps > 0}


class EmissionSchedule:
    """Per-week emission amounts over non-overlapping half-open ranges [start, end)."""

    def __init__(self, entries=()):
        self.entries: list[tuple[int, int, int]] = sorted(entries)

    def amount_for(self, epoch: int) -> int:
        for start, end, per_week in self.entries:
            if start <= epoch < end:
                return per_week
        return 0


class GaugeController:
    def __init__(self, escrow: Escrow, ledger: Ledger, schedule: EmissionSchedule, emission_token: str):
        self.escrow = escrow
        self.ledger = ledger
        self.schedule = schedule
        self.emission_token = emission_token
        self.gauges: dict[int, list[tuple[str, int]]] = {}  # gauge id -> LP shares
        self.allocations: dict[str, dict[int, int]] = {}  # account -> {gauge id: bps}
        self.allocations_version = 0  # moves each time a vote changes ``allocations``
        self.snapshot: tuple[int, dict[int, int]] | None = None  # (epoch, weights)

    def add_gauge(self, lp_accounts) -> int:
        """Add a gauge whose (account, bps) LP shares sum to ``BPS``; return its id."""
        gauge_id = len(self.gauges)
        self.gauges[gauge_id] = list(lp_accounts)
        return gauge_id

    def check_allocation(self, allocation) -> dict[int, int]:
        """Validate a (gauge id, bps) list and return it as a dict (zeros dropped)."""
        seen: dict[int, int] = {}
        for gauge_id, bps in allocation:
            if gauge_id not in self.gauges:
                raise GaugeError(f"unknown gauge {gauge_id}")
            if type(bps) is not int or bps < 0:
                raise GaugeError(f"bps for gauge {gauge_id} must be a non-negative int")
            if gauge_id in seen:
                raise GaugeError(f"gauge {gauge_id} listed twice in allocation")
            seen[gauge_id] = bps
        if sum(seen.values()) > BPS:
            raise GaugeError(f"allocation exceeds {BPS} bps")
        return {g: bps for g, bps in seen.items() if bps > 0}

    def vote_for_gauge_weights(self, account: str, allocation, now: int) -> dict[int, int]:
        cleaned = self.check_allocation(allocation)
        if self.escrow.weight_numerator(account, now) == 0:
            raise GaugeError(f"{account} has no voting weight at epoch {now}")
        if self.allocations.get(account) != cleaned:  # an equal re-vote keeps the stored dict
            self.allocations[account] = cleaned
            self.allocations_version += 1
        return cleaned

    def relative_weights(self, now: int) -> dict[int, int]:
        """Each gauge's weight numerator at ``now``; a gauge's relative weight is
        its numerator over the sum of all of them (all zero: no weight anywhere)."""
        raw = dict.fromkeys(self.gauges, 0)
        for account, allocation in self.allocations.items():
            weight = self.escrow.weight_numerator(account, now)
            if weight == 0:
                continue
            for gauge_id, bps in allocation.items():
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
        lp_accounts = self.gauges[gauge_id]
        cuts = [amount * bps // BPS for _, bps in lp_accounts]
        # leftover base units go to the largest lp share, first listed on ties
        leftover = amount - sum(cuts)
        if leftover:
            top = max(range(len(cuts)), key=lambda i: (lp_accounts[i][1], -i))
            cuts[top] += leftover
        events = []
        for (account, _), cut in zip(lp_accounts, cuts):
            if cut:
                self.ledger.mint(self.emission_token, account, cut)
                events.append((gauge_id, account, cut))
        return events
