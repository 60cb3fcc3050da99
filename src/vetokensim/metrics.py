"""Analysis of simulation traces: participation, bribe/vote shares,
correlation, outlier classes, share-difference matrices, gauge snapshot, round
result and settlement extracts, and cost per vote by acquisition avenue.

Every trace reader here is a fold: an object whose ``add(f)`` takes one row's
``Fields`` (``scenario``'s typed reader), in trace order, and whose result
answers once every row is in: ``Participation.stats``, ``Shares.table``,
``CostFold.final``, ``CostSeries.series``, or the extract table itself
(``SnapshotTable``, ``RoundResultTable``, ``SettlementTable``).  ``fold(trace,
*folds)`` is the one walk over a trace's rows: it feeds each row to every fold,
so folds share one pass, and a trace read from a file parses each row as the
pass reaches it; each report function drives one fold.  Weight-typed trace
fields arrive as exact ``n`` or ``n/d`` strings; they are read as ``(num, den)``
int pairs, summed exactly (``CostFold``'s direct-lock votes as numerator sums
per denominator, reduced to one pair when read), and turned into a float by
one int/int division, which is correctly rounded.  A missing field, a
malformed ratio (or one above the largest float), a field of the wrong type
or a float total that overflows is a ``ScenarioError`` naming the epoch and
the field path.  Every result is a ``Table`` whose one column schema drives
both the CSV and the JSON export, with fixed decimal formatting (10
significant digits) so repeated exports are byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
import sys
from typing import Iterable, NamedTuple

from .errors import MetricsError, ScenarioError
from .ledger import BPS, left_sum
from .scenario import AVENUES, Fields, _parse_gauge_id, _parse_ratio
from .trace import SimTrace

ZERO = (0, 1)  # the ratio 0 as a (num, den) pair


# -- exact ratio arithmetic ---------------------------------------------------


def _add(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The exact sum of two ratios, over the least common multiple of their
    denominators (trace weights of one kind share a denominator, so it stays small)."""
    (a_num, a_den), (b_num, b_den) = a, b
    if a_den == b_den:
        return a_num + b_num, a_den
    common = math.gcd(a_den, b_den)
    return a_num * (b_den // common) + b_num * (a_den // common), a_den // common * b_den


def _quotient(a: tuple[int, int], b: tuple[int, int]) -> float:
    """``a / b`` as a correctly rounded float; 0.0 when ``b`` is zero."""
    return (a[0] * b[1]) / (a[1] * b[0]) if b[0] else 0.0


def _usd(value) -> bool:
    """Whether ``value`` is a float that ``Fields.number(..., minimum=0)`` reads
    as it is.  A fold takes such a value from its map and reads any other one
    through ``Fields``, which converts it or raises."""
    return type(value) is float and 0.0 <= value <= sys.float_info.max


class Table:
    """A metric result that ``export`` writes: plain data, ``COLUMNS`` and ``rows``.

    ``COLUMNS`` is the schema: one ``(name, cell type)`` pair per column, the
    CSV header and the JSON keys alike; ``rows`` holds one tuple of cells per
    row, in column order.  ``float`` columns (cells may be None)
    are decimals, written through ``_fmt`` in CSV and ``_fnum`` in JSON;
    other cells are written as they are.  The JSON document is ``{"rows": [{name:
    cell}]}`` indented by two, unless a table overrides ``json_payload``.
    Tables of one class with equal fields are equal.
    """

    COLUMNS: tuple[tuple[str, type], ...] = ()
    JSON_INDENT: int | None = 2

    def __init__(self, rows: list[tuple]):
        self.rows = rows

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return vars(other) == vars(self)

    def json_payload(self, names: list[str], rows: list[tuple]):
        return {"rows": [dict(zip(names, row)) for row in rows]}

    def in_rounds(self, lo: int, hi: int):
        """This table with only the rows whose round_id is in ``lo..hi``."""
        at = [name for name, _ in self.COLUMNS].index("round_id")
        return type(self)([row for row in self.rows if lo <= row[at] <= hi])


class ShareRow(NamedTuple):
    round_id: int
    gauge_id: int
    bribe_share: float
    vote_share: float


class ShareTable(Table):
    rows: list[ShareRow]
    COLUMNS = (("round_id", int), ("gauge_id", int), ("bribe_share", float), ("vote_share", float))

    def pairs(self) -> list[tuple[float, float]]:
        return [(row.bribe_share, row.vote_share) for row in self.rows]

    def in_rounds(self, lo: int, hi: int) -> ShareTable:
        kept = super().in_rounds(lo, hi)
        if not kept.rows:
            raise MetricsError(f"no share rows in rounds {lo}..{hi}")
        return kept


class ParticipationStats(Table):
    COLUMNS = (
        ("unique_lockers", int),
        ("unique_voters", int),
        ("voter_fraction", float),
        ("weight_voting_fraction", float),
        ("mean_gauge_voters", float),
    )

    def __init__(self, unique_lockers: int, unique_voters: int, voter_fraction: float,
                 weight_voting_fraction: float, mean_voters_by_proposal_type: dict[str, float]):
        self.unique_lockers = unique_lockers
        self.unique_voters = unique_voters
        self.voter_fraction = voter_fraction
        self.weight_voting_fraction = weight_voting_fraction
        self.mean_voters_by_proposal_type = mean_voters_by_proposal_type

    @property
    def rows(self) -> list[tuple]:
        # a property, so ``vars`` (which the run summary writes) holds only the five fields
        gauge_voters = self.mean_voters_by_proposal_type.get("gauge", 0.0)
        return [(self.unique_lockers, self.unique_voters, self.voter_fraction,
                 self.weight_voting_fraction, gauge_voters)]

    def json_payload(self, names, rows):
        # one flat object; the CSV's last column is an entry of the per-type dict
        payload = dict(zip(names[:-1], rows[0]))
        kinds = self.mean_voters_by_proposal_type
        payload["mean_voters_by_proposal_type"] = dict(zip(kinds, _fnum(kinds.values())))
        return payload


class DiffMatrix(Table):
    def __init__(self, gauge_order: list[int], round_ids: list[int], cells: list[list[float | None]]):
        self.gauge_order = gauge_order
        self.round_ids = round_ids
        self.cells = cells  # rows follow round_ids, columns gauge_order
        self.COLUMNS = (("round_id", int),) + tuple((str(g), float) for g in gauge_order)
        self.rows = [(round_id, *line) for round_id, line in zip(round_ids, cells)]

    def json_payload(self, names, rows):
        # the gauge columns become one list of cells per round
        return {
            "gauge_order": self.gauge_order,
            "rows": [{names[0]: row[0], "cells": list(row[1:])} for row in rows],
        }


class CostPerVoteSeries(Table):
    COLUMNS = (
        ("epoch", int),
        ("cumulative_usd_cost", float),
        ("cumulative_votes", float),
        ("usd_per_vote", float),
    )

    def __init__(self, avenue: str, actor: str, rows: list[tuple[int, float, float, float | None]]):
        self.avenue = avenue
        self.actor = actor
        self.rows = rows

    def final_usd_per_vote(self) -> float | None:
        for _, _, _, usd_per_vote in reversed(self.rows):
            if usd_per_vote is not None:
                return usd_per_vote
        return None

    def json_payload(self, names, rows):
        return {"avenue": self.avenue, "actor": self.actor, **super().json_payload(names, rows)}


class OutlierTable(Table):
    rows: list[tuple[int, int, float, float, str]]
    COLUMNS = ShareTable.COLUMNS + (("class", str),)


class SnapshotTable(Table):
    """Weekly gauge snapshot extract; a fold whose result is its own rows."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("epoch", int), ("gauge_id", int), ("relative_weight", float), ("emission", int))

    def add(self, f: Fields) -> None:
        if f.object("snapshot", default={}):
            epoch = f.integer("epoch")
            emissions = f.at("snapshot", "emissions", default={})
            weights = f.at("snapshot", "relative_weights")
            for gauge_id, gauge in weights.gauge_items():
                num, den = _parse_ratio(weights.root[gauge]) or weights.ratio(gauge)
                emission = emissions.root.get(gauge, 0)
                if type(emission) is not int:
                    emission = emissions.integer(gauge, default=0)
                self.rows.append((epoch, gauge_id, num / den, emission))


class RoundResultTable(Table):
    """Meta-round result extract; a fold whose result is its own rows."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("round_id", int), ("gauge_id", int), ("meta_share", float), ("base_bps", int))

    def add(self, f: Fields) -> None:
        if f.object("round_finalized", default={}):
            base = f.at("round_finalized", "base_allocation", default={})
            round_id = f.integer("round_finalized", "round")
            result = f.at("round_finalized", "result")
            for gauge_id, gauge in result.gauge_items():
                num, den = _parse_ratio(result.root[gauge]) or result.ratio(gauge)
                bps = base.root.get(gauge, 0)
                if type(bps) is not int:
                    bps = base.integer(gauge, default=0)
                self.rows.append((round_id, gauge_id, num / den, bps))


class SettlementTable(Table):
    """Bribe settlement extract; a fold whose result is its own rows."""

    rows: list[tuple[int, int, float, float, float | None]]
    COLUMNS = (
        ("round_id", int),
        ("gauge_id", int),
        ("bribe_usd", float),
        ("vote_weight", float),
        ("usd_per_vote", float),
    )

    def add(self, f: Fields) -> None:
        if f.object("settlement", default={}):
            round_id = f.integer("settlement", "round")
            gauges = f.at("settlement", "gauges")
            for gauge_id, gauge in gauges.gauge_items():
                entry = gauges.root[gauge]
                if type(entry) is dict and "usd_per_vote" in entry:
                    bribe_usd, usd_per_vote = entry.get("bribe_usd"), entry["usd_per_vote"]
                    weight = _parse_ratio(entry.get("vote_weight"))
                    if _usd(bribe_usd) and weight and (usd_per_vote is None or _usd(usd_per_vote)):
                        self.rows.append((round_id, gauge_id, bribe_usd, weight[0] / weight[1], usd_per_vote))
                        continue
                g = gauges.at(gauge)  # the per-field reads, which convert or raise
                bribe_usd, (num, den) = g.number("bribe_usd", minimum=0), g.ratio("vote_weight")
                usd_per_vote = g.number("usd_per_vote", null=True, minimum=0)
                self.rows.append((round_id, gauge_id, bribe_usd, num / den, usd_per_vote))


class Correlation(Table):
    """Pearson r of a share table: one cell, exported as a flat, unindented object."""

    COLUMNS = (("pearson", float),)
    JSON_INDENT = None

    def __init__(self, value: float):
        self.value = value
        self.rows = [(value,)]

    def json_payload(self, names, rows):
        return dict(zip(names, rows[0]))


def fold(trace: SimTrace, *folds) -> None:
    """Walk the rows of ``trace`` once, handing each row's ``Fields`` to every
    fold in turn."""
    for f in trace.fields():
        for each in folds:
            each.add(f)


def _read(trace: SimTrace, reader):
    fold(trace, reader)  # ``reader`` after one pass of ``trace``
    return reader


class Participation:
    """Fold: whole-trace participation counts and fractions."""

    def __init__(self):
        self.epochs = 0
        self.lockers: set[str] = set()
        self.voters: set[str] = set()
        self.cast_weight = self.total_weight = ZERO
        self.voters_per_round: list[int] = []

    def add(self, f: Fields) -> None:
        self.epochs += 1
        self.lockers.update(f.object("locks", "base", default={}))
        self.lockers.update(f.object("locks", "governance", default={}))
        self.voters.update(f.object("base_votes", default={}))
        if f.object("round_finalized", default={}):
            ballots = f.object("round_finalized", "ballots", default={})
            self.voters.update(ballots)
            self.voters_per_round.append(len(ballots))
            self.cast_weight = _add(self.cast_weight, f.ratio("round_finalized", "tally_total"))
            self.total_weight = _add(self.total_weight, f.ratio("round_finalized", "total_gov_weight"))

    def stats(self) -> ParticipationStats:
        if self.epochs == 0:
            raise MetricsError("cannot compute participation over an empty trace")
        lockers, voters, voters_per_round = self.lockers, self.voters, self.voters_per_round
        voter_fraction = len(voters) / len(lockers) if lockers else 0.0
        mean_by_type = {
            "gauge": (left_sum(voters_per_round) / len(voters_per_round)) if voters_per_round else 0.0
        }
        return ParticipationStats(
            unique_lockers=len(lockers),
            unique_voters=len(voters),
            voter_fraction=voter_fraction,
            weight_voting_fraction=_quotient(self.cast_weight, self.total_weight),
            mean_voters_by_proposal_type=mean_by_type,
        )


def participation_stats(trace: SimTrace) -> ParticipationStats:
    """Whole-trace participation counts and fractions."""
    return _read(trace, Participation()).stats()


class Shares:
    """Fold: one share row per (settled round, gauge) with any bribes or
    votes; ``settled`` counts the settled rounds."""

    def __init__(self):
        self.rows: list[ShareRow] = []
        self.settled = 0

    def add(self, f: Fields) -> None:
        if not f.object("settlement", default={}) or not f.object("round_finalized", default={}):
            return
        self.settled += 1
        round_id = f.integer("settlement", "round")
        gauges, tally = f.at("settlement", "gauges"), f.at("round_finalized", "tally")
        # summed in gauge-id order, so a row read from a file, whose keys are in
        # string order ("10" < "2"), gives the float total of the in-memory row
        bribe_usd = {}
        for gauge_id, g in gauges.gauge_items():
            entry = gauges.root[g]
            usd = entry.get("bribe_usd") if type(entry) is dict else None
            bribe_usd[gauge_id] = usd if _usd(usd) else gauges.number(g, "bribe_usd", minimum=0)
        votes = {}
        for g, text in tally.root.items():
            gauge_id = _parse_gauge_id(g)
            if gauge_id is None:
                gauge_id = tally.gauge_id(g)
            votes[gauge_id] = _parse_ratio(text) or tally.ratio(g)
        bribe_total = left_sum(bribe_usd.values())
        if not math.isfinite(bribe_total):
            raise f.error("bribe_usd total overflows a float", "settlement", "gauges")
        vote_total = ZERO
        for weight in votes.values():
            vote_total = _add(vote_total, weight)
        for gauge_id in sorted(set(bribe_usd) | set(votes)):
            bribe_share = bribe_usd.get(gauge_id, 0.0) / bribe_total if bribe_total else 0.0
            vote_share = _quotient(votes.get(gauge_id, ZERO), vote_total)
            if bribe_share > 0 or vote_share > 0:
                self.rows.append(ShareRow(round_id, gauge_id, bribe_share, vote_share))

    def table(self) -> ShareTable:
        if self.settled == 0:
            raise MetricsError("trace has no settled rounds")
        return ShareTable(sorted(self.rows, key=lambda r: (r.round_id, r.gauge_id)))


def share_table(trace: SimTrace) -> ShareTable:
    """One row per (settled round, gauge) with any bribes or votes."""
    return _read(trace, Shares()).table()


def pearson(pairs) -> float:
    """Product-moment correlation of (x, y) pairs."""
    points = list(pairs)
    if len(points) < 2:
        raise MetricsError("pearson needs at least two pairs")
    n = len(points)
    mean_x = left_sum(x for x, _ in points) / n
    mean_y = left_sum(y for _, y in points) / n
    var_x = left_sum((x - mean_x) ** 2 for x, _ in points)
    var_y = left_sum((y - mean_y) ** 2 for _, y in points)
    # a constant column is degenerate even when rounding puts its mean an ulp off
    if var_x == 0 or var_y == 0 or len({x for x, _ in points}) == 1 or len({y for _, y in points}) == 1:
        raise MetricsError("pearson undefined for degenerate variance")
    cov = left_sum((x - mean_x) * (y - mean_y) for x, y in points)
    return cov / math.sqrt(var_x * var_y)


# a vote share below OUTLIER_SMALL is negligible; otherwise a vote/bribe share
# ratio below OUTLIER_LOW is under, above OUTLIER_HIGH over, else it follows
OUTLIER_LOW, OUTLIER_HIGH, OUTLIER_SMALL = 0.8, 1.2, 0.01


def classify_outliers(table: ShareTable) -> list[str]:
    """Per-row class: negligible takes precedence, then the vote/bribe ratio.

    Rows with no bribes but a non-negligible vote share count as "over".
    """
    if not table.rows:
        raise MetricsError("cannot classify an empty share table")
    classes = []
    for row in table.rows:
        if row.vote_share < OUTLIER_SMALL:
            classes.append("negligible")
        elif row.bribe_share == 0:
            classes.append("over")
        else:
            ratio = row.vote_share / row.bribe_share
            if ratio < OUTLIER_LOW:
                classes.append("under")
            elif ratio > OUTLIER_HIGH:
                classes.append("over")
            else:
                classes.append("follows")
    return classes


def outlier_table(table: ShareTable) -> OutlierTable:
    classes = classify_outliers(table)
    return OutlierTable(
        [
            (row.round_id, row.gauge_id, row.bribe_share, row.vote_share, cls)
            for row, cls in zip(table.rows, classes)
        ]
    )


def diff_matrix(table: ShareTable) -> DiffMatrix:
    """(vote share - bribe share) in percentage points per (round, gauge).

    Columns are gauges ordered by descending total relative bribes across the
    table (ties by ascending gauge id); cells absent from the table stay empty.
    """
    if not table.rows:
        raise MetricsError("cannot build a matrix from an empty share table")
    totals: dict[int, float] = {}
    for row in table.rows:
        totals[row.gauge_id] = totals.get(row.gauge_id, 0.0) + row.bribe_share
    gauge_order = sorted(totals, key=lambda g: (-totals[g], g))
    round_ids = sorted({row.round_id for row in table.rows})
    index = {(row.round_id, row.gauge_id): row for row in table.rows}
    cells: list[list[float | None]] = []
    for round_id in round_ids:
        line: list[float | None] = []
        for gauge_id in gauge_order:
            row = index.get((round_id, gauge_id))
            line.append(None if row is None else (row.vote_share - row.bribe_share) * 100.0)
        cells.append(line)
    return DiffMatrix(gauge_order, round_ids, cells)


def gauge_snapshots(trace: SimTrace) -> SnapshotTable:
    return _read(trace, SnapshotTable([]))


def round_results(trace: SimTrace) -> RoundResultTable:
    return _read(trace, RoundResultTable([]))


def settlements(trace: SimTrace) -> SettlementTable:
    return _read(trace, SettlementTable([]))


class CostFold:
    """Fold: the acquisition cost and votes of each of ``actors`` in ``avenue``,
    as running totals: ``paid`` (USD so far, per account that has paid) and
    ``votes`` (exact vote total so far, per account; no increment is negative).
    direct-lock: base-escrow lock cost at lock-time prices; votes are the
    actor's base weight exercised at each snapshot (scaled by allocated bps),
    kept in ``pending`` as numerator sums per weight denominator until
    ``totals`` adds them into ``votes``, so a ballot costs no gcd.
    aggregator-lock: governance-escrow lock cost; votes are the actor's share
    of each round's ballot mass times the pooled base weight at close.
    bribe: the actor's bribe spend at settlement valuation; votes are all
    voter weight landing on the gauges the actor bribed."""

    def __init__(self, header: dict, avenue: str, actors: Iterable[str]):
        if avenue not in AVENUES:
            raise MetricsError(f"unknown avenue {avenue!r}; expected one of {AVENUES}")
        self.avenue = avenue
        self.lock_escrow = {"direct-lock": "base", "aggregator-lock": "governance"}.get(avenue)
        if avenue == "aggregator-lock":
            self.protocol_account = Fields(header, "trace header: ").string("protocol_account")
        self.paid: dict[str, float] = {}
        self.votes = dict.fromkeys(actors, ZERO)
        # direct-lock votes not yet in ``votes``: weight denominator -> sum of
        # weight numerator times ballot bps, each sum over denominator * BPS
        self.pending: dict[str, dict[int, int]] = {actor: {} for actor in self.votes}

    def add(self, f: Fields) -> None:
        avenue, paid, votes = self.avenue, self.paid, self.votes
        if self.lock_escrow:
            for event in f.each("lock_events", default=()):
                actor = event.string("account")
                if actor in votes and event.string("escrow") == self.lock_escrow and event.integer("amount") > 0:
                    paid[actor] = paid.get(actor, 0.0) + event.number("usd_cost", minimum=0)
        if avenue == "direct-lock" and f.value("snapshot", default=None) is not None:
            weights = f.at("escrow_weights", "base")
            ballots = f.at("base_votes", default={})
            pending = self.pending
            for actor, ballot in ballots.root.items():
                if actor not in votes:
                    continue
                if type(ballot) is not dict:  # null reads as no ballot; any other value raises
                    ballot = ballots.object(actor, default={})
                if ballot:
                    bps = 0
                    for gauge, value in ballot.items():
                        if type(value) is not int or value < 0:
                            value = ballots.integer(actor, gauge, minimum=0)  # raises
                        bps += value
                    num, den = _parse_ratio(weights.root.get(actor)) or weights.ratio(actor, default="0")
                    sums = pending[actor]  # the vote is num * bps / (den * BPS)
                    sums[den] = sums.get(den, 0) + num * bps
        elif avenue == "aggregator-lock" and f.object("round_finalized", default={}):
            total_num, total_den = f.ratio("round_finalized", "tally_total")
            if total_num:
                pooled = f.at("escrow_weights", "base").ratio(self.protocol_account, default="0")
                # mass / total * pooled, reduced so the running sum stays small
                scale_num, scale_den = pooled[0] * total_den, pooled[1] * total_num
                for actor, mass in f.object("round_finalized", "voter_mass", default={}).items():
                    if actor in votes:
                        mass_num, mass_den = _parse_ratio(mass) or f.ratio("round_finalized", "voter_mass", actor)
                        num, den = mass_num * scale_num, mass_den * scale_den
                        common = math.gcd(num, den)
                        votes[actor] = _add(votes[actor], (num // common, den // common))
        elif avenue == "bribe" and f.object("settlement", default={}):
            # in gauge-id order, so the float spend totals do not depend on the key order
            gauges = f.at("settlement", "gauges")
            for _, gauge in gauges.gauge_items():
                entry = gauges.root[gauge]
                spent = entry.get("briber_usd") if type(entry) is dict else None
                if type(spent) is not dict:
                    spent = gauges.at(gauge).object("briber_usd")  # raises: not an object
                weight = None  # read at the gauge's first followed briber, as each briber's weight
                for actor, usd in spent.items():
                    if actor in votes:
                        if not _usd(usd):
                            usd = gauges.at(gauge).number("briber_usd", actor, minimum=0)
                        if weight is None:
                            weight = _parse_ratio(entry.get("vote_weight")) or gauges.at(gauge).ratio("vote_weight")
                        paid[actor] = paid.get(actor, 0.0) + usd
                        votes[actor] = _add(votes[actor], weight)

    def totals(self, actor: str) -> tuple[float, float, float | None]:
        """``actor``'s totals so far as floats: (USD spent, votes acquired, USD
        per vote, None before any vote).  A total that overflows a float, or a
        nonzero vote total that underflows one, is a ``ScenarioError`` naming
        the account and the avenue."""
        spent = self.paid.get(actor, 0.0)
        sums = self.pending[actor]
        if sums:
            total = self.votes[actor]
            for weight_den, bps_num in sums.items():
                total = _add(total, (bps_num, weight_den * BPS))
            sums.clear()
            self.votes[actor] = total
        num, den = self.votes[actor]
        try:
            acquired = num / den
            per_vote = spent / acquired if num else None
        except OverflowError:
            problem = "vote total overflows a float"
        except ZeroDivisionError:
            problem = "vote total underflows a float"
        else:
            if math.isinf(spent):
                problem = "spend total overflows a float"
            elif per_vote is not None and math.isinf(per_vote):
                problem = "USD per vote overflows a float"
            else:
                return spent, acquired, per_vote
        raise ScenarioError(f"trace: {actor} in avenue {self.avenue}: {problem}")

    def final(self) -> dict[str, float | None]:
        """The final USD per vote of each account that paid, in ``actors`` order
        (None if it got no votes).  Vote totals never decrease, so this is the
        last defined value of its ``CostSeries`` series."""
        return {actor: self.totals(actor)[2] for actor in self.votes if actor in self.paid}


class CostSeries(CostFold):
    """Fold: ``CostFold`` that keeps each account's totals after every row, one
    row per epoch; ``series()`` gives the series of each account that paid, in
    ``actors`` order."""

    def __init__(self, header: dict, avenue: str, actors: Iterable[str]):
        super().__init__(header, avenue, actors)
        self.rows: dict[str, list] = {actor: [] for actor in self.votes}

    def add(self, f: Fields) -> None:
        super().add(f)
        epoch = f.integer("epoch")
        for actor, rows in self.rows.items():
            rows.append((epoch, *self.totals(actor)))

    def series(self) -> dict[str, CostPerVoteSeries]:
        return {actor: CostPerVoteSeries(self.avenue, actor, rows)
                for actor, rows in self.rows.items() if actor in self.paid}


def cost_per_vote_series(trace: SimTrace, actor: str, avenue: str) -> CostPerVoteSeries:
    """One account's cost per vote series; an account never active in the avenue is an error."""
    series = _read(trace, CostSeries(trace.header, avenue, [actor])).series().get(actor)
    if series is None:
        raise MetricsError(f"account {actor} was never active in avenue {avenue}")
    return series


# -- exports -------------------------------------------------------------------


def _fmt(cells) -> list[str]:
    """A CSV decimal column: floats to 10 significant digits, None to an empty cell."""
    return [f"{v:.10g}" if isinstance(v, float) else "" if v is None else str(v) for v in cells]


def _fnum(cells) -> list:
    """A JSON decimal column: floats squashed through the 10-significant-digit format."""
    return [None if v is None else float(f"{v:.10g}") for v in cells]


def export(obj, fmt: str, path: str) -> None:
    """Write a metric table to disk, byte-stably."""
    if fmt not in ("csv", "json"):
        raise MetricsError(f"unknown export format {fmt!r}")
    if not isinstance(obj, Table):
        raise MetricsError(f"no {fmt.upper()} export for {type(obj).__name__}")
    names = [name for name, _ in obj.COLUMNS]
    decimal = _fmt if fmt == "csv" else _fnum
    # format column by column, so each column's formatter is chosen once
    by_column = zip(*obj.rows)
    rows = list(zip(*(decimal(cells) if kind is float else cells
                      for (_, kind), cells in zip(obj.COLUMNS, by_column))))
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj.json_payload(names, rows), handle, sort_keys=True, indent=obj.JSON_INDENT)
            handle.write("\n")
