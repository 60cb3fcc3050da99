"""Analysis of simulation traces: participation, bribe/vote shares,
correlation, outlier classes, share-difference matrices, and cost per vote
by acquisition avenue (one pass per avenue for any number of accounts).

Every function here is a pure read of an immutable trace in one pass over its
rows, through the typed reader ``scenario.Fields``; a trace read from a file
parses each row as the pass reaches it.  The readers the run summary needs are
folds: an object whose ``add(f)`` takes one row's ``Fields``, in trace order,
and whose result method (``Participation.stats``, ``Shares.table``,
``CostFold.final``) answers once every row is in.  ``fold(trace, *folds)``
walks the rows once and feeds each row to every fold, so any number of folds
share one pass; ``participation_stats``, ``share_table`` and ``cost_per_vote``
each drive one fold.  Weight-typed trace fields arrive as exact
``n`` or ``n/d`` strings; they are read as ``(num, den)`` int pairs, summed
exactly, and turned into a float by one int/int division, which is correctly
rounded.  A missing field, a malformed ratio (or one above the largest float),
a field of the wrong type or a float total that overflows is a
``ScenarioError`` naming the epoch and the field path.  Every result is a
``Table`` whose one column schema drives both the CSV and the JSON export,
with fixed decimal formatting (10 significant digits) so repeated exports are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from typing import Iterable, NamedTuple

from .errors import MetricsError, ScenarioError
from .scenario import Fields
from .trace import SimTrace

AVENUES = ("direct-lock", "aggregator-lock", "bribe")

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


class Table:
    """A metric result that ``export`` writes.

    ``COLUMNS`` is the schema: one ``(name, cell type)`` pair per column, the
    CSV header and the JSON keys alike.  ``float`` columns (cells may be None)
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

    def columns(self) -> tuple[tuple[str, type], ...]:
        return self.COLUMNS

    def cell_rows(self) -> list[tuple]:
        return self.rows

    def json_payload(self, names: list[str], rows: list[tuple]):
        return {"rows": [dict(zip(names, row)) for row in rows]}

    def in_rounds(self, lo: int, hi: int):
        """This table with only the rows whose round_id is in ``lo..hi``."""
        at = [name for name, _ in self.columns()].index("round_id")
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

    def cell_rows(self) -> list[tuple]:
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

    def columns(self) -> tuple[tuple[str, type], ...]:
        return (("round_id", int),) + tuple((str(g), float) for g in self.gauge_order)

    def cell_rows(self) -> list[tuple]:
        return [(round_id, *line) for round_id, line in zip(self.round_ids, self.cells)]

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
    """Weekly gauge snapshot extract."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("epoch", int), ("gauge_id", int), ("relative_weight", float), ("emission", int))


class RoundResultTable(Table):
    """Meta-round result extract."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("round_id", int), ("gauge_id", int), ("meta_share", float), ("base_bps", int))


class SettlementTable(Table):
    """Bribe settlement extract."""

    rows: list[tuple[int, int, float, float, float | None]]
    COLUMNS = (
        ("round_id", int),
        ("gauge_id", int),
        ("bribe_usd", float),
        ("vote_weight", float),
        ("usd_per_vote", float),
    )


class Correlation(Table):
    """Pearson r of a share table: one cell, exported as a flat, unindented object."""

    COLUMNS = (("pearson", float),)
    JSON_INDENT = None

    def __init__(self, value: float):
        self.value = value

    def cell_rows(self) -> list[tuple]:
        return [(self.value,)]

    def json_payload(self, names, rows):
        return dict(zip(names, rows[0]))


def fold(trace: SimTrace, *folds) -> None:
    """Walk the rows of ``trace`` once, handing each row's ``Fields`` to every
    fold in turn."""
    for f in trace.fields():
        for each in folds:
            each.add(f)


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
            "gauge": (sum(voters_per_round) / len(voters_per_round)) if voters_per_round else 0.0
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
    participation = Participation()
    fold(trace, participation)
    return participation.stats()


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
        bribe_usd = {gauge_id: gauges.number(g, "bribe_usd", minimum=0) for gauge_id, g in gauges.gauge_items()}
        votes = {tally.gauge_id(g): tally.ratio(g) for g in tally.root}
        bribe_total = sum(bribe_usd.values())
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
    shares = Shares()
    fold(trace, shares)
    return shares.table()


def pearson(pairs) -> float:
    """Product-moment correlation of (x, y) pairs."""
    points = list(pairs)
    if len(points) < 2:
        raise MetricsError("pearson needs at least two pairs")
    n = len(points)
    mean_x = sum(x for x, _ in points) / n
    mean_y = sum(y for _, y in points) / n
    var_x = sum((x - mean_x) ** 2 for x, _ in points)
    var_y = sum((y - mean_y) ** 2 for _, y in points)
    # a constant column is degenerate even when rounding puts its mean an ulp off
    if var_x == 0 or var_y == 0 or len({x for x, _ in points}) == 1 or len({y for _, y in points}) == 1:
        raise MetricsError("pearson undefined for degenerate variance")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in points)
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
    rows = []
    for f in trace.fields():
        if not f.object("snapshot", default={}):
            continue
        epoch = f.integer("epoch")
        emissions = f.at("snapshot", "emissions", default={})
        for gauge_id, gauge in f.gauge_items("snapshot", "relative_weights"):
            num, den = f.ratio("snapshot", "relative_weights", gauge)
            rows.append((epoch, gauge_id, num / den, emissions.integer(gauge, default=0)))
    return SnapshotTable(rows)


def round_results(trace: SimTrace) -> RoundResultTable:
    rows = []
    for f in trace.fields():
        if not f.object("round_finalized", default={}):
            continue
        base = f.at("round_finalized", "base_allocation", default={})
        round_id = f.integer("round_finalized", "round")
        for gauge_id, gauge in f.gauge_items("round_finalized", "result"):
            num, den = f.ratio("round_finalized", "result", gauge)
            rows.append((round_id, gauge_id, num / den, base.integer(gauge, default=0)))
    return RoundResultTable(rows)


def settlements(trace: SimTrace) -> SettlementTable:
    rows = []
    for f in trace.fields():
        if not f.object("settlement", default={}):
            continue
        round_id = f.integer("settlement", "round")
        for gauge_id, gauge in f.gauge_items("settlement", "gauges"):
            g = f.at("settlement", "gauges", gauge)
            bribe_usd, (num, den) = g.number("bribe_usd", minimum=0), g.ratio("vote_weight")
            usd_per_vote = g.number("usd_per_vote", null=True, minimum=0)
            rows.append((round_id, gauge_id, bribe_usd, num / den, usd_per_vote))
    return SettlementTable(rows)


class CostFold:
    """Fold: the avenue rules of ``cost_per_vote`` for each of ``actors``,
    kept as running totals: ``paid`` (USD spent so far, per account that has
    paid) and ``votes`` (exact vote total so far, per account).  Every vote
    increment is non-negative."""

    def __init__(self, header: dict, avenue: str, actors: Iterable[str]):
        if avenue not in AVENUES:
            raise MetricsError(f"unknown avenue {avenue!r}; expected one of {AVENUES}")
        self.avenue = avenue
        self.lock_escrow = {"direct-lock": "base", "aggregator-lock": "governance"}.get(avenue)
        if avenue == "aggregator-lock":
            self.protocol_account = Fields(header, "trace header: ").string("protocol_account")
        self.paid: dict[str, float] = {}
        self.votes = dict.fromkeys(actors, ZERO)

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
            for actor in ballots.root:
                ballot = ballots.object(actor, default={}) if actor in votes else None
                if ballot:
                    bps = 0
                    for gauge in ballot:
                        bps += ballots.integer(actor, gauge, minimum=0)
                    num, den = weights.ratio(actor, default="0")
                    votes[actor] = _add(votes[actor], (num * bps, den * 10_000))
        elif avenue == "aggregator-lock" and f.object("round_finalized", default={}):
            total_num, total_den = f.ratio("round_finalized", "tally_total")
            if total_num:
                pooled = f.at("escrow_weights", "base").ratio(self.protocol_account, default="0")
                # mass / total * pooled, reduced so the running sum stays small
                scale_num, scale_den = pooled[0] * total_den, pooled[1] * total_num
                for actor in f.object("round_finalized", "voter_mass", default={}):
                    if actor in votes:
                        mass_num, mass_den = f.ratio("round_finalized", "voter_mass", actor)
                        num, den = mass_num * scale_num, mass_den * scale_den
                        common = math.gcd(num, den)
                        votes[actor] = _add(votes[actor], (num // common, den // common))
        elif avenue == "bribe" and f.object("settlement", default={}):
            # in gauge-id order, so the float spend totals do not depend on the key order
            for _, gauge in f.gauge_items("settlement", "gauges"):
                g = f.at("settlement", "gauges", gauge)
                for actor in g.object("briber_usd"):
                    if actor in votes:
                        paid[actor] = paid.get(actor, 0.0) + g.number("briber_usd", actor, minimum=0)
                        votes[actor] = _add(votes[actor], g.ratio("vote_weight"))

    def totals(self, actor: str) -> tuple[float, float, float | None]:
        """``actor``'s totals so far as floats: (USD spent, votes acquired, USD
        per vote, None before any vote).  A total that overflows a float, or a
        nonzero vote total that underflows one, is a ``ScenarioError`` naming
        the account and the avenue."""
        spent = self.paid.get(actor, 0.0)
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
        last defined value of its ``cost_per_vote`` series."""
        return {actor: self.totals(actor)[2] for actor in self.votes if actor in self.paid}


def cost_per_vote(trace: SimTrace, avenue: str, actors: Iterable[str]) -> dict[str, CostPerVoteSeries]:
    """Cumulative acquisition cost against cumulative votes, one row per epoch,
    in one pass, for each of ``actors`` that ever paid in ``avenue``.

    direct-lock: base-escrow lock cost at lock-time prices; votes are the
    actor's base weight exercised at each snapshot (scaled by allocated bps).
    aggregator-lock: governance-escrow lock cost; votes are the actor's share
    of each round's ballot mass times the pooled base weight at close.
    bribe: the actor's bribe spend at settlement valuation; votes are all
    voter weight landing on the gauges the actor bribed.
    """
    cost = CostFold(trace.header, avenue, actors)
    rows = {actor: [] for actor in cost.votes}
    # a series needs a row after every epoch, so this walks the rows itself
    for f in trace.fields():
        cost.add(f)
        epoch = f.integer("epoch")
        for actor, series in rows.items():
            series.append((epoch, *cost.totals(actor)))
    return {actor: CostPerVoteSeries(avenue, actor, series) for actor, series in rows.items() if actor in cost.paid}


def cost_per_vote_series(trace: SimTrace, actor: str, avenue: str) -> CostPerVoteSeries:
    """One account's ``cost_per_vote``; an account never active in the avenue is an error."""
    series = cost_per_vote(trace, avenue, [actor]).get(actor)
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
    columns = obj.columns()
    names = [name for name, _ in columns]
    decimal = _fmt if fmt == "csv" else _fnum
    # format column by column, so each column's formatter is chosen once
    by_column = zip(*obj.cell_rows())
    rows = list(zip(*(decimal(cells) if kind is float else cells
                      for (_, kind), cells in zip(columns, by_column))))
    if fmt == "csv":
        with open(path, "w", encoding="utf-8", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(names)
            writer.writerows(rows)
    else:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(obj.json_payload(names, rows), handle, sort_keys=True, indent=obj.JSON_INDENT)
            handle.write("\n")
