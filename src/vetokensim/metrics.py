"""Analysis of simulation traces: participation, bribe/vote shares,
correlation, outlier classes, share-difference matrices, and cost per vote
by acquisition avenue (one pass per avenue for any number of accounts).

Every function here is a pure read of an immutable trace.  Weight-typed trace
fields arrive as exact ``n`` or ``n/d`` strings; they are read as ``(num,
den)`` int pairs, summed exactly, and turned into a float by one int/int
division, which is correctly rounded.  A missing field or a malformed ratio
is a ``ScenarioError`` naming the epoch and the field path.  Every result is
a ``Table`` whose one column schema drives both the CSV and the JSON export,
with fixed decimal formatting (10 significant digits) so repeated exports are
byte-identical.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from typing import Iterable, NamedTuple

from .errors import MetricsError, ScenarioError
from .sim import SimTrace

AVENUES = ("direct-lock", "aggregator-lock", "bribe")

ZERO = (0, 1)  # the ratio 0 as a (num, den) pair


# -- trace fields --------------------------------------------------------------


def _trace_error(row: dict, path: tuple, problem: str) -> ScenarioError:
    where = "".join(f"[{key}]" if isinstance(key, int) else f".{key}" for key in path)
    return ScenarioError(f"trace epoch {row.get('epoch')}: {where[1:]}: {problem}")


def _field(row: dict, *path):
    """``row[path[0]][path[1]]...``; a missing field is an input error."""
    value = row
    for depth, key in enumerate(path):
        try:
            value = value[key]
        except (KeyError, IndexError, TypeError):
            raise _trace_error(row, path[: depth + 1], "required field missing") from None
    return value


def _object(row: dict, *path) -> dict:
    """The JSON object at ``path`` in ``row``."""
    value = _field(row, *path)
    if not isinstance(value, dict):
        raise _trace_error(row, path, f"expected an object, got {type(value).__name__}")
    return value


def _optional(row: dict, *path) -> dict:
    """The JSON object at ``path`` in ``row``, or ``{}`` where a field on the
    way is absent or null."""
    parent = _optional(row, *path[:-1]) if len(path) > 1 else row
    return {} if parent.get(path[-1]) is None else _object(row, *path)


def _gauge_id(row: dict, *path) -> int:
    """The gauge-id key that ends ``path`` in ``row``, as an int."""
    key = path[-1]
    if not (key.isascii() and key.isdigit()):
        raise _trace_error(row, path, f"expected a gauge id, got {key!r}")
    return int(key)


def _gauge_items(row: dict, *path) -> list[tuple[int, str, object]]:
    """``(gauge id, key, value)`` for each entry of the object at ``path`` in
    ``row``, in gauge-id order."""
    return sorted((_gauge_id(row, *path, key), key, value) for key, value in _object(row, *path).items())


def _fields(row: dict, path: tuple, *keys) -> list:
    """The values of ``keys`` in the object at ``path`` in ``row``."""
    record = _object(row, *path)
    try:
        return [record[key] for key in keys]
    except KeyError as exc:
        raise _trace_error(row, (*path, exc.args[0]), "required field missing") from None


def _ratio(text, row: dict, *path) -> tuple[int, int]:
    """A trace weight ``"n"`` or ``"n/d"`` (``path`` in ``row``) as ``(n, d)``, n >= 0, d > 0."""
    try:
        num, slash, den = text.partition("/")
        num, den = int(num), int(den) if slash else 1
    except (AttributeError, ValueError):
        num = den = -1
    if num < 0 or den <= 0:
        raise _trace_error(row, path, f"expected a ratio n or n/d, got {text!r}")
    return num, den


def _ratio_at(row: dict, *path) -> tuple[int, int]:
    return _ratio(_field(row, *path), row, *path)


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
    """

    COLUMNS: tuple[tuple[str, type], ...] = ()
    JSON_INDENT: int | None = 2

    def columns(self) -> tuple[tuple[str, type], ...]:
        return self.COLUMNS

    def cell_rows(self) -> list[tuple]:
        return self.rows

    def json_payload(self, names: list[str], rows: list[tuple]):
        return {"rows": [dict(zip(names, row)) for row in rows]}

    def in_rounds(self, lo: int, hi: int):
        """This table with only the rows whose round_id is in ``lo..hi``."""
        at = [name for name, _ in self.columns()].index("round_id")
        return replace(self, rows=[row for row in self.rows if lo <= row[at] <= hi])


class ShareRow(NamedTuple):
    round_id: int
    gauge_id: int
    bribe_share: float
    vote_share: float


@dataclass
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


@dataclass
class ParticipationStats(Table):
    unique_lockers: int
    unique_voters: int
    voter_fraction: float
    weight_voting_fraction: float
    mean_voters_by_proposal_type: dict[str, float]
    COLUMNS = (
        ("unique_lockers", int),
        ("unique_voters", int),
        ("voter_fraction", float),
        ("weight_voting_fraction", float),
        ("mean_gauge_voters", float),
    )

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


@dataclass
class DiffMatrix(Table):
    gauge_order: list[int]
    round_ids: list[int]
    cells: list[list[float | None]]  # rows follow round_ids, columns gauge_order

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


@dataclass
class CostPerVoteSeries(Table):
    avenue: str
    actor: str
    rows: list[tuple[int, float, float, float | None]]
    COLUMNS = (
        ("epoch", int),
        ("cumulative_usd_cost", float),
        ("cumulative_votes", float),
        ("usd_per_vote", float),
    )

    def final_usd_per_vote(self) -> float | None:
        for _, _, _, usd_per_vote in reversed(self.rows):
            if usd_per_vote is not None:
                return usd_per_vote
        return None

    def json_payload(self, names, rows):
        return {"avenue": self.avenue, "actor": self.actor, **super().json_payload(names, rows)}


@dataclass
class OutlierTable(Table):
    rows: list[tuple[int, int, float, float, str]]
    COLUMNS = ShareTable.COLUMNS + (("class", str),)


@dataclass
class SnapshotTable(Table):
    """Weekly gauge snapshot extract."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("epoch", int), ("gauge_id", int), ("relative_weight", float), ("emission", int))


@dataclass
class RoundResultTable(Table):
    """Meta-round result extract."""

    rows: list[tuple[int, int, float, int]]
    COLUMNS = (("round_id", int), ("gauge_id", int), ("meta_share", float), ("base_bps", int))


@dataclass
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


@dataclass
class Correlation(Table):
    """Pearson r of a share table: one cell, exported as a flat, unindented object."""

    value: float
    COLUMNS = (("pearson", float),)
    JSON_INDENT = None

    def cell_rows(self) -> list[tuple]:
        return [(self.value,)]

    def json_payload(self, names, rows):
        return dict(zip(names, rows[0]))


def participation_stats(trace: SimTrace) -> ParticipationStats:
    """Whole-trace participation counts and fractions."""
    if len(trace) == 0:
        raise MetricsError("cannot compute participation over an empty trace")
    lockers: set[str] = set()
    voters: set[str] = set()
    cast_weight = total_weight = ZERO
    voters_per_round: list[int] = []
    for row in trace:
        lockers.update(_optional(row, "locks", "base"))
        lockers.update(_optional(row, "locks", "governance"))
        voters.update(_optional(row, "base_votes"))
        if row.get("round_finalized"):
            ballots = _optional(row, "round_finalized", "ballots")
            voters.update(ballots)
            voters_per_round.append(len(ballots))
            cast_weight = _add(cast_weight, _ratio_at(row, "round_finalized", "tally_total"))
            total_weight = _add(total_weight, _ratio_at(row, "round_finalized", "total_gov_weight"))
    voter_fraction = len(voters) / len(lockers) if lockers else 0.0
    mean_by_type = {
        "gauge": (sum(voters_per_round) / len(voters_per_round)) if voters_per_round else 0.0
    }
    return ParticipationStats(
        unique_lockers=len(lockers),
        unique_voters=len(voters),
        voter_fraction=voter_fraction,
        weight_voting_fraction=_quotient(cast_weight, total_weight),
        mean_voters_by_proposal_type=mean_by_type,
    )


def share_table(trace: SimTrace) -> ShareTable:
    """One row per (settled round, gauge) with any bribes or votes."""
    rows: list[ShareRow] = []
    settled = 0
    for row in trace:
        settlement = row.get("settlement")
        finalized = row.get("round_finalized")
        if not settlement or not finalized:
            continue
        settled += 1
        round_id = _field(row, "settlement", "round")
        bribe_usd = {
            _gauge_id(row, "settlement", "gauges", g): _field(row, "settlement", "gauges", g, "bribe_usd")
            for g in _object(row, "settlement", "gauges")
        }
        votes = {
            _gauge_id(row, "round_finalized", "tally", g): _ratio(w, row, "round_finalized", "tally", g)
            for g, w in _object(row, "round_finalized", "tally").items()
        }
        bribe_total = sum(bribe_usd.values())
        vote_total = ZERO
        for weight in votes.values():
            vote_total = _add(vote_total, weight)
        for gauge_id in sorted(set(bribe_usd) | set(votes)):
            bribe_share = bribe_usd.get(gauge_id, 0.0) / bribe_total if bribe_total else 0.0
            vote_share = _quotient(votes.get(gauge_id, ZERO), vote_total)
            if bribe_share > 0 or vote_share > 0:
                rows.append(ShareRow(round_id, gauge_id, bribe_share, vote_share))
    if settled == 0:
        raise MetricsError("trace has no settled rounds")
    rows.sort(key=lambda r: (r.round_id, r.gauge_id))
    return ShareTable(rows)


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


def classify_outliers(table: ShareTable, low: float = 0.8, high: float = 1.2, small: float = 0.01) -> list[str]:
    """Per-row class: negligible takes precedence, then the vote/bribe ratio.

    Rows with no bribes but a non-negligible vote share count as "over".
    """
    if not table.rows:
        raise MetricsError("cannot classify an empty share table")
    classes = []
    for row in table.rows:
        if row.vote_share < small:
            classes.append("negligible")
        elif row.bribe_share == 0:
            classes.append("over")
        else:
            ratio = row.vote_share / row.bribe_share
            if ratio < low:
                classes.append("under")
            elif ratio > high:
                classes.append("over")
            else:
                classes.append("follows")
    return classes


def outlier_table(table: ShareTable, low: float = 0.8, high: float = 1.2, small: float = 0.01) -> OutlierTable:
    classes = classify_outliers(table, low, high, small)
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
    for row in trace:
        snapshot = row.get("snapshot")
        if not snapshot:
            continue
        emissions = _optional(row, "snapshot", "emissions")
        for gauge_id, gauge, weight in _gauge_items(row, "snapshot", "relative_weights"):
            num, den = _ratio(weight, row, "snapshot", "relative_weights", gauge)
            rows.append((_field(row, "epoch"), gauge_id, num / den, emissions.get(gauge, 0)))
    return SnapshotTable(rows)


def round_results(trace: SimTrace) -> RoundResultTable:
    rows = []
    for row in trace:
        finalized = row.get("round_finalized")
        if not finalized:
            continue
        base = _optional(row, "round_finalized", "base_allocation")
        round_id = _field(row, "round_finalized", "round")
        for gauge_id, gauge, share in _gauge_items(row, "round_finalized", "result"):
            num, den = _ratio(share, row, "round_finalized", "result", gauge)
            rows.append((round_id, gauge_id, num / den, base.get(gauge, 0)))
    return RoundResultTable(rows)


def settlements(trace: SimTrace) -> SettlementTable:
    rows = []
    for row in trace:
        settlement = row.get("settlement")
        if not settlement:
            continue
        round_id = _field(row, "settlement", "round")
        for gauge_id, gauge, _ in _gauge_items(row, "settlement", "gauges"):
            path = ("settlement", "gauges", gauge)
            bribe_usd, weight, usd_per_vote = _fields(row, path, "bribe_usd", "vote_weight", "usd_per_vote")
            num, den = _ratio(weight, row, *path, "vote_weight")
            rows.append((round_id, gauge_id, bribe_usd, num / den, usd_per_vote))
    return SettlementTable(rows)


def _cost_fold(trace: SimTrace, avenue: str, paid: dict[str, float], votes: dict[str, tuple[int, int]]):
    """The avenue rules of ``cost_per_vote``, folded row by row into ``paid``
    (USD spent so far, per account that has paid) and ``votes`` (exact vote
    total so far, per account keyed in it); yields each row's epoch once the
    row is folded.  Every vote increment is non-negative."""
    if avenue not in AVENUES:
        raise MetricsError(f"unknown avenue {avenue!r}; expected one of {AVENUES}")
    lock_escrow = {"direct-lock": "base", "aggregator-lock": "governance"}.get(avenue)
    protocol_account = trace.header.get("protocol_account")
    for row in trace:
        if lock_escrow:
            for i in range(len(row.get("lock_events", ()))):
                actor, escrow, amount, usd_cost = _fields(
                    row, ("lock_events", i), "account", "escrow", "amount", "usd_cost"
                )
                if actor in votes and escrow == lock_escrow and amount > 0:
                    paid[actor] = paid.get(actor, 0.0) + usd_cost
        if avenue == "direct-lock" and row.get("snapshot") is not None:
            weights = _object(row, "escrow_weights", "base")
            for actor, allocation in _optional(row, "base_votes").items():
                if actor in votes and allocation:
                    bps = sum(_object(row, "base_votes", actor).values())
                    num, den = _ratio(weights.get(actor, "0"), row, "escrow_weights", "base", actor)
                    votes[actor] = _add(votes[actor], (num * bps, den * 10_000))
        elif avenue == "aggregator-lock" and row.get("round_finalized"):
            total_num, total_den = _ratio_at(row, "round_finalized", "tally_total")
            if total_num:
                pooled = _ratio(
                    _object(row, "escrow_weights", "base").get(protocol_account, "0"),
                    row, "escrow_weights", "base", protocol_account,
                )
                # mass / total * pooled, reduced so the running sum stays small
                scale_num, scale_den = pooled[0] * total_den, pooled[1] * total_num
                for actor, mass in _optional(row, "round_finalized", "voter_mass").items():
                    if actor in votes:
                        mass_num, mass_den = _ratio(mass, row, "round_finalized", "voter_mass", actor)
                        num, den = mass_num * scale_num, mass_den * scale_den
                        common = math.gcd(num, den)
                        votes[actor] = _add(votes[actor], (num // common, den // common))
        elif avenue == "bribe" and row.get("settlement"):
            for gauge in _object(row, "settlement", "gauges"):
                path = ("settlement", "gauges", gauge)
                for actor, spend in _object(row, *path, "briber_usd").items():
                    if actor in votes:
                        paid[actor] = paid.get(actor, 0.0) + spend
                        votes[actor] = _add(votes[actor], _ratio_at(row, *path, "vote_weight"))
        yield _field(row, "epoch")


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
    votes = dict.fromkeys(actors, ZERO)
    paid: dict[str, float] = {}
    rows = {actor: [] for actor in votes}
    for epoch in _cost_fold(trace, avenue, paid, votes):
        for actor, series in rows.items():
            spent, (num, den) = paid.get(actor, 0.0), votes[actor]
            acquired = num / den
            series.append((epoch, spent, acquired, spent / acquired if num else None))
    return {actor: CostPerVoteSeries(avenue, actor, series) for actor, series in rows.items() if actor in paid}


def final_cost_per_vote(trace: SimTrace, avenue: str, actors: Iterable[str]) -> dict[str, float | None]:
    """``cost_per_vote(...)[actor].final_usd_per_vote()`` for the same accounts,
    without the per-epoch rows: vote totals never decrease, so the last defined
    USD per vote is the final spend over the final votes (None if no votes)."""
    votes = dict.fromkeys(actors, ZERO)
    paid: dict[str, float] = {}
    for _ in _cost_fold(trace, avenue, paid, votes):
        pass
    return {
        actor: paid[actor] / (num / den) if num else None
        for actor, (num, den) in votes.items()
        if actor in paid
    }


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
    """Write a metric table (or a trace) to disk, byte-stably."""
    if isinstance(obj, SimTrace):
        obj.write_ndjson(path)
        return
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
