"""The folds that read a gauge- or account-keyed map entry by entry, against
the per-key reads they replaced.

``SnapshotTable``, ``RoundResultTable``, ``SettlementTable``, ``Shares`` and
the bribe and aggregator-lock avenues of ``CostFold`` take each value from the
map they already hold, and make a per-key ``Fields`` read only where that
value is refused, so that the read raises.  The reference folds below are
copies of the earlier folds, which read every value from the row root, over a
``Fields`` with its own copy of the earlier ratio and gauge-id parsing.  Both
must give the same rows and totals, or the same ``ScenarioError`` text: the
same first fault, found in the same order (every key of a map in document
order, then gauge by gauge in id order)."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim.errors import ScenarioError
from vetokensim.ledger import left_sum
from vetokensim.metrics import (ZERO, CostFold, RoundResultTable, SettlementTable, Shares, ShareRow, SnapshotTable,
                                _add, _quotient)
from vetokensim.scenario import _REQUIRED, Fields

from conftest import LONG_DIGITS, reference_ratio

HUGE = "1" + "0" * 400  # above the largest float


class PerKeyFields(Fields):
    """``Fields`` with the earlier ``gauge_id``, ``gauge_items`` and ``ratio``,
    each parsing its value in place (``ratio`` by the pattern it once used,
    ``conftest.reference_ratio``); ``at`` keeps the class."""

    __slots__ = ()

    def at(self, *path, default=_REQUIRED):
        return PerKeyFields(self.object(*path, default=default), self.prefix, self.base + path)

    def gauge_id(self, *path) -> int:
        key = path[-1]
        if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0"):
            try:
                return int(key)
            except ValueError:  # more digits than ``int`` converts
                pass
        raise self.error(f"expected a gauge id, got {key!r}", *path)

    def gauge_items(self, *path, default=_REQUIRED) -> list[tuple[int, str]]:
        return sorted((self.gauge_id(*path, key), key) for key in self.object(*path, default=default))

    def ratio(self, *path, default=_REQUIRED) -> tuple[int, int]:
        text = self._get(path, default)
        pair = reference_ratio(text, bounded=False)
        if pair is None:
            raise self.error(f"expected a ratio n or n/d, got {text!r}", *path)
        if reference_ratio(text) is None:
            raise self.error(f"expected a ratio at most the largest float, got {text!r}", *path)
        return pair


class PerKeySnapshots(SnapshotTable):
    def add(self, f):
        if f.object("snapshot", default={}):
            epoch = f.integer("epoch")
            emissions = f.at("snapshot", "emissions", default={})
            for gauge_id, gauge in f.gauge_items("snapshot", "relative_weights"):
                num, den = f.ratio("snapshot", "relative_weights", gauge)
                self.rows.append((epoch, gauge_id, num / den, emissions.integer(gauge, default=0)))


class PerKeyRoundResults(RoundResultTable):
    def add(self, f):
        if f.object("round_finalized", default={}):
            base = f.at("round_finalized", "base_allocation", default={})
            round_id = f.integer("round_finalized", "round")
            for gauge_id, gauge in f.gauge_items("round_finalized", "result"):
                num, den = f.ratio("round_finalized", "result", gauge)
                self.rows.append((round_id, gauge_id, num / den, base.integer(gauge, default=0)))


class PerKeySettlements(SettlementTable):
    def add(self, f):
        if f.object("settlement", default={}):
            round_id = f.integer("settlement", "round")
            for gauge_id, gauge in f.gauge_items("settlement", "gauges"):
                g = f.at("settlement", "gauges", gauge)
                bribe_usd, (num, den) = g.number("bribe_usd", minimum=0), g.ratio("vote_weight")
                usd_per_vote = g.number("usd_per_vote", null=True, minimum=0)
                self.rows.append((round_id, gauge_id, bribe_usd, num / den, usd_per_vote))


class PerKeyShares(Shares):
    def add(self, f):
        if not f.object("settlement", default={}) or not f.object("round_finalized", default={}):
            return
        self.settled += 1
        round_id = f.integer("settlement", "round")
        gauges, tally = f.at("settlement", "gauges"), f.at("round_finalized", "tally")
        bribe_usd = {gauge_id: gauges.number(g, "bribe_usd", minimum=0) for gauge_id, g in gauges.gauge_items()}
        votes = {tally.gauge_id(g): tally.ratio(g) for g in tally.root}
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


class PerKeyBribeCost(CostFold):
    def add(self, f):
        paid, votes = self.paid, self.votes
        if f.object("settlement", default={}):
            for _, gauge in f.gauge_items("settlement", "gauges"):
                g = f.at("settlement", "gauges", gauge)
                for actor in g.object("briber_usd"):
                    if actor in votes:
                        paid[actor] = paid.get(actor, 0.0) + g.number("briber_usd", actor, minimum=0)
                        votes[actor] = _add(votes[actor], g.ratio("vote_weight"))


class PerKeyAggregatorCost(CostFold):
    def add(self, f):
        votes = self.votes
        if f.object("round_finalized", default={}):
            total_num, total_den = f.ratio("round_finalized", "tally_total")
            if total_num:
                pooled = f.at("escrow_weights", "base").ratio(self.protocol_account, default="0")
                scale_num, scale_den = pooled[0] * total_den, pooled[1] * total_num
                for actor in f.object("round_finalized", "voter_mass", default={}):
                    if actor in votes:
                        mass_num, mass_den = f.ratio("round_finalized", "voter_mass", actor)
                        num, den = mass_num * scale_num, mass_den * scale_den
                        common = math.gcd(num, den)
                        votes[actor] = _add(votes[actor], (num // common, den // common))


HEADER = {"protocol_account": "agg"}
# name -> (the fold, its per-key reference), each made fresh
FOLDS = {
    "snapshots": (lambda: SnapshotTable([]), lambda: PerKeySnapshots([])),
    "round results": (lambda: RoundResultTable([]), lambda: PerKeyRoundResults([])),
    "settlements": (lambda: SettlementTable([]), lambda: PerKeySettlements([])),
    "shares": (Shares, PerKeyShares),
    "bribe cost": (lambda: CostFold({}, "bribe", ["a", "b"]), lambda: PerKeyBribeCost({}, "bribe", ["a", "b"])),
    "aggregator cost": (lambda: CostFold(HEADER, "aggregator-lock", ["a", "b"]),
                        lambda: PerKeyAggregatorCost(HEADER, "aggregator-lock", ["a", "b"])),
}

GAUGES = st.sampled_from(["0", "1", "2", "9", "10", "11"])  # "10" < "2" as text
# "07" is gauge 7 again, LONG_DIGITS too long for ``int``, "١" an Arabic-Indic one
KEYS = st.one_of(GAUGES, GAUGES, st.sampled_from(["07", "x", "", "-1", LONG_DIGITS, "١"]))
GOOD_RATIOS = st.one_of(st.integers(0, 10**30).map(str),
                        st.builds("{}/{}".format, st.integers(0, 10**30), st.integers(1, 10**12)))
BAD_RATIOS = st.one_of(
    st.sampled_from(["+1", " 1", "1_0", "1/0", "1/-2", "١", "x", "", "1.5", "1\n", HUGE, HUGE + "/3",
                     LONG_DIGITS, "1/" + LONG_DIGITS]),
    st.integers(-3, 3), st.booleans(), st.none(),
)
GOOD_USD = st.floats(0, 1e300)
BAD_USD = st.one_of(st.floats(), st.integers(-3, 2**1100), st.booleans(), st.none(), st.just("1"))
ACTORS = st.sampled_from(["a", "b", "c", "agg"])
COUNTS = st.one_of(st.integers(0, 10**6), st.integers(0, 10**6), st.booleans(), st.none(), st.just(1.0),
                   st.just("1"))


def gauge_map(keys, values):
    return st.dictionaries(keys, values, max_size=5)


def entry(usd, ratios):
    """A ``settlement.gauges`` entry, any field of which may be absent."""
    return st.fixed_dictionaries({}, optional={
        "bribe_usd": usd, "vote_weight": ratios, "usd_per_vote": st.one_of(st.none(), usd),
        "briber_usd": st.one_of(gauge_map(st.sampled_from("abc"), usd), st.none(), st.just([]))})


def maps(values_good, values_bad):
    """A gauge map: either every key and value good, or any of them bad."""
    return st.one_of(gauge_map(GAUGES, values_good), gauge_map(KEYS, st.one_of(values_good, values_bad)))


def actor_map(values_good, values_bad):
    """An account map, some keys of it followed: either every value good, or any of them bad."""
    return st.one_of(gauge_map(ACTORS, values_good), gauge_map(ACTORS, st.one_of(values_good, values_bad)))


ENTRIES = maps(entry(GOOD_USD, GOOD_RATIOS),
               st.one_of(entry(st.one_of(GOOD_USD, BAD_USD), st.one_of(GOOD_RATIOS, BAD_RATIOS)),
                         st.sampled_from([None, 1, [], "x"])))
ROWS = st.fixed_dictionaries({
    "epoch": st.just(3),
    "snapshot": st.fixed_dictionaries({"relative_weights": maps(GOOD_RATIOS, BAD_RATIOS)},
                                      optional={"emissions": maps(COUNTS, COUNTS)}),
    "round_finalized": st.fixed_dictionaries({"round": st.just(1), "result": maps(GOOD_RATIOS, BAD_RATIOS),
                                              "tally": maps(GOOD_RATIOS, BAD_RATIOS),
                                              "tally_total": st.one_of(GOOD_RATIOS, GOOD_RATIOS, BAD_RATIOS)},
                                             optional={"base_allocation": maps(COUNTS, COUNTS),
                                                       "voter_mass": st.one_of(actor_map(GOOD_RATIOS, BAD_RATIOS),
                                                                               st.none())}),
    "escrow_weights": st.fixed_dictionaries({"base": actor_map(GOOD_RATIOS, BAD_RATIOS)}),
    "settlement": st.fixed_dictionaries({"round": st.just(1), "gauges": ENTRIES}),
})

# a bad key after a bad value, and a bad value at a higher gauge id first: the
# keys are read first, then the values by gauge id
BAD_KEY_AND_VALUE = {
    "epoch": 3,
    "snapshot": {"relative_weights": {"1": "x", "y": "1"}, "emissions": {"1": True}},
    "round_finalized": {"round": 1, "result": {"5": "+1", "3": HUGE}, "tally": {"2": "x", "07": "1"},
                        "base_allocation": {"3": "1"}, "tally_total": "3", "voter_mass": {"b": HUGE, "a": "x"}},
    "escrow_weights": {"base": {"agg": "2"}},
    "settlement": {"round": 1, "gauges": {"4": {"bribe_usd": -1.0, "vote_weight": "1", "usd_per_vote": None,
                                                "briber_usd": {"a": "1"}},
                                          "2": {"vote_weight": "1/0", "briber_usd": {"c": -1.0, "b": 2.0}},
                                          "١": 1}},
}
# good keys, bad values: the first by gauge id (the first in document order
# for ``tally``) raises, and within a gauge the first field in reading order
BAD_VALUES = {
    "epoch": 3,
    "snapshot": {"relative_weights": {"10": "x", "2": "+1"}},
    "round_finalized": {"round": 1, "result": {"3": HUGE, "11": "1"}, "tally": {"2": "x", "1": "1/0"},
                        "base_allocation": {"3": "1"}, "tally_total": "2",
                        "voter_mass": {"c": "x", "a": "1", "b": "1/0", "agg": True}},
    "escrow_weights": {"base": {"agg": "5"}},
    "settlement": {"round": 1, "gauges": {
        "9": {"bribe_usd": -1.0, "vote_weight": "1", "usd_per_vote": None, "briber_usd": {"a": -1.0}},
        "2": {"bribe_usd": 1.0, "vote_weight": "1/0", "usd_per_vote": "x", "briber_usd": {"c": "x", "b": "1"}}}},
}
GOOD = {
    "epoch": 3,
    "snapshot": {"relative_weights": {"10": "1/3", "2": "2/3"}, "emissions": {"2": 7, "10": None}},
    "round_finalized": {"round": 1, "result": {"10": "1", "2": "0"}, "tally": {"10": "5/2", "2": "3"},
                        "base_allocation": {"10": 10000}, "tally_total": "11/2",
                        "voter_mass": {"b": "3/2", "c": "x", "a": "4"}},
    "escrow_weights": {"base": {"agg": "7/3", "a": "x"}},
    "settlement": {"round": 1, "gauges": {
        "10": {"bribe_usd": 0.1, "vote_weight": "5/2", "usd_per_vote": 0.04, "briber_usd": {"a": 0.1}},
        "2": {"bribe_usd": 2, "vote_weight": "3", "usd_per_vote": None, "briber_usd": {"b": 1, "a": 0.2}}}},
}

# counts that only the per-key read refuses: a bool is an int to ``isinstance``
BOOL_COUNTS = {**GOOD, "snapshot": {"relative_weights": {"2": "1"}, "emissions": {"2": True}},
               "round_finalized": {**GOOD["round_finalized"], "base_allocation": {"10": False}}}


def outcome(fold, rows: list, reader) -> str:
    """The fold's state after ``rows``, or the text of the error it raised."""
    try:
        for row in rows:
            fold.add(reader(row, "trace epoch 3: "))
    except ScenarioError as exc:
        return f"error: {exc}"
    return repr(vars(fold))


@pytest.mark.parametrize("name", sorted(FOLDS))
@settings(max_examples=150, deadline=None)
@given(rows=st.lists(ROWS, min_size=1, max_size=3))
@example(rows=[GOOD, BAD_KEY_AND_VALUE])
@example(rows=[GOOD, GOOD])
@example(rows=[BOOL_COUNTS])
@example(rows=[GOOD, BAD_VALUES])
def test_map_reads_match_the_per_key_reads(name, rows):
    make, make_reference = FOLDS[name]
    assert outcome(make(), rows, Fields) == outcome(make_reference(), rows, PerKeyFields)
