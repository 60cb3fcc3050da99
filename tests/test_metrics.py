import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim import metrics
from vetokensim.errors import MetricsError, ScenarioError
from vetokensim.metrics import ShareRow, ShareTable
from vetokensim.scenario import load_scenario, packaged_scenarios
from vetokensim.sim import run_scenario
from vetokensim.trace import SimTrace


def epoch_row(epoch, **overrides):
    row = {
        "type": "epoch",
        "epoch": epoch,
        "round_id": epoch // 2,
        "ledger_digest": "",
        "token_totals": {},
        "escrow_weights": {"base": {}, "governance": {}},
        "locks": {"base": {}, "governance": {}},
        "base_votes": {},
        "lock_events": [],
        "deposit_events": [],
        "bribe_events": [],
        "actions": [],
        "round_finalized": None,
        "settlement": None,
        "snapshot": None,
    }
    row.update(overrides)
    return row


def make_trace(rows, **header):
    full_header = {"protocol_account": "agg"}
    full_header.update(header)
    return SimTrace(full_header, rows)


def finalized(round_id, tally, voters=(), total_gov=None, voter_mass=None):
    total = sum((Fraction(v) for v in tally.values()), Fraction(0))
    return {
        "round": round_id,
        "open_epoch": round_id * 2,
        "close_epoch": round_id * 2 + 2,
        "ballots": {v: {"0": 10000} for v in voters},
        "counted_weight": {v: "1" for v in voters},
        "voter_mass": voter_mass or {v: "1" for v in voters},
        "tally": dict(tally),
        "tally_total": str(total),
        "total_gov_weight": total_gov if total_gov is not None else str(total),
        "result": {g: str(Fraction(v) / total) for g, v in tally.items()} if total else {},
        "base_allocation": None,
    }


def settlement_of(round_id, bribes_usd, vote_weights, briber="briber"):
    gauges = {}
    for g, usd in bribes_usd.items():
        weight = vote_weights.get(g, "0")
        gauges[str(g)] = {
            "deposits": {"BRIBE-USD": int(usd) * 10**18},
            "bribe_usd": float(usd),
            "briber_usd": {briber: float(usd)},
            "vote_weight": str(weight),
            "usd_per_vote": None,
            "payouts": {},
            "refunds": {},
        }
    return {"round": round_id, "close_epoch": round_id * 2 + 2, "gauges": gauges}


class TestParticipation:
    def test_quarter_of_lockers_vote(self):
        rows = [
            epoch_row(
                0,
                locks={
                    "base": {f"l{i}": {"amount": 1, "unlock_epoch": 9, "created_epoch": 0} for i in range(4)},
                    "governance": {},
                },
            ),
            epoch_row(
                2,
                round_finalized=finalized(0, {"0": "10"}, voters=("l0",), total_gov="10"),
            ),
        ]
        stats = metrics.participation_stats(make_trace(rows))
        assert stats.unique_lockers == 4
        assert stats.unique_voters == 1
        assert stats.voter_fraction == 0.25

    def test_all_weight_cast_every_round(self):
        rows = [
            epoch_row(2, round_finalized=finalized(0, {"0": "7"}, voters=("a",), total_gov="7")),
            epoch_row(4, round_finalized=finalized(1, {"0": "5"}, voters=("a",), total_gov="5")),
        ]
        stats = metrics.participation_stats(make_trace(rows))
        assert stats.weight_voting_fraction == 1.0
        assert stats.mean_voters_by_proposal_type["gauge"] == 1.0

    def test_recovers_constructed_aggregates(self):
        # constructed trace with 9551 lockers of which 2555 vote, and 95% of
        # governance weight cast: the metric recovers 27% and 95%
        lockers = {f"acct{i}": {"amount": 1, "unlock_epoch": 9, "created_epoch": 0} for i in range(9551)}
        voters = tuple(f"acct{i}" for i in range(2555))
        rows = [
            epoch_row(0, locks={"base": lockers, "governance": {}}),
            epoch_row(2, round_finalized=finalized(0, {"0": "95"}, voters=voters, total_gov="100")),
        ]
        stats = metrics.participation_stats(make_trace(rows))
        assert round(stats.voter_fraction, 2) == 0.27
        assert stats.weight_voting_fraction == 0.95

    def test_empty_trace_rejected(self):
        with pytest.raises(MetricsError):
            metrics.participation_stats(make_trace([]))


class TestShareTable:
    def test_single_round_shares(self):
        rows = [
            epoch_row(
                2,
                round_finalized=finalized(0, {"0": "75", "1": "25"}),
                settlement=settlement_of(0, {0: 75, 1: 25}, {0: "75", 1: "25"}),
            )
        ]
        table = metrics.share_table(make_trace(rows))
        assert [(r.round_id, r.gauge_id, r.bribe_share, r.vote_share) for r in table.rows] == [
            (0, 0, 0.75, 0.75),
            (0, 1, 0.25, 0.25),
        ]

    def test_gauge_with_votes_but_no_bribes(self):
        rows = [
            epoch_row(
                2,
                round_finalized=finalized(0, {"0": "60", "1": "40"}),
                settlement=settlement_of(0, {0: 100}, {0: "60"}),
            )
        ]
        table = metrics.share_table(make_trace(rows))
        bare = [r for r in table.rows if r.gauge_id == 1][0]
        assert bare.bribe_share == 0.0
        assert bare.vote_share == 0.4

    def test_multi_round_row_count_matches_independent_scan(self):
        # oracle: independent scan of settlements and tallies for nonzero pairs
        rng = random.Random(5)
        rows = []
        expected = 0
        for round_id in range(4):
            bribed = {g: rng.randint(1, 50) for g in range(3) if rng.random() < 0.7}
            voted = {str(g): str(rng.randint(1, 9)) for g in range(3) if rng.random() < 0.7}
            expected += len(set(bribed) | {int(g) for g in voted})
            rows.append(
                epoch_row(
                    round_id * 2 + 2,
                    round_finalized=finalized(round_id, voted),
                    settlement=settlement_of(round_id, bribed, voted),
                )
            )
        table = metrics.share_table(make_trace(rows))
        assert len(table.rows) == expected
        # per-round normalization: each share column sums to one when nonzero
        by_round = {}
        for row in table.rows:
            bucket = by_round.setdefault(row.round_id, [0.0, 0.0])
            bucket[0] += row.bribe_share
            bucket[1] += row.vote_share
        for bribe_total, vote_total in by_round.values():
            if bribe_total:
                assert bribe_total == pytest.approx(1.0, abs=1e-12)
            if vote_total:
                assert vote_total == pytest.approx(1.0, abs=1e-12)

    def test_no_settled_rounds_rejected(self):
        with pytest.raises(MetricsError):
            metrics.share_table(make_trace([epoch_row(0)]))


class TestPearson:
    def test_perfect_line(self):
        assert metrics.pearson([(0, 0), (1, 1), (2, 2)]) == pytest.approx(1.0)

    def test_perfect_anticorrelation(self):
        assert metrics.pearson([(0, 0), (1, -1), (2, -2)]) == pytest.approx(-1.0)

    def test_hand_computed_zero(self):
        # means are (1, 1/3); the cross terms cancel exactly
        assert metrics.pearson([(0, 0), (1, 1), (2, 0)]) == pytest.approx(0.0, abs=1e-12)

    def test_degenerate_variance(self):
        with pytest.raises(MetricsError):
            metrics.pearson([(1, 0), (1, 1)])
        with pytest.raises(MetricsError):
            metrics.pearson([(1, 2)])

    def test_constant_column_with_rounded_mean(self):
        # the mean of three 0.003s is 0.0030000000000000005, so the sum of
        # squares is not exactly zero; the column is constant all the same
        with pytest.raises(MetricsError, match="degenerate variance"):
            metrics.pearson([(0.003, 0.0), (0.003, 0.0), (0.003, 0.001)])

    @given(
        # well-conditioned grid values: a shift must never erase the variance
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=-100_000, max_value=100_000).map(lambda n: n / 1000),
                st.integers(min_value=-100_000, max_value=100_000).map(lambda n: n / 1000),
            ),
            min_size=3,
            max_size=20,
        ),
        scale=st.floats(min_value=0.1, max_value=50),
        shift=st.floats(min_value=-50, max_value=50),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_bounds_and_affine_invariance(self, pairs, scale, shift):
        try:
            r = metrics.pearson(pairs)
        except MetricsError:
            return
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9
        assert metrics.pearson([(y, x) for x, y in pairs]) == pytest.approx(r, abs=1e-9)
        transformed = [(x * scale + shift, y) for x, y in pairs]
        assert metrics.pearson(transformed) == pytest.approx(r, abs=1e-6)


class TestOutliers:
    def table(self, *rows):
        return ShareTable([ShareRow(0, i, b, v) for i, (b, v) in enumerate(rows)])

    def test_under(self):
        assert metrics.classify_outliers(self.table((0.10, 0.05))) == ["under"]

    def test_over(self):
        assert metrics.classify_outliers(self.table((0.10, 0.13))) == ["over"]

    def test_follows(self):
        assert metrics.classify_outliers(self.table((0.10, 0.10))) == ["follows"]

    def test_negligible_precedence(self):
        # a large bribe share with a dust vote share is negligible, not under
        assert metrics.classify_outliers(self.table((0.20, 0.005))) == ["negligible"]

    def test_unbribed_but_voted_is_over(self):
        assert metrics.classify_outliers(self.table((0.0, 0.05))) == ["over"]
        assert metrics.classify_outliers(self.table((0.0, 0.001))) == ["negligible"]

    def test_boundaries_inclusive(self):
        # dividing by 0.5 is exact in binary, so these ratios are exactly 0.8 and 1.2
        assert metrics.classify_outliers(self.table((0.5, 0.4))) == ["follows"]
        assert metrics.classify_outliers(self.table((0.5, 0.6))) == ["follows"]


class TestDiffMatrix:
    def test_proportional_is_all_zero(self):
        table = ShareTable(
            [ShareRow(r, g, 0.5, 0.5) for r in range(2) for g in range(2)]
        )
        matrix = metrics.diff_matrix(table)
        assert all(cell == 0.0 for line in matrix.cells for cell in line)

    def test_two_percentage_points_down(self):
        table = ShareTable([ShareRow(0, 0, 0.25, 0.23)])
        matrix = metrics.diff_matrix(table)
        assert matrix.cells[0][0] == pytest.approx(-2.0)

    def test_column_order_and_empty_cells(self):
        table = ShareTable(
            [
                ShareRow(0, 0, 0.2, 0.3),
                ShareRow(0, 1, 0.8, 0.7),
                ShareRow(1, 1, 1.0, 1.0),
            ]
        )
        matrix = metrics.diff_matrix(table)
        assert matrix.gauge_order == [1, 0]  # gauge 1 drew the most bribes
        assert matrix.round_ids == [0, 1]
        assert matrix.cells[1][1] is None  # round 1 never saw gauge 0


def direct_lock_trace():
    """frax locks $100 at epoch 0 and votes 250 weight at each of 4 snapshots;
    curve locks $30 at epoch 1 and votes half of 500 weight; lurker votes
    without ever locking, so it is never active."""
    rows = []
    for epoch in range(4):
        row = epoch_row(
            epoch,
            base_votes={"frax": {"0": 10000}, "curve": {"0": 5000}, "lurker": {"0": 10000}},
            snapshot={"relative_weights": {"0": "1"}, "emissions": {}, "emission_total": 0},
        )
        row["escrow_weights"]["base"].update(frax="250", curve="500", lurker="100")
        if epoch < 2:
            account, usd = [("frax", 100.0), ("curve", 30.0)][epoch]
            row["lock_events"] = [
                {"account": account, "escrow": "base", "amount": 1, "unlock_epoch": 208, "usd_cost": usd}
            ]
        rows.append(row)
    return make_trace(rows)


def aggregator_trace():
    """frax locks 64.74e6 USD of governance tokens buying 2.88e9 pass-through
    votes: half of each round's ballot mass times 1.44e9 pooled base weight,
    over 4 rounds.  curve locks $10 and casts the other half."""
    first = epoch_row(0)
    first["lock_events"] = [
        {"account": account, "escrow": "governance", "amount": 1, "unlock_epoch": 16, "usd_cost": usd}
        for account, usd in (("frax", 64.74e6), ("curve", 10.0))
    ]
    rows = [first]
    for round_id in range(4):
        row = epoch_row(
            round_id * 2 + 2,
            round_finalized=finalized(
                round_id,
                {"0": "1440000000"},
                voters=("frax", "curve"),
                voter_mass={"frax": "720000000", "curve": "720000000"},
            ),
        )
        row["escrow_weights"]["base"]["agg"] = "1440000000"
        rows.append(row)
    return make_trace(rows)


def bribe_trace():
    """frax spends 103.69e6 USD on gauge 0 against 6.72e9 voter weight units
    over 4 rounds; curve spends $5 a round on gauge 1."""
    rows = []
    for round_id in range(4):
        settlement = settlement_of(round_id, {0: 103.69e6 / 4}, {0: "1680000000"}, briber="frax")
        settlement["gauges"]["1"] = settlement_of(round_id, {1: 5}, {1: "10"}, briber="curve")["gauges"]["1"]
        rows.append(
            epoch_row(
                round_id * 2 + 2,
                round_finalized=finalized(round_id, {"0": "1680000000", "1": "10"}),
                settlement=settlement,
            )
        )
    return make_trace(rows)


def cost_series(trace, avenue, accounts) -> dict:
    """``CostSeries.series()`` after one pass of ``trace``."""
    series = metrics.CostSeries(trace.header, avenue, accounts)
    metrics.fold(trace, series)
    return series.series()


class TestCostPerVote:
    def test_direct_lock_amortization(self):
        # the series is 0.4, 0.2, 0.1333..., 0.1 and ends at ten cents per vote
        series = metrics.cost_per_vote_series(direct_lock_trace(), "frax", "direct-lock")
        values = [upv for _, _, _, upv in series.rows]
        assert values == pytest.approx([0.4, 0.2, 100 / 750, 0.1])
        assert all(b < a for a, b in zip(values, values[1:]))
        assert series.final_usd_per_vote() == pytest.approx(0.10)

    def test_aggregator_avenue_reproduces_headline_quotient(self):
        series = metrics.cost_per_vote_series(aggregator_trace(), "frax", "aggregator-lock")
        _, cost, votes, upv = series.rows[-1]
        assert cost == pytest.approx(64.74e6)
        assert votes == pytest.approx(2.88e9)
        assert abs(upv - 0.0225) < 0.0005

    def test_bribe_avenue_reproduces_headline_quotient(self):
        series = metrics.cost_per_vote_series(bribe_trace(), "frax", "bribe")
        _, cost, votes, upv = series.rows[-1]
        assert cost == pytest.approx(103.69e6)
        assert votes == pytest.approx(6.72e9)
        assert abs(upv - 0.0154) < 0.0005

    def test_undefined_until_first_vote(self):
        row = epoch_row(0)
        row["lock_events"] = [
            {"account": "frax", "escrow": "base", "amount": 1, "unlock_epoch": 208, "usd_cost": 10.0}
        ]
        series = metrics.cost_per_vote_series(make_trace([row]), "frax", "direct-lock")
        assert series.rows[0][3] is None
        assert series.final_usd_per_vote() is None

    def test_inactive_actor_rejected(self):
        with pytest.raises(MetricsError):
            metrics.cost_per_vote_series(make_trace([epoch_row(0)]), "ghost", "bribe")

    def test_unknown_avenue_rejected(self):
        with pytest.raises(MetricsError):
            metrics.cost_per_vote_series(make_trace([epoch_row(0)]), "frax", "osmosis")
        with pytest.raises(MetricsError, match="unknown avenue 'osmosis'"):
            metrics.CostSeries(make_trace([epoch_row(0)]).header, "osmosis", ["frax"])

    @pytest.mark.parametrize(
        "trace,avenue,final",
        [
            # curve pays $30 for 4 x 250 direct votes, $10 for 4 x 7.2e8
            # pass-through votes and $20 of bribes for 4 x 10 votes
            (direct_lock_trace, "direct-lock", {"curve": 0.03, "frax": 0.1}),
            (aggregator_trace, "aggregator-lock", {"curve": 10 / 2.88e9, "frax": 64.74e6 / 2.88e9}),
            (bribe_trace, "bribe", {"curve": 0.5, "frax": 103.69e6 / 6.72e9}),
        ],
    )
    def test_many_accounts_match_one_account_calls(self, trace, avenue, final):
        trace = trace()
        many = cost_series(trace, avenue, ["lurker", "curve", "ghost", "frax"])
        assert list(many) == ["curve", "frax"]  # the order asked for, active accounts only
        for account, series in many.items():
            assert series == metrics.cost_per_vote_series(trace, account, avenue)
            assert series.final_usd_per_vote() == pytest.approx(final[account])

    def test_never_active_accounts_are_absent(self):
        trace = direct_lock_trace()
        assert cost_series(trace, "direct-lock", ["lurker", "ghost"]) == {}
        assert cost_series(trace, "aggregator-lock", ["frax", "curve"]) == {}
        with pytest.raises(MetricsError, match="account lurker was never active in avenue direct-lock"):
            metrics.cost_per_vote_series(trace, "lurker", "direct-lock")


def ballot_trace(ballots):
    """frax locks $100 at epoch 0 and votes 250 weight with ``ballots[epoch]``
    at each epoch's snapshot; the ballots may be one shared object, as in a run."""
    rows = []
    for epoch, ballot in enumerate(ballots):
        row = epoch_row(
            epoch,
            base_votes={"frax": ballot},
            snapshot={"relative_weights": {"0": "1"}, "emissions": {}, "emission_total": 0},
        )
        row["escrow_weights"]["base"]["frax"] = "250"
        rows.append(row)
    rows[0]["lock_events"] = [
        {"account": "frax", "escrow": "base", "amount": 1, "unlock_epoch": 208, "usd_cost": 100.0}
    ]
    return make_trace(rows)


class TestDirectLockBallots:
    """The direct-lock fold reads every ballot at every snapshot, whether or
    not rows share its object."""

    def test_a_shared_ballot_counts_at_every_snapshot(self):
        shared = {"0": 6000, "1": 4000}
        copies = [dict(shared) for _ in range(4)]
        series = metrics.cost_per_vote_series(ballot_trace([shared] * 4), "frax", "direct-lock")
        assert series == metrics.cost_per_vote_series(ballot_trace(copies), "frax", "direct-lock")
        assert series.final_usd_per_vote() == pytest.approx(0.1)

    def test_a_shared_invalid_ballot_fails_at_its_first_epoch(self):
        bad = {"0": 10000, "1": -1}
        with pytest.raises(ScenarioError, match=r"^trace epoch 1: base_votes\.frax\.1: -1 is below the minimum"):
            metrics.cost_per_vote_series(ballot_trace([{"0": 10000}, bad, bad, bad]), "frax", "direct-lock")

    def test_an_equal_ballot_that_is_another_object_is_checked(self):
        # {"0": True} == {"0": 1}, but a bool is not a basis-point integer
        good = {"0": 1}
        trace = ballot_trace([good, good, {"0": True}, good])
        with pytest.raises(ScenarioError, match=r"^trace epoch 2: base_votes\.frax\.0: expected an integer, got True"):
            metrics.cost_per_vote_series(trace, "frax", "direct-lock")


BALLOT_ACTORS = ("frax", "curve")
BALLOT_BPS = st.one_of(st.sampled_from([0, 1, -1]), st.integers(2, 10_000))
BALLOTS = st.dictionaries(st.sampled_from(["0", "1", "2"]), BALLOT_BPS, max_size=3)
ABSENT = object()  # a weight key left out of the row
# weights over several denominators, as an escrow writes them, and weights retyped
GOOD_WEIGHTS = st.one_of(st.sampled_from(["250", "7/3", "5/6", "1/208", "0", "13/4", "3/104"]),
                         st.builds("{}/{}".format, st.integers(0, 10**20), st.integers(1, 10**6)))
BAD_WEIGHTS = st.sampled_from(["x", "1/0", True, 1.5, None, ABSENT, "+1", 7, "1" + "0" * 400])


@st.composite
def shared_ballot_trace(draw):
    """A direct-lock trace whose rows give each actor, at random, the previous
    row's ballot object, a new equal object (each 0 or 1 swapped between int
    and bool: ``{"0": True} == {"0": 1}``) or a new ballot, and a weight over
    any denominator (in one trace in four, also a retyped weight or none); an
    outsider's ballot rides along."""
    weights = st.one_of(GOOD_WEIGHTS, BAD_WEIGHTS) if draw(st.integers(0, 3)) == 0 else GOOD_WEIGHTS
    last = {actor: draw(BALLOTS) for actor in BALLOT_ACTORS}
    rows = []
    for epoch in range(draw(st.integers(1, 8))):
        for actor in BALLOT_ACTORS:
            how = draw(st.sampled_from(["same", "equal", "new"]))
            if how == "equal":
                last[actor] = {g: (int(v) if type(v) is bool else bool(v)) if v in (0, 1) else v
                               for g, v in last[actor].items()}
            elif how == "new":
                last[actor] = draw(BALLOTS)
        snapshot = {"relative_weights": {"0": "1"}, "emissions": {}, "emission_total": 0}
        row = epoch_row(epoch, base_votes={**last, "outsider": {"0": -1}},
                        snapshot=snapshot if draw(st.integers(0, 3)) else None)
        base = {actor: draw(weights) for actor in BALLOT_ACTORS}
        row["escrow_weights"]["base"] = {actor: w for actor, w in base.items() if w is not ABSENT} | {"outsider": "x"}
        rows.append(row)
    rows[0]["lock_events"] = [
        {"account": actor, "escrow": "base", "amount": 1, "unlock_epoch": 208, "usd_cost": 100.0}
        for actor in BALLOT_ACTORS
    ]
    return make_trace(rows)


class PerBallotCost(metrics.CostFold):
    """The direct-lock fold read key by key: each ballot value through
    ``Fields.integer``, each weight through ``Fields.ratio``, and each ballot's
    votes added to the actor's total with ``_add``."""

    def add(self, f):
        paid, votes = self.paid, self.votes
        for event in f.each("lock_events", default=()):
            actor = event.string("account")
            if actor in votes and event.string("escrow") == "base" and event.integer("amount") > 0:
                paid[actor] = paid.get(actor, 0.0) + event.number("usd_cost", minimum=0)
        if f.value("snapshot", default=None) is not None:
            f.object("escrow_weights", "base")
            for actor in f.object("base_votes", default={}):
                if actor in votes and f.object("base_votes", actor, default={}):
                    bps = sum(f.integer("base_votes", actor, gauge, minimum=0) for gauge in f.root["base_votes"][actor])
                    num, den = f.ratio("escrow_weights", "base", actor, default="0")
                    votes[actor] = metrics._add(votes[actor], (num * bps, den * 10_000))


class PerBallotSeries(metrics.CostSeries, PerBallotCost):
    """``CostSeries`` over ``PerBallotCost``."""


def retyped_weight(weight):
    """``ballot_trace`` of four full ballots with frax's weight at epoch 2 retyped."""
    trace = ballot_trace([{"0": 10000}] * 4)
    trace.rows[2]["escrow_weights"]["base"]["frax"] = weight
    return trace


@given(trace=shared_ballot_trace())
@example(trace=retyped_weight("x"))
@example(trace=retyped_weight("1/0"))
@example(trace=retyped_weight(True))
@example(trace=retyped_weight(1.5))
@example(trace=retyped_weight("7/3"))
@settings(max_examples=300, deadline=None)
def test_ballot_quick_read_matches_a_per_key_read(trace):
    def folded(fold, result):
        try:
            metrics.fold(trace, fold)
        except ScenarioError as error:
            return f"error: {error}"  # the message names the epoch and the field path
        return result(fold)

    for make, make_reference, result in ((metrics.CostSeries, PerBallotSeries, metrics.CostSeries.series),
                                         (metrics.CostFold, PerBallotCost, metrics.CostFold.final)):
        assert (folded(make(trace.header, "direct-lock", BALLOT_ACTORS), result)
                == folded(make_reference(trace.header, "direct-lock", BALLOT_ACTORS), result))


@pytest.fixture(scope="module")
def scenario_traces(randomized_1000):
    """(config, trace) of each packaged scenario and of randomized-1000."""
    configs = [load_scenario(name) for name in sorted(packaged_scenarios())]
    return [(config, run_scenario(config)) for config in configs] + [randomized_1000]


def final_cost_per_vote(trace, avenue, accounts) -> dict:
    """``CostFold.final()`` after one pass of ``trace``."""
    cost = metrics.CostFold(trace.header, avenue, accounts)
    metrics.fold(trace, cost)
    return cost.final()


@pytest.mark.parametrize("avenue", metrics.AVENUES)
def test_final_cost_per_vote_is_the_last_series_value(avenue, scenario_traces):
    for config, trace in scenario_traces:
        accounts = [spec.account for spec in config.agents]
        series = cost_series(trace, avenue, accounts)
        final = final_cost_per_vote(trace, avenue, accounts)
        assert list(final) == list(series)
        assert final == {account: rows.final_usd_per_vote() for account, rows in series.items()}
    # every avenue has paying accounts in at least one of the traces
    assert any(final_cost_per_vote(trace, avenue, [spec.account for spec in config.agents])
               for config, trace in scenario_traces)


class TestTraceExtracts:
    def trace(self):
        row = epoch_row(
            2,
            round_finalized=finalized(0, {"0": "60", "1": "40"}),
            settlement=settlement_of(0, {0: 100}, {0: "60"}),
            snapshot={
                "relative_weights": {"0": "3/5", "1": "2/5"},
                "emissions": {"0": 600, "1": 400},
                "emission_total": 1000,
            },
        )
        row["round_finalized"]["base_allocation"] = {"0": 6000, "1": 4000}
        return make_trace([row])

    def test_snapshot_rows(self):
        table = metrics.gauge_snapshots(self.trace())
        assert table.rows == [(2, 0, 0.6, 600), (2, 1, 0.4, 400)]

    def test_round_result_rows(self):
        table = metrics.round_results(self.trace())
        assert table.rows == [(0, 0, 0.6, 6000), (0, 1, 0.4, 4000)]

    def test_settlement_rows(self):
        table = metrics.settlements(self.trace())
        assert table.rows == [(0, 0, 100.0, 60.0, None)]

    def test_csv_headers(self, tmp_path):
        cases = [
            (metrics.gauge_snapshots(self.trace()), "epoch,gauge_id,relative_weight,emission"),
            (metrics.round_results(self.trace()), "round_id,gauge_id,meta_share,base_bps"),
            (metrics.settlements(self.trace()), "round_id,gauge_id,bribe_usd,vote_weight,usd_per_vote"),
        ]
        for i, (obj, header) in enumerate(cases):
            path = tmp_path / f"extract{i}.csv"
            metrics.export(obj, "csv", str(path))
            assert path.read_text().splitlines()[0] == header


class TestExport:
    def table(self):
        return ShareTable([ShareRow(0, 0, 0.75, 0.75), ShareRow(0, 1, 0.25, 0.25)])

    def test_csv_header_and_roundtrip(self, tmp_path):
        path = tmp_path / "shares.csv"
        metrics.export(self.table(), "csv", str(path))
        lines = path.read_text().splitlines()
        assert lines[0] == "round_id,gauge_id,bribe_share,vote_share"
        values = [line.split(",") for line in lines[1:]]
        parsed = [
            ShareRow(int(r), int(g), float(b), float(v)) for r, g, b, v in values
        ]
        assert parsed == self.table().rows

    def test_exports_are_byte_identical(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        metrics.export(self.table(), "csv", str(first))
        metrics.export(self.table(), "csv", str(second))
        assert first.read_bytes() == second.read_bytes()

    def test_json_mirrors_fields(self, tmp_path):
        import json

        path = tmp_path / "shares.json"
        metrics.export(self.table(), "json", str(path))
        payload = json.loads(path.read_text())
        assert payload["rows"][0] == {
            "round_id": 0,
            "gauge_id": 0,
            "bribe_share": 0.75,
            "vote_share": 0.75,
        }

    def test_ten_significant_digits(self, tmp_path):
        table = ShareTable([ShareRow(0, 0, 1 / 3, 2 / 3)])
        path = tmp_path / "fmt.csv"
        metrics.export(table, "csv", str(path))
        assert "0.3333333333,0.6666666667" in path.read_text()
