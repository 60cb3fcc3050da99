import json
import sys
from collections import Counter
from fractions import Fraction

import pytest

from vetokensim.errors import GaugeError, ScenarioError, SimulationError
from vetokensim.gauges import GaugeController
from vetokensim.scenario import load_scenario, packaged_scenarios, scenario_from_dict
from vetokensim.sim import World, run_scenario
from vetokensim.trace import SimTrace

from conftest import LONG_DIGITS, U, make_scenario


class TestLoadScenario:
    def test_minimal_file_gets_defaults(self, tmp_path):
        raw = make_scenario()
        del raw["round_length"]
        del raw["base_snapshot_cadence"]
        path = tmp_path / "s.json"
        path.write_text(json.dumps(raw))
        config = load_scenario(str(path))
        assert config.round_length == 2
        assert config.base_snapshot_cadence == 1

    def test_overlong_lock_names_the_field(self):
        raw = make_scenario(
            agents=[
                {
                    "account": "a",
                    "strategy": "PassiveLocker",
                    "params": {
                        "lock_schedule": [
                            {"epoch": 0, "kind": "base", "amount": 1, "weeks": 209}
                        ]
                    },
                }
            ]
        )
        with pytest.raises(ScenarioError, match=r"agents\[0\].params.lock_schedule\[0\].weeks"):
            scenario_from_dict(raw)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x",\n  broken\n}')
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(str(path))

    def test_integer_past_the_digit_limit_reports_its_line(self, tmp_path):
        # the string's and the float's digits come first, but only an integer's count
        path = tmp_path / "bad.json"
        text = f'{{"name": "{LONG_DIGITS}",\n "rng_seed": 1.{LONG_DIGITS}e7,\n "horizon_epochs": -{LONG_DIGITS}\n}}'
        path.write_text(text)
        with pytest.raises(ScenarioError) as failure:
            load_scenario(str(path))
        limit = sys.get_int_max_str_digits()
        assert str(failure.value) == f"{path}: JSON parse error at line 3: an integer of more than {limit} digits"

    def test_packaged_scenarios_load(self):
        names = set(packaged_scenarios())
        assert {"paper-mature", "paper-bootstrap", "frax-three-avenues"} <= names
        config = load_scenario("paper-mature")
        assert config.name == "paper-mature"
        assert config.round_length == 2

    def test_unknown_name(self):
        with pytest.raises(ScenarioError):
            load_scenario("no-such-scenario")

    def test_unknown_token_in_balances(self):
        raw = make_scenario(initial_balances=[["a", "NOPE", 1]])
        with pytest.raises(ScenarioError, match=r"initial_balances\[0\]"):
            scenario_from_dict(raw)

    def test_gov_token_mismatch(self):
        raw = make_scenario()
        raw["aggregator"]["gov_token"] = "CRV"
        with pytest.raises(ScenarioError, match="gov_token"):
            scenario_from_dict(raw)

    def test_missing_price_series(self):
        raw = make_scenario()
        del raw["price_series"]["CVX"]
        with pytest.raises(ScenarioError, match="price_series"):
            scenario_from_dict(raw)

    def test_duplicate_agent_account(self):
        raw = make_scenario(
            agents=[
                {"account": "a", "strategy": "PassiveLocker", "params": {}},
                {"account": "a", "strategy": "PassiveLocker", "params": {}},
            ]
        )
        with pytest.raises(ScenarioError, match="duplicate"):
            scenario_from_dict(raw)

    def test_seed_range(self):
        raw = make_scenario(rng_seed=2**64)
        with pytest.raises(ScenarioError, match="rng_seed"):
            scenario_from_dict(raw)


def _one_week_pool():
    """A base escrow with a one-week maximum and one aggregator deposit."""
    raw = make_scenario(
        horizon_epochs=4,
        initial_balances=[["u", "CRV", 100]],
        agents=[
            {
                "account": "u",
                "strategy": "PassiveLocker",
                "params": {"lock_schedule": [{"epoch": 0, "kind": "deposit", "amount": 10}]},
            }
        ],
    )
    raw["base_escrow"]["max_lock_weeks"] = 1
    return scenario_from_dict(raw)


# case -> (scenario config, protocol account, base max_lock_weeks)
MAXED_POOLS = {
    "paper-mature": (lambda: load_scenario("paper-mature"), "convex-like", 208),
    "one-week maximum": (_one_week_pool, "agg", 1),
}


class TestRunScenario:
    def test_empty_horizon_one(self):
        config = scenario_from_dict(make_scenario(horizon_epochs=1))
        trace = run_scenario(config)
        assert len(trace.rows) == 1
        row = trace.rows[0]
        for token, totals in row["token_totals"].items():
            assert totals["minted"] == 0

    def test_passive_locker_weight_decays_linearly(self):
        raw = make_scenario(
            horizon_epochs=6,
            initial_balances=[["alice", "CRV", 104]],
            agents=[
                {
                    "account": "alice",
                    "strategy": "PassiveLocker",
                    "params": {
                        "lock_schedule": [
                            {"epoch": 0, "kind": "base", "amount": 104, "weeks": 104}
                        ]
                    },
                }
            ],
        )
        trace = run_scenario(scenario_from_dict(raw))
        weights = [Fraction(row["escrow_weights"]["base"]["alice"]) for row in trace]
        expected = [Fraction(U(104) * (104 - e), 208 * 10**18) for e in range(6)]
        assert weights == expected
        deltas = {weights[i] - weights[i + 1] for i in range(5)}
        assert len(deltas) == 1  # linear decay, constant slope

    def test_round_lifecycle_epochs(self):
        raw = make_scenario(
            horizon_epochs=5,
            initial_balances=[["voter", "CVX", 10]],
            agents=[
                {
                    "account": "voter",
                    "strategy": "FixedAllocator",
                    "params": {
                        "allocation": [[0, 10000]],
                        "lock_schedule": [{"epoch": 0, "kind": "gov", "amount": 10, "weeks": 16}],
                    },
                }
            ],
        )
        trace = run_scenario(scenario_from_dict(raw))
        finals = [row["round_finalized"]["round"] if row["round_finalized"] else None for row in trace]
        settles = [row["settlement"]["round"] if row["settlement"] else None for row in trace]
        assert finals == [None, None, 0, None, 1]
        assert settles == finals  # settle happens with finalize, same epoch

    def test_step_prefix_equals_full_run(self):
        raw = make_scenario(
            horizon_epochs=2,
            initial_balances=[["alice", "CRV", 10]],
            agents=[
                {
                    "account": "alice",
                    "strategy": "PassiveLocker",
                    "params": {"lock_schedule": [{"epoch": 0, "kind": "base", "amount": 10, "weeks": 52}]},
                }
            ],
        )
        config = scenario_from_dict(raw)
        full = run_scenario(config)
        world = World(config)
        stepped = [world.step(0), world.step(1)]
        assert stepped == full.rows[:2]

    def test_a_failing_snapshot_names_its_epoch(self, monkeypatch):
        def failing_snapshot(self, now):
            raise GaugeError("boom")

        monkeypatch.setattr(GaugeController, "take_snapshot", failing_snapshot)
        world = World(scenario_from_dict(make_scenario()))
        with pytest.raises(SimulationError) as failure:
            world.step(0)
        assert str(failure.value) == "epoch 0: boom"

    def test_two_runs_identical_lines(self):
        config = load_scenario("paper-bootstrap")
        first = list(run_scenario(config).lines())
        second = list(run_scenario(config).lines())
        assert first == second

    def test_conservation_recorded_every_epoch(self):
        trace = run_scenario(load_scenario("paper-mature"))
        for row in trace:
            for token, totals in row["token_totals"].items():
                assert totals["balances"] + totals["escrow_held"] == totals["minted"], token

    @pytest.mark.parametrize("case", sorted(MAXED_POOLS))
    def test_aggregator_lock_stays_maxed(self, case):
        config_of, account, max_weeks = MAXED_POOLS[case]
        trace = run_scenario(config_of())
        for row in trace:
            lock = row["locks"]["base"].get(account)
            if lock:
                assert lock["unlock_epoch"] == row["epoch"] + max_weeks

    @pytest.mark.parametrize("kind, label, weeks", [("base", "base", 52), ("gov", "governance", 16)])
    def test_zero_amount_entry_without_a_lock_makes_none(self, kind, label, weeks):
        raw = make_scenario(
            horizon_epochs=1,
            initial_balances=[["alice", "CRV", 10], ["alice", "CVX", 10]],
            agents=[
                {
                    "account": "alice",
                    "strategy": "PassiveLocker",
                    "params": {"lock_schedule": [{"epoch": 0, "kind": kind, "amount": 0, "weeks": weeks}]},
                }
            ],
        )
        (row,) = run_scenario(scenario_from_dict(raw))
        assert row["lock_events"] == []
        assert row["locks"][label] == {}
        assert row["escrow_weights"][label] == {}

    def test_one_week_pool_is_relocked_in_full(self):
        # the pooled lock ends at every epoch; it is withdrawn and locked again
        for row in run_scenario(_one_week_pool()):
            epoch = row["epoch"]
            assert row["locks"]["base"]["agg"] == {"amount": U(10), "unlock_epoch": epoch + 1, "created_epoch": epoch}
            assert row["escrow_weights"]["base"]["agg"] == "10"
            crv = row["token_totals"]["CRV"]
            assert (crv["balances"], crv["escrow_held"], crv["minted"]) == (U(90), U(10), U(100))


def _entries(rows):
    """(kind, entry) for each lock entry, base ballot and vote entry of ``rows``."""
    for row in rows:
        for locks in row["locks"].values():
            for entry in locks.values():
                yield "lock", entry
        for ballot in row["base_votes"].values():
            yield "ballot", ballot
        for action in row["actions"]:
            yield "vote", action


class TestSharedEntries:
    """Rows are read-only, so a run hands each distinct lock entry, ballot,
    vote entry, ``[gauge, bps]`` pair, allocation list and gauge key to every
    row that holds it as one object."""

    @pytest.fixture(scope="class")
    def frax(self):
        return run_scenario(load_scenario("frax-three-avenues"))

    def test_equal_entries_of_one_run_are_one_object(self, frax):
        first: dict = {}
        for kind, entry in _entries(frax):
            assert first.setdefault((kind, json.dumps(entry, sort_keys=True)), entry) is entry
        # each kind repeats across rows, so the check above is not vacuous
        totals = Counter(kind for kind, _ in _entries(frax))
        distinct = Counter(kind for kind, _ in first)
        assert all(totals[kind] > distinct[kind] > 0 for kind in ("lock", "ballot", "vote"))

    def test_two_runs_share_no_entry(self, frax):
        again = run_scenario(load_scenario("frax-three-avenues"))
        assert again.rows == frax.rows
        assert {id(e) for _, e in _entries(frax)}.isdisjoint(id(e) for _, e in _entries(again))

    def test_meta_votes_are_remembered_only_while_their_round_is_open(self):
        # a meta vote names its round, so a closed round's entries never recur
        config = load_scenario("frax-three-avenues")
        world = World(config)
        for epoch in range(config.horizon_epochs):
            world.step(epoch)
            assert {key[2] for key in world._round_votes} == {epoch // config.round_length}

    def test_rows_hold_only_json_types(self, frax):
        # a tuple would dump as a list and compare unequal after the round trip
        assert json.loads(json.dumps(frax.rows)) == frax.rows

    def test_repeated_leaf_values_are_one_object(self, randomized_1000):
        _, trace = randomized_1000
        assert len(trace.header["gauges"]) >= 11  # two-digit gauge keys too
        first: dict = {}
        seen = Counter()

        def one(kind, value):
            seen[kind] += 1
            assert first.setdefault((kind, json.dumps(value, sort_keys=True)), value) is value, kind

        for row in trace.rows:
            for action in row["actions"]:
                one("allocation", action["allocation"])
                for pair in action["allocation"]:
                    one("pair", pair)
            finalized, settlement, snapshot = row["round_finalized"], row["settlement"], row["snapshot"]
            ballots, by_gauge = list(row["base_votes"].values()), []
            if finalized:
                ballots += finalized["ballots"].values()
                if finalized["base_allocation"] is not None:
                    ballots.append(finalized["base_allocation"])
                by_gauge += [finalized["tally"], finalized["result"]]
            if settlement:
                by_gauge.append(settlement["gauges"])
            if snapshot:
                by_gauge += [snapshot["relative_weights"], snapshot["emissions"]]
            for ballot in ballots:
                one("ballot", ballot)
            for gauge_key in (key for mapping in ballots + by_gauge for key in mapping):
                one("gauge key", gauge_key)
        distinct = Counter(kind for kind, _ in first)
        assert all(seen[kind] > distinct[kind] > 0 for kind in ("allocation", "pair", "ballot", "gauge key"))
        assert json.loads(json.dumps(trace.rows)) == trace.rows

    def test_one_lock_entry_object_per_lock_state(self, randomized_1000):
        _, trace = randomized_1000
        locks = [entry for kind, entry in _entries(trace) if kind == "lock"]
        states = {(e["amount"], e["unlock_epoch"], e["created_epoch"]) for e in locks}
        assert len({id(e) for e in locks}) == len(states) < len(locks)


def _moving_favourite():
    """b-promo votes its base weight every epoch on the more bribed of its two
    gauges; a-rival bribes gauge 1 in rounds 1 and 3 only, so b-promo's
    favourite moves from gauge 0 to gauge 1 and back twice."""
    return scenario_from_dict(make_scenario(
        horizon_epochs=8,
        initial_balances=[["a-rival", "BRIBE-USD", 100], ["b-promo", "CRV", 1000]],
        gauges=[{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in range(2)],
        agents=[
            {"account": "a-rival", "strategy": "SelfPromoter",
             "params": {"own_gauges": [1], "budget_per_round": [0, 50, 0, 50]}},
            {"account": "b-promo", "strategy": "SelfPromoter",
             "params": {"own_gauges": [0, 1], "budget_per_round": 0,
                        "lock_schedule": [{"epoch": 0, "kind": "base", "amount": 1000, "weeks": 52}]}},
        ],
    ))


class TestBaseVotesSharing:
    """A row's ``base_votes`` is the previous row's map while no vote changes
    an allocation, and a new map as soon as one does."""

    @staticmethod
    def _steps(config):
        """(row, accounts whose allocation the epoch changed, whether the
        controller's ``allocations_version`` moved, the world) per epoch."""
        world = World(config)
        controller = world.controller
        for epoch in range(config.horizon_epochs):
            before = {a: dict(alloc) for a, alloc in controller.allocations.items()}
            version = controller.allocations_version
            row = world.step(epoch)
            changed = {a for a, alloc in controller.allocations.items() if before.get(a) != alloc}
            yield row, changed, controller.allocations_version != version, world

    @pytest.mark.parametrize("config, changer", [
        (lambda: load_scenario("frax-three-avenues"), "convex-like"),
        (_moving_favourite, "b-promo"),
    ], ids=["aggregator base re-vote", "moving favourite"])
    def test_the_map_is_shared_until_an_allocation_changes(self, config, changer):
        previous, kept, changes, repeats = None, 0, 0, 0
        for row, changed, moved, world in self._steps(config()):
            votes = row["base_votes"]
            assert moved == bool(changed), row["epoch"]
            assert votes == {
                a: {str(g): bps for g, bps in sorted(alloc.items())}
                for a, alloc in sorted(world.controller.allocations.items())
            }
            if previous is not None and not changed:
                assert votes is previous["base_votes"]
                kept += 1
                # a base vote equal to the stored one is still an action of its row
                repeats += any(action["kind"] == "base_vote" for action in row["actions"])
            elif previous is not None:
                assert votes is not previous["base_votes"]
                changes += changer in changed
            previous = row
        assert kept > 0 and changes > 0 and repeats > 0

    def test_the_favourite_moves_and_comes_back(self):
        trace = run_scenario(_moving_favourite())
        favourites = [row["base_votes"]["b-promo"] for row in trace]
        assert favourites == [{"0": 10000}] * 3 + [{"1": 10000}] + [{"0": 10000}] * 3 + [{"1": 10000}]


class TestTraceIO:
    def test_ndjson_roundtrip(self, tmp_path):
        config = scenario_from_dict(make_scenario(horizon_epochs=2))
        trace = run_scenario(config)
        path = tmp_path / "trace.ndjson"
        trace.write_ndjson(str(path))
        loaded = SimTrace.read_ndjson(str(path))
        assert loaded.header == json.loads(json.dumps(trace.header))
        assert list(loaded) == json.loads(json.dumps(trace.rows))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "broken.ndjson"
        path.write_text('{"type": "epoch", "epoch": 0}\n')
        with pytest.raises(ScenarioError):
            SimTrace.read_ndjson(str(path))
