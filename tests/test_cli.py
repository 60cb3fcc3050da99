import json
import os

import pytest

from vetokensim.cli import main
from vetokensim.gauges import GaugeController

from conftest import make_scenario


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_packaged_scenario_ok(self, capsys):
        code, out, _ = run_cli(capsys, "validate", "paper-mature")
        assert code == 0
        assert out.strip() == "OK"

    def test_bad_scenario_exits_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"name": "x"}')
        code, _, err = run_cli(capsys, "validate", str(path))
        assert code == 1
        assert "required field missing" in err

    def test_validate_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        before = set(os.listdir(tmp_path))
        run_cli(capsys, "validate", "paper-mature")
        assert set(os.listdir(tmp_path)) == before


def _with_agent_params(**params) -> dict:
    return make_scenario(agents=[{"account": "a", "strategy": "PassiveLocker", "params": params}])


def _with_price(price) -> dict:
    return _with_price_points([[0, price]])


def _with_price_points(points) -> dict:
    raw = make_scenario()
    raw["price_series"]["CRV"] = points
    return raw


PRICE = "scenario.price_series.CRV[0]"
PARAMS = "scenario.agents[0].params"

# a scenario with one bad float field -> the exact validate error
BAD_FLOATS = {
    "nan price": (_with_price(float("nan")), f"{PRICE}: expected a finite number, got nan"),
    "inf price": (_with_price(float("inf")), f"{PRICE}: expected a finite number, got inf"),
    "string price": (_with_price("1.5"), f"{PRICE}: expected a finite number, got '1.5'"),
    "bool price": (_with_price(True), f"{PRICE}: expected a finite number, got True"),
    "huge price": (_with_price(10**400), f"{PRICE}: expected a finite number, got {10**400}"),
    "negative price": (_with_price(-1.0), f"{PRICE}: negative price"),
    "string noise": (_with_agent_params(noise="x"), f"{PARAMS}.noise: expected a finite number, got 'x'"),
    "noise above one": (_with_agent_params(noise=1.5), f"{PARAMS}.noise: must be within [0, 1]"),
    "nan budget": (
        _with_agent_params(budget_per_round=float("nan")),
        f"{PARAMS}.budget_per_round: expected a finite number, got nan",
    ),
    "string budget": (
        _with_agent_params(budget_per_round="abc"),
        f"{PARAMS}.budget_per_round: expected a finite number, got 'abc'",
    ),
    "string budget in list": (
        _with_agent_params(budget_per_round=[1, "abc"]),
        f"{PARAMS}.budget_per_round[1]: expected a finite number, got 'abc'",
    ),
    "string tol": (_with_agent_params(tol="x"), f"{PARAMS}.tol: expected a finite number, got 'x'"),
    "string exogenous weight": (
        _with_agent_params(exogenous_weights={"0": "x"}),
        f"{PARAMS}.exogenous_weights.0: expected a finite number, got 'x'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_FLOATS))
def test_bad_float_field_exits_one(case, capsys, tmp_path):
    raw, message = BAD_FLOATS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, "validate", str(path)) == (1, "", f"error: {message}\n")


def _with_agent(agent) -> dict:
    return make_scenario(agents=[agent])


def _with_gauge(gauge) -> dict:
    return make_scenario(gauges=[gauge])


# a scenario with a field of the wrong shape -> the exact validate error
BAD_SHAPES = {
    "tokens not a list": (make_scenario(tokens=5), "scenario.tokens: expected a list"),
    "price_series a list": (make_scenario(price_series=[]), "scenario.price_series: expected an object"),
    "one-entry price point": (_with_price_points([[0]]), f"{PRICE}: expected a list of 2 entries"),
    "short balance": (make_scenario(initial_balances=[["a", "CRV"]]),
                      "scenario.initial_balances[0]: expected a list of 3 entries"),
    "agent not an object": (_with_agent(5), "scenario.agents[0]: expected an object"),
    "lock entry not an object": (
        _with_agent_params(lock_schedule=["base"]),
        f"{PARAMS}.lock_schedule[0]: expected an object",
    ),
    "gauge not an object": (_with_gauge("g0"), "scenario.gauges[0]: expected an object"),
    "one-entry lp pair": (
        _with_gauge({"name": "g0", "lp_accounts": [["lp0"]]}),
        "scenario.gauges[0].lp_accounts[0]: expected a list of 2 entries",
    ),
    "exogenous key not a gauge id": (
        _with_agent_params(exogenous_weights={"x": 1.0}),
        f"{PARAMS}.exogenous_weights.x: expected a gauge id",
    ),
    "exogenous weights a list": (
        _with_agent_params(exogenous_weights=[1]),
        f"{PARAMS}.exogenous_weights: expected an object",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_shape_exits_one(case, capsys, tmp_path):
    raw, message = BAD_SHAPES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, "validate", str(path)) == (1, "", f"error: {message}\n")


class TestRun:
    def test_outputs_exist(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        code, out, _ = run_cli(capsys, "run", "frax-three-avenues", "--out", str(out_dir))
        assert code == 0
        assert (out_dir / "trace.ndjson").is_file()
        assert (out_dir / "summary.json").is_file()
        assert "rounds settled" in out
        summary = json.loads((out_dir / "summary.json").read_text())
        assert summary["scenario"] == "frax-three-avenues"
        assert summary["cost_per_vote"]["frax"].keys() == {
            "direct-lock",
            "aggregator-lock",
            "bribe",
        }

    def test_seed_override_must_be_64_bit(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "paper-mature", "--out", str(tmp_path / "x"), "--seed", str(2**64)
        )
        assert code == 1
        assert "64-bit" in err

    def test_scenario_file_path(self, capsys, tmp_path):
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(make_scenario(horizon_epochs=2)))
        code, _, _ = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "out"))
        assert code == 0

    def test_conservation_break_names_epoch(self, capsys, tmp_path, monkeypatch):
        original = GaugeController.take_snapshot

        def corrupting_snapshot(self, now):
            if now == 3:
                self.ledger.balances["CRV"]["intruder"] = 1  # never minted
            return original(self, now)

        monkeypatch.setattr(GaugeController, "take_snapshot", corrupting_snapshot)
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(make_scenario(horizon_epochs=5)))
        code, _, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: epoch 3: conservation violated for CRV")


class TestReport:
    @pytest.fixture
    def trace_path(self, capsys, tmp_path):
        out_dir = tmp_path / "out"
        run_cli(capsys, "run", "paper-mature", "--out", str(out_dir))
        return str(out_dir / "trace.ndjson")

    def test_share_table_csv_header(self, capsys, trace_path, tmp_path):
        out = tmp_path / "shares.csv"
        code, _, _ = run_cli(
            capsys, "report", trace_path, "--metric", "share_table", "--out", str(out), "--format", "csv"
        )
        assert code == 0
        assert out.read_text().splitlines()[0] == "round_id,gauge_id,bribe_share,vote_share"

    def test_round_filter(self, capsys, trace_path, tmp_path):
        out = tmp_path / "shares.csv"
        code, _, _ = run_cli(
            capsys, "report", trace_path, "--metric", "share_table",
            "--round", "0..1", "--out", str(out),
        )
        assert code == 0
        rows = out.read_text().splitlines()[1:]
        assert {line.split(",")[0] for line in rows} == {"0", "1"}

    def test_pearson_json(self, capsys, trace_path, tmp_path):
        out = tmp_path / "r.json"
        code, _, _ = run_cli(
            capsys, "report", trace_path, "--metric", "pearson", "--out", str(out), "--format", "json"
        )
        assert code == 0
        assert json.loads(out.read_text())["pearson"] == pytest.approx(1.0)

    def test_cost_per_vote_needs_actor_and_avenue(self, capsys, trace_path, tmp_path):
        code, _, err = run_cli(
            capsys, "report", trace_path, "--metric", "cost_per_vote", "--out", str(tmp_path / "c.csv")
        )
        assert code == 1
        assert "--actor" in err

    def test_runtime_error_exits_two(self, capsys, trace_path, tmp_path):
        code, _, err = run_cli(
            capsys, "report", trace_path, "--metric", "cost_per_vote",
            "--actor", "ghost", "--avenue", "bribe", "--out", str(tmp_path / "c.csv"),
        )
        assert code == 2
        assert "never active" in err



@pytest.fixture(scope="module")
def mature_trace(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("mature")
    assert main(["run", "paper-mature", "--out", str(out_dir)]) == 0
    return str(out_dir / "trace.ndjson")


NO_SHARES = "error: no share rows in rounds 900..901\n"

# (``report`` arguments after the trace path, minus --out) -> (exit code,
# stderr, bytes of the written file or None when nothing may be written)
REPORT_OUTCOMES = {
    "participation --round 0..1": (1, "error: --round does not apply to participation\n", None),
    "snapshots --round 0..1": (1, "error: --round does not apply to snapshots (epoch-keyed)\n", None),
    "cost_per_vote --actor frax --avenue bribe --round 0..1": (
        1, "error: --round does not apply to cost_per_vote\n", None,
    ),
    "share_table --round 3..1": (1, "error: --round range '3..1' is empty\n", None),
    "round_results --round x": (1, "error: --round expects A..B, got 'x'\n", None),
    "cost_per_vote": (1, "error: cost_per_vote needs --actor and --avenue\n", None),
    "cost_per_vote --actor frax": (1, "error: cost_per_vote needs --actor and --avenue\n", None),
    "cost_per_vote --avenue bribe --round 0..1": (
        1, "error: cost_per_vote needs --actor and --avenue\n", None,
    ),
    "share_table --round 900..901": (2, NO_SHARES, None),
    "pearson --round 900..901": (2, NO_SHARES, None),
    "outliers --round 900..901": (2, NO_SHARES, None),
    "diff_matrix --round 900..901": (2, NO_SHARES, None),
    "round_results --round 900..901": (0, "", "round_id,gauge_id,meta_share,base_bps\n"),
    "settlements --round 900..901": (
        0, "", "round_id,gauge_id,bribe_usd,vote_weight,usd_per_vote\n",
    ),
    "round_results --round 900..901 --format json": (0, "", '{\n  "rows": []\n}\n'),
}


@pytest.mark.parametrize("case", sorted(REPORT_OUTCOMES))
def test_report_outcome(case, mature_trace, capsys, tmp_path):
    code, err, written = REPORT_OUTCOMES[case]
    out = tmp_path / "export"
    result, _, stderr = run_cli(capsys, "report", mature_trace, "--metric", *case.split(), "--out", str(out))
    assert (result, stderr) == (code, err)
    assert (out.read_text() if out.exists() else None) == written


@pytest.mark.parametrize(
    "line,problem",
    [("{not json", "invalid JSON: Expecting property name enclosed in double quotes"),
     ("[1, 2]", "record is not a JSON object")],
)
def test_malformed_trace_line_exits_one(line, problem, mature_trace, capsys, tmp_path):
    path = tmp_path / "trace.ndjson"
    header, first, *_ = open(mature_trace, encoding="utf-8").read().splitlines()
    path.write_text(f"{header}\n{first}\n\n{line}\n")
    code, _, err = run_cli(capsys, "report", str(path), "--metric", "snapshots", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert err.startswith(f"error: {path}:4: {problem}")


BARE_ROUND = {"epoch": 0, "settlement": {"round": 0}, "round_finalized": {"round": 0}}
RESULT = {"round": 0, "tally_total": "1", "total_gov_weight": "1", "result": {"0": "1/0"}}
DIRECT_LOCK = {
    "epoch": 5,
    "snapshot": {"relative_weights": {"0": "x"}},
    "escrow_weights": {"base": {"a": "x"}},
    "base_votes": {"a": {"0": 10000}},
    "lock_events": [{"account": "a", "escrow": "base", "amount": 1, "usd_cost": 1.0}],
}
BRIBE = {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"briber_usd": {"b": 1.0}, "vote_weight": "1/-2"}}}}
RATIO = "expected a ratio n or n/d, got"

# (trace row after a header, ``report`` arguments after --metric) -> stderr
BAD_TRACE_FIELDS = {
    "participation of a bare round": (BARE_ROUND, "participation",
                                      "epoch 0: round_finalized.tally_total: required field missing"),
    "share_table of a bare round": (BARE_ROUND, "share_table",
                                    "epoch 0: settlement.gauges: required field missing"),
    "settlements of a bare round": (BARE_ROUND, "settlements",
                                    "epoch 0: settlement.gauges: required field missing"),
    "round_results of a bare round": (BARE_ROUND, "round_results",
                                      "epoch 0: round_finalized.result: required field missing"),
    "settlement gauges a list": ({"epoch": 2, "settlement": {"round": 0, "gauges": []}}, "settlements",
                                 "epoch 2: settlement.gauges: expected an object, got list"),
    "zero denominator": ({"epoch": 2, "round_finalized": RESULT}, "round_results",
                         f"epoch 2: round_finalized.result.0: {RATIO} '1/0'"),
    "word weight in a snapshot": (DIRECT_LOCK, "snapshots", f"epoch 5: snapshot.relative_weights.0: {RATIO} 'x'"),
    "word weight in a direct-lock vote": (DIRECT_LOCK, "cost_per_vote --actor a --avenue direct-lock",
                                          f"epoch 5: escrow_weights.base.a: {RATIO} 'x'"),
    "lock event without cost": (
        {"epoch": 1, "lock_events": [{"account": "a", "escrow": "base", "amount": 1}]},
        "cost_per_vote --actor a --avenue direct-lock",
        "epoch 1: lock_events[0].usd_cost: required field missing",
    ),
    "negative bribe vote weight": (BRIBE, "cost_per_vote --actor b --avenue bribe",
                                   f"epoch 4: settlement.gauges.2.vote_weight: {RATIO} '1/-2'"),
    "word gauge id in a snapshot": ({"epoch": 3, "snapshot": {"relative_weights": {"x": "1"}}}, "snapshots",
                                    "epoch 3: snapshot.relative_weights.x: expected a gauge id, got 'x'"),
    "base votes a list": (dict(DIRECT_LOCK, base_votes=[1]), "cost_per_vote --actor a --avenue direct-lock",
                          "epoch 5: base_votes: expected an object, got list"),
    "snapshot emissions a list": ({"epoch": 3, "snapshot": {"relative_weights": {"0": "1"}, "emissions": [1]}},
                                  "snapshots", "epoch 3: snapshot.emissions: expected an object, got list"),
    "base allocation a list": ({"epoch": 2, "round_finalized": dict(RESULT, base_allocation=[1])}, "round_results",
                               "epoch 2: round_finalized.base_allocation: expected an object, got list"),
}


@pytest.mark.parametrize("case", sorted(BAD_TRACE_FIELDS))
def test_bad_trace_field_exits_one(case, capsys, tmp_path):
    row, metric_args, problem = BAD_TRACE_FIELDS[case]
    path = tmp_path / "trace.ndjson"
    path.write_text(json.dumps({"type": "header", "protocol_account": "agg"}) + "\n" + json.dumps(row) + "\n")
    out = tmp_path / "export.csv"
    result = run_cli(capsys, "report", str(path), "--metric", *metric_args.split(), "--out", str(out))
    assert result == (1, "", f"error: trace {problem}\n")
    assert not out.exists()


class TestUsage:
    def test_unknown_flag_rejected(self, capsys):
        code, _, err = run_cli(capsys, "validate", "paper-mature", "--frobnicate")
        assert code == 1
        assert "usage" in err.lower() or "error" in err.lower()

    def test_no_command_prints_synopsis(self, capsys):
        code, _, err = run_cli(capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_scenarios_lists_packaged(self, capsys):
        code, out, _ = run_cli(capsys, "scenarios")
        assert code == 0
        for name in ("paper-mature", "paper-bootstrap", "frax-three-avenues"):
            assert name in out
