import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from vetokensim import cli, metrics
from vetokensim.cli import main
from vetokensim.errors import ScenarioError
from vetokensim.gauges import GaugeController
from vetokensim.scenario import ScenarioConfig, load_scenario
from vetokensim.sim import run_scenario
from vetokensim.trace import SimTrace

from conftest import make_scenario, write_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture(scope="module")
def loaded_by_cli_import():
    """Modules a fresh interpreter loads to import ``vetokensim.cli``.  Every CLI
    call pays for its imports; the diff is taken against the modules already
    loaded, since site hooks may preload some."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vetokensim.cli\n"
        "print(vetokensim.cli.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60, check=True)
    path, names = done.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC)
    return set(names.split())


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions(loaded_by_cli_import):
    assert "vetokensim.metrics" in loaded_by_cli_import
    assert loaded_by_cli_import.isdisjoint({"dataclasses", "inspect", "fractions"})


def test_importing_the_cli_loads_no_hashlib(loaded_by_cli_import):
    # only ``run`` hashes; ``_hashlib`` loads OpenSSL
    assert loaded_by_cli_import.isdisjoint({"hashlib", "_hashlib"})


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
    "string exogenous weight": (
        _with_agent_params(exogenous_weights={"0": "x"}),
        f"{PARAMS}.exogenous_weights.0: expected a finite number, got 'x'",
    ),
    "inf lock amount": (
        _with_agent_params(lock_schedule=[{"epoch": 0, "kind": "base", "amount": float("inf"), "weeks": 4}]),
        f"{PARAMS}.lock_schedule[0].amount: unparseable token amount: 'inf'",
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
    "price_series a list": (make_scenario(price_series=[]), "scenario.price_series: expected an object, got list"),
    "one-entry price point": (_with_price_points([[0]]), f"{PRICE}: expected a list of 2 entries"),
    "short balance": (make_scenario(initial_balances=[["a", "CRV"]]),
                      "scenario.initial_balances[0]: expected a list of 3 entries"),
    "agent not an object": (_with_agent(5), "scenario.agents[0]: expected an object, got int"),
    "lock entry not an object": (
        _with_agent_params(lock_schedule=["base"]),
        f"{PARAMS}.lock_schedule[0]: expected an object, got str",
    ),
    "gauge not an object": (_with_gauge("g0"), "scenario.gauges[0]: expected an object, got str"),
    "one-entry lp pair": (
        _with_gauge({"name": "g0", "lp_accounts": [["lp0"]]}),
        "scenario.gauges[0].lp_accounts[0]: expected a list of 2 entries",
    ),
    "exogenous key not a gauge id": (
        _with_agent_params(exogenous_weights={"x": 1.0}),
        f"{PARAMS}.exogenous_weights.x: expected a gauge id, got 'x'",
    ),
    "exogenous weights a list": (
        _with_agent_params(exogenous_weights=[1]),
        f"{PARAMS}.exogenous_weights: expected an object, got list",
    ),
    "lock amount a list": (
        _with_agent_params(lock_schedule=[{"epoch": 0, "kind": "base", "amount": [1], "weeks": 4}]),
        f"{PARAMS}.lock_schedule[0].amount: unparseable token amount: [1]",
    ),
    "contract account not a string": (
        make_scenario(contract_accounts=[[1]]),
        "scenario.contract_accounts[0]: expected a string, got [1]",
    ),
    "whitelist entry not a string": (
        make_scenario(gov_escrow={"token": "CVX", "max_lock_weeks": 16, "whitelist": ["agg", 7]}),
        "scenario.gov_escrow.whitelist[1]: expected a string, got 7",
    ),
    "whitelist_enforced a string": (
        make_scenario(base_escrow={"token": "CRV", "max_lock_weeks": 208, "whitelist_enforced": "false"}),
        "scenario.base_escrow.whitelist_enforced: expected true or false, got 'false'",
    ),
    "transferable a number": (
        make_scenario(tokens=[{"symbol": "CRV", "transferable": 0}]),
        "scenario.tokens[0].transferable: expected true or false, got 0",
    ),
    "empty token symbol": (make_scenario(tokens=[{"symbol": ""}]),
                           "scenario.tokens[0].symbol: empty or duplicate symbol ''"),
    "duplicate token symbol": (
        make_scenario(tokens=[{"symbol": "CRV"}, {"symbol": "CRV"}]),
        "scenario.tokens[1].symbol: empty or duplicate symbol 'CRV'",
    ),
    "price epochs not increasing": (_with_price_points([[0, 1.0], [0, 2.0]]),
                                    "scenario.price_series.CRV[1]: epochs must increase"),
    "min_lock_weeks above max_lock_weeks": (
        make_scenario(gov_escrow={"token": "CVX", "min_lock_weeks": 17, "max_lock_weeks": 16}),
        "scenario.gov_escrow.min_lock_weeks: exceeds max_lock_weeks",
    ),
    "lp shares short of 10000": (
        _with_gauge({"name": "g0", "lp_accounts": [["lp0", 5000], ["lp1", 4000]]}),
        "scenario.gauges[0].lp_accounts: shares must sum to 10000 bps",
    ),
    "empty emission range": (make_scenario(emission_schedule=[{"start": 4, "end": 4, "per_week": 1}]),
                             "scenario.emission_schedule[0].end: must exceed start"),
    "overlapping emission ranges": (
        # ordered by start, [3, 8) is the later-starting range
        make_scenario(emission_schedule=[{"start": 3, "end": 8, "per_week": 1}, {"start": 0, "end": 4, "per_week": 1}]),
        "scenario.emission_schedule[0].start: overlaps [0, 4)",
    ),
    "round_length 0": (make_scenario(round_length=0), "scenario.round_length: 0 is below the minimum of 1"),
    "unknown strategy": (
        _with_agent({"account": "a", "strategy": "Nonsense"}),
        "scenario.agents[0].strategy: must be one of PassiveLocker, FixedAllocator, BribeFollowerGreedy, "
        "BribeFollowerEquilibrium or SelfPromoter, got 'Nonsense'",
    ),
    "SelfPromoter without own gauges": (
        _with_agent({"account": "a", "strategy": "SelfPromoter"}),
        "scenario.agents[0].params.own_gauges: a SelfPromoter needs at least one own gauge",
    ),
    "unknown lock kind": (
        _with_agent_params(lock_schedule=[{"epoch": 0, "kind": "stake", "amount": 1}]),
        f"{PARAMS}.lock_schedule[0].kind: must be base, gov or deposit, got 'stake'",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_SHAPES))
def test_bad_shape_exits_one(case, capsys, tmp_path):
    raw, message = BAD_SHAPES[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw))
    assert run_cli(capsys, "validate", str(path)) == (1, "", f"error: {message}\n")


def _bribe_priced(points) -> dict:
    """A briber that spends 1e10 USD on gauge 0 in round 0 only, with BRIBE-USD priced by ``points``."""
    briber = {"account": "b", "strategy": "SelfPromoter",
              "params": {"own_gauges": [0], "budget_per_round": [1e10, 0]}}
    return {"agents": [briber], "initial_balances": [["b", "BRIBE-USD", 10**10]],
            "price_series": {**make_scenario()["price_series"], "BRIBE-USD": points}}


# scenario overrides -> the error of a run whose USD valuation overflows a float
USD_BEYOND_A_FLOAT = {
    "lock cost": (
        {"agents": [{"account": "p", "strategy": "PassiveLocker",
                     "params": {"lock_schedule": [{"epoch": 0, "kind": "base", "amount": 10**10, "weeks": 52}]}}],
         "initial_balances": [["p", "CRV", 10**10]],
         "price_series": {**make_scenario()["price_series"], "CRV": [[0, 1e300]]}},
        f"epoch 0, agent p: USD value of {10**28} CRV base units at epoch 0 overflows a float",
    ),
    "open round bribes": (
        _bribe_priced([[0, 1.0], [1, 1e300]]),
        f"epoch 1: USD value of {10**28} BRIBE-USD base units at epoch 1 overflows a float",
    ),
    "settlement": (
        _bribe_priced([[0, 1.0], [2, 1e300]]),
        f"epoch 2, round 0: USD value of {10**28} BRIBE-USD base units at epoch 2 overflows a float",
    ),
    # two bribes on one gauge in two tokens, each worth 1e308 USD
    "settlement total": (
        {"agents": [{"account": f"b{i}", "strategy": "SelfPromoter",
                     "params": {"own_gauges": [0], "budget_per_round": [1e308, 0], "bribe_token": token}}
                    for i, token in enumerate(["BRIBE-USD", "CVX"])],
         "initial_balances": [["b0", "BRIBE-USD", 10**309], ["b1", "CVX", 10**309]]},
        "epoch 2, round 0: gauge 0 bribe_usd overflows a float",
    ),
    # 1e300 USD over the weight of one base unit of CVX
    "settlement usd per vote": (
        {"agents": [{"account": "f", "strategy": "BribeFollowerGreedy",
                     "params": {"lock_schedule": [{"epoch": 0, "kind": "gov", "amount": "1e-18", "weeks": 16}]}},
                    {"account": "b", "strategy": "SelfPromoter",
                     "params": {"own_gauges": [0], "budget_per_round": [1e300, 0]}}],
         "initial_balances": [["f", "CVX", "1e-18"], ["b", "BRIBE-USD", 10**301]]},
        "epoch 2, round 0: gauge 0 usd_per_vote overflows a float",
    ),
    # each gauge's bribe_usd is 1e308, their sum is not a float
    "settlement round total": (
        {"agents": [{"account": f"b{g}", "strategy": "SelfPromoter",
                     "params": {"own_gauges": [g], "budget_per_round": 1e308}} for g in (0, 1)],
         "initial_balances": [["b0", "BRIBE-USD", 10**9], ["b1", "BRIBE-USD", 10**9]],
         "price_series": {**make_scenario()["price_series"], "BRIBE-USD": [[0, 1e300]]},
         "gauges": [{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in (0, 1)]},
        "epoch 2, round 0: the round's bribe_usd total overflows a float",
    ),
}


def _locker(token: str, *locks, account="u", strategy="PassiveLocker", **params) -> dict:
    """An agent holding 3 * 10**308 ``token`` with the ``(epoch, kind, amount, weeks)`` locks."""
    schedule = [dict(zip(("epoch", "kind", "amount", "weeks"), lock)) for lock in locks]
    return {"agents": [{"account": account, "strategy": strategy, "params": {"lock_schedule": schedule, **params}}],
            "initial_balances": [[account, token, 3 * 10**308]]}


def _voters(*lockers) -> dict:
    """The agents and balances of ``lockers``, each voting all its governance weight for gauge 0."""
    parts = [_locker("CVX", *locks, account=account, strategy="FixedAllocator", allocation=[[0, 10000]])
             for account, locks in lockers]
    return {key: [entry for part in parts for entry in part[key]] for key in ("agents", "initial_balances")}


def _bribed(overrides: dict) -> dict:
    """``overrides`` plus a briber b who bribes gauge 0 with 1 USD in round 0."""
    briber = {"account": "b", "strategy": "SelfPromoter", "params": {"own_gauges": [0], "budget_per_round": [1.0, 0]}}
    return {"agents": [briber, *overrides["agents"]],
            "initial_balances": [["b", "BRIBE-USD", 10], *overrides["initial_balances"]]}


# scenario overrides -> the error of a run whose lock weight a float cannot hold
LOCK_BEYOND_A_FLOAT = {
    "base lock": (_locker("CRV", (0, "base", 2 * 10**308, 208)),
                  "epoch 0, agent u: the weight of its new locks overflows a float"),
    "governance lock": (_locker("CVX", (0, "gov", 3 * 10**308, 16)),
                        "epoch 0, agent u: the weight of its new locks overflows a float"),
    # its weight, 2e308 * 14/16, is a float; its token count is not
    "governance lock cost": (
        _locker("CVX", (0, "gov", 2 * 10**308, 16)),
        f"epoch 0, agent u: USD value of {2 * 10**326} CVX base units at epoch 0 overflows a float",
    ),
    # each lock's weight is a float, the weight of both is not
    "base lock grown": (_locker("CRV", (0, "base", 10**308, 208), (1, "base", 10**308, 208)),
                        "epoch 1: the CRV weight total overflows a float"),
    "governance lock grown": (_locker("CVX", (0, "gov", 10**308, 16), (1, "gov", 10**308, 16)),
                              "epoch 1: the CVX weight total overflows a float"),
    "two voters' governance locks": (_voters(("v0", [(0, "gov", 11 * 10**307, 16)]),
                                             ("v1", [(0, "gov", 11 * 10**307, 16)])),
                                     "epoch 0: the CVX weight total overflows a float"),
    # the lock added at the close epoch raises the round's vote weight past a float
    "governance lock grown at the close": (
        _bribed(_voters(("v", [(0, "gov", 10**308, 16), (2, "gov", 9 * 10**307, 16)]))),
        "epoch 2: the CVX weight total overflows a float",
    ),
}


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

    def test_calls_run_scenario_once_with_the_config(self, capsys, tmp_path, monkeypatch):
        # a benchmark swaps a one-argument timer in at ``cli.run_scenario``;
        # ``run`` must call it once, with the config alone, and write what it returns
        path = tmp_path / "mini.json"
        path.write_text(json.dumps(make_scenario(horizon_epochs=4)))
        assert run_cli(capsys, "run", str(path), "--out", str(tmp_path / "plain"))[0] == 0
        calls, traces = [], []

        def counting_run_scenario(*args, **kwargs):
            calls.append((args, kwargs))
            traces.append(original(*args, **kwargs))
            return traces[-1]

        original = cli.run_scenario
        monkeypatch.setattr(cli, "run_scenario", counting_run_scenario)
        out = tmp_path / "wrapped"
        assert run_cli(capsys, "run", str(path), "--out", str(out))[0] == 0
        assert len(calls) == 1
        (config,), kwargs = calls[0]
        assert isinstance(config, ScenarioConfig) and kwargs == {}
        traces[0].write_ndjson(str(tmp_path / "returned.ndjson"))
        written = (out / "trace.ndjson").read_bytes()
        assert written == (tmp_path / "returned.ndjson").read_bytes()
        assert written == (tmp_path / "plain" / "trace.ndjson").read_bytes()

    def test_bribes_past_the_float_range_exit_two(self, capsys, tmp_path):
        # two bribes of 1e308 USD sum to inf dollars for the equilibrium follower
        follower = {"account": "e", "strategy": "BribeFollowerEquilibrium",
                    "params": {"lock_schedule": [{"epoch": 0, "kind": "gov", "amount": 100, "weeks": 16}]}}
        bribers = [{"account": f"b{g}", "strategy": "SelfPromoter",
                    "params": {"own_gauges": [g], "budget_per_round": 1e308}} for g in (0, 1)]
        raw = make_scenario(
            horizon_epochs=3,
            agents=[follower, *bribers],
            initial_balances=[["e", "CVX", 100], ["b0", "BRIBE-USD", 10**309], ["b1", "BRIBE-USD", 10**309]],
            gauges=[{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in (0, 1)],
        )
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(raw))
        code, _, err = run_cli(capsys, "run", str(path), "--out", str(tmp_path / "out"))
        assert code == 2
        assert err.startswith("error: epoch 1, agent e: equilibrium level inf is out of range")

    def test_summary_walks_the_trace_once(self):
        class CountedRows:
            def __init__(self, rows):
                self.rows, self.walks = rows, 0

            def __iter__(self):
                self.walks += 1
                return iter(self.rows)

        config = load_scenario("paper-mature")
        trace = run_scenario(config)
        rows = CountedRows(trace.rows)
        assert cli._summarize(config, SimTrace(trace.header, rows)) == cli._summarize(config, trace)
        assert rows.walks == 1

    @staticmethod
    def _exits_two_before_the_trace(capsys, tmp_path, overrides: dict, problem: str) -> None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(make_scenario(horizon_epochs=3, **overrides)))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", str(path), "--out", str(out))
        assert (code, err) == (2, f"error: {problem}\n")
        assert not (out / "trace.ndjson").exists()

    @pytest.mark.parametrize("case", sorted(USD_BEYOND_A_FLOAT))
    def test_usd_value_past_the_float_range_exits_two_before_the_trace(self, case, capsys, tmp_path):
        self._exits_two_before_the_trace(capsys, tmp_path, *USD_BEYOND_A_FLOAT[case])

    @pytest.mark.parametrize("case", sorted(LOCK_BEYOND_A_FLOAT))
    def test_lock_weight_past_the_float_range_exits_two_before_the_trace(self, case, capsys, tmp_path):
        self._exits_two_before_the_trace(capsys, tmp_path, *LOCK_BEYOND_A_FLOAT[case])


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



@pytest.mark.parametrize(
    "args,message",
    [("cost_per_vote", "cost_per_vote needs --actor and --avenue"),
     ("snapshots --round 0..1", "--round does not apply to snapshots (epoch-keyed)")],
)
def test_report_usage_is_checked_before_the_trace_is_read(args, message, capsys, tmp_path):
    missing = tmp_path / "missing.ndjson"
    result = run_cli(capsys, "report", str(missing), "--metric", *args.split(), "--out", str(tmp_path / "o.csv"))
    assert result == (1, "", f"error: {message}\n")


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
    header, first, *_ = Path(mature_trace).read_text(encoding="utf-8").splitlines()
    path.write_text(f"{header}\n{first}\n\n{line}\n")
    code, _, err = run_cli(capsys, "report", str(path), "--metric", "snapshots", "--out", str(tmp_path / "s.csv"))
    assert code == 1
    assert err.startswith(f"error: {path}:4: {problem}")


def test_share_table_bribe_total_beyond_a_float_exits_one(mature_trace, capsys, tmp_path):
    # each gauge's bribe_usd is a float, but their total is not
    header, *lines = Path(mature_trace).read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    first = next(row for row in rows if row["settlement"])
    for gauge in first["settlement"]["gauges"].values():
        gauge["bribe_usd"] = 1.5e308
    path = tmp_path / "trace.ndjson"
    path.write_text("".join(line + "\n" for line in [header, *map(json.dumps, rows)]))
    out = tmp_path / "shares.csv"
    result = run_cli(capsys, "report", str(path), "--metric", "share_table", "--out", str(out))
    problem = "settlement.gauges: bribe_usd total overflows a float"
    assert result == (1, "", f"error: trace epoch {first['epoch']}: {problem}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_scenario_not_utf8_exits_one(command, capsys, tmp_path):
    # in Latin-1 the e-acute is the one byte 0xe9, which opens a UTF-8 sequence that the next byte breaks
    text = json.dumps(make_scenario(horizon_epochs=2, description="caf\u00e9"), indent=1, ensure_ascii=False)
    path = tmp_path / "latin1.json"
    path.write_bytes(text.encode("latin-1"))
    line = text[: text.index("caf")].count("\n") + 1
    out = tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    code, stdout, err = run_cli(capsys, *argv)
    assert (code, stdout, err) == (1, "", f"error: {path}:{line}: not valid UTF-8: invalid continuation byte\n")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["header", "last row"])
def test_trace_not_utf8_exits_one(bad, mature_trace, capsys, tmp_path):
    lines = Path(mature_trace).read_bytes().splitlines()
    # the last row lies past the first block a text read decodes, so the row
    # pass meets it, not the header read
    index = 0 if bad == "header" else len(lines) - 1
    lines[index] = lines[index].replace(b'"', b'"\xff', 1)
    path = tmp_path / "trace.ndjson"
    path.write_bytes(b"\n".join(lines) + b"\n")
    out = tmp_path / "p.csv"
    code, _, err = run_cli(capsys, "report", str(path), "--metric", "participation", "--out", str(out))
    assert (code, err) == (1, f"error: {path}:{index + 1}: not valid UTF-8: invalid start byte\n")
    assert not out.exists()


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
HUGE = "1" + "0" * 400  # above the largest float
TOO_LARGE = "expected a ratio at most the largest float, got"

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
    "word bps in a base vote": (dict(DIRECT_LOCK, base_votes={"a": {"0": "x"}}),
                                "cost_per_vote --actor a --avenue direct-lock",
                                "epoch 5: base_votes.a.0: expected an integer, got 'x'"),
    "negative bps in a base vote": (dict(DIRECT_LOCK, base_votes={"a": {"0": -1}}),
                                    "cost_per_vote --actor a --avenue direct-lock",
                                    "epoch 5: base_votes.a.0: -1 is below the minimum of 0"),
    "word lock amount": (
        {"epoch": 1, "lock_events": [{"account": "a", "escrow": "base", "amount": "1", "usd_cost": 1.0}]},
        "cost_per_vote --actor a --avenue direct-lock",
        "epoch 1: lock_events[0].amount: expected an integer, got '1'",
    ),
    "word lock cost": (
        {"epoch": 1, "lock_events": [{"account": "a", "escrow": "base", "amount": 1, "usd_cost": "1"}]},
        "cost_per_vote --actor a --avenue direct-lock",
        "epoch 1: lock_events[0].usd_cost: expected a finite number, got '1'",
    ),
    "lock events not a list": ({"epoch": 1, "lock_events": 5}, "cost_per_vote --actor a --avenue direct-lock",
                               "epoch 1: lock_events: expected a list"),
    "word briber spend": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"briber_usd": {"b": "1"}, "vote_weight": "1"}}}},
        "cost_per_vote --actor b --avenue bribe",
        "epoch 4: settlement.gauges.2.briber_usd.b: expected a finite number, got '1'",
    ),
    "word bribe total": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": "1", "vote_weight": "1",
                                                                 "usd_per_vote": None}}}},
        "settlements",
        "epoch 4: settlement.gauges.2.bribe_usd: expected a finite number, got '1'",
    ),
    "word usd per vote": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": 1.0, "vote_weight": "1",
                                                                 "usd_per_vote": "x"}}}},
        "settlements",
        "epoch 4: settlement.gauges.2.usd_per_vote: expected a finite number or null, got 'x'",
    ),
    "negative lock cost": (
        {"epoch": 1, "lock_events": [{"account": "a", "escrow": "base", "amount": 1, "usd_cost": -1.0}]},
        "cost_per_vote --actor a --avenue direct-lock",
        "epoch 1: lock_events[0].usd_cost: -1.0 is below the minimum of 0",
    ),
    "negative briber spend": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"briber_usd": {"b": -5.0}, "vote_weight": "2"}}}},
        "cost_per_vote --actor b --avenue bribe",
        "epoch 4: settlement.gauges.2.briber_usd.b: -5.0 is below the minimum of 0",
    ),
    "negative bribe total": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": -1.0, "vote_weight": "1",
                                                                 "usd_per_vote": None}}}},
        "settlements",
        "epoch 4: settlement.gauges.2.bribe_usd: -1.0 is below the minimum of 0",
    ),
    "negative bribe total in a share table": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": -1}}},
         "round_finalized": {"round": 1, "tally": {"2": "1"}}},
        "share_table",
        "epoch 4: settlement.gauges.2.bribe_usd: -1 is below the minimum of 0",
    ),
    "negative usd per vote": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": 1.0, "vote_weight": "1",
                                                                 "usd_per_vote": -0.5}}}},
        "settlements",
        "epoch 4: settlement.gauges.2.usd_per_vote: -0.5 is below the minimum of 0",
    ),
    "vote weight above the largest float": (
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"2": {"bribe_usd": 1.0, "vote_weight": HUGE,
                                                                 "usd_per_vote": None}}}},
        "settlements",
        f"epoch 4: settlement.gauges.2.vote_weight: {TOO_LARGE} '{HUGE}'",
    ),
    "relative weight above the largest float": (
        {"epoch": 3, "snapshot": {"relative_weights": {"0": HUGE + "/3"}}}, "snapshots",
        f"epoch 3: snapshot.relative_weights.0: {TOO_LARGE} '{HUGE}/3'",
    ),
    "meta share above the largest float": ({"epoch": 2, "round_finalized": dict(RESULT, result={"0": HUGE})},
                                           "round_results", f"epoch 2: round_finalized.result.0: {TOO_LARGE} '{HUGE}'"),
    # ``int`` takes each of these; the n or n/d format does not
    **{
        f"meta share {text!r}": ({"epoch": 2, "round_finalized": dict(RESULT, result={"0": text})}, "round_results",
                                 f"epoch 2: round_finalized.result.0: {RATIO} {text!r}")
        for text in ("1_0", " 1", "+1", "٣")
    },
}


@pytest.mark.parametrize("case", sorted(BAD_TRACE_FIELDS))
def test_bad_trace_field_exits_one(case, capsys, tmp_path):
    row, metric_args, problem = BAD_TRACE_FIELDS[case]
    path = tmp_path / "trace.ndjson"
    write_trace(path, [row])
    out = tmp_path / "export.csv"
    result = run_cli(capsys, "report", str(path), "--metric", *metric_args.split(), "--out", str(out))
    assert result == (1, "", f"error: trace {problem}\n")
    assert not out.exists()


ABOVE_HALF_MAX = "1" + "0" * 308  # a float holds one such vote total, not two

# briber_usd and vote_weight that each of two settlements gives briber b -> problem
COST_BEYOND_A_FLOAT = {
    "vote total": (1.0, ABOVE_HALF_MAX, "vote total overflows a float"),
    "spend total": (1e308, "1", "spend total overflows a float"),
    "tiny vote total": (1.0, "1/" + HUGE, "vote total underflows a float"),
    "usd per vote": (6e307, "1/4", "USD per vote overflows a float"),
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("case", sorted(COST_BEYOND_A_FLOAT))
def test_cost_beyond_a_float_exits_one(case, fmt, capsys, tmp_path):
    usd, vote_weight, problem = COST_BEYOND_A_FLOAT[case]
    gauges = {"0": {"briber_usd": {"b": usd}, "vote_weight": vote_weight}}
    rows = [{"epoch": epoch, "settlement": {"round": epoch, "gauges": gauges}} for epoch in (1, 2)]
    path = tmp_path / "trace.ndjson"
    write_trace(path, rows)
    out = tmp_path / f"export.{fmt}"
    result = run_cli(capsys, "report", str(path), "--metric", "cost_per_vote", "--actor", "b", "--avenue", "bribe",
                     "--out", str(out), "--format", fmt)
    assert result == (1, "", f"error: trace: b in avenue bribe: {problem}\n")
    assert not out.exists()
    # the run summary's fold shares the check
    with pytest.raises(ScenarioError, match=problem):
        trace = SimTrace.read_ndjson(str(path))
        cost = metrics.CostFold(trace.header, "bribe", ["b"])
        metrics.fold(trace, cost)
        cost.final()


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
