import argparse
import errno
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

from conftest import DEEP, LONG_DIGITS, make_scenario, write_trace

SRC = Path(__file__).resolve().parents[1] / "src"


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# the modules ``import vetokensim.cli`` leaves for the commands that run them
LATE_MODULES = ("sim", "metrics", "trace", "agents", "aggregator", "bribemarket", "escrow", "gauges")
# the package modules every command loads: the cli and the scenario parser
BASE = {"vetokensim", "vetokensim.cli", "vetokensim.errors", "vetokensim.ledger", "vetokensim.scenario"}


def loaded_by(code: str, *flags: str) -> set[str]:
    """Modules a fresh interpreter (run with ``flags``) loads to import
    ``vetokensim.cli`` and run ``code``.  Every CLI call pays for its imports;
    the diff is taken against the modules already loaded, since site hooks may
    preload some."""
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import vetokensim.cli\n"
        f"{code}\n"
        "print(vetokensim.cli.__file__)\n"
        "print(*sorted(set(sys.modules) - before))\n"
    )
    done = subprocess.run([sys.executable, *flags, "-c", script], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=60, check=True)
    *_, path, names = done.stdout.splitlines()
    assert Path(path).resolve().is_relative_to(SRC)
    return set(names.split())


@pytest.fixture(scope="module")
def loaded_by_cli_import():
    return loaded_by("")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_fractions(loaded_by_cli_import):
    assert "vetokensim.scenario" in loaded_by_cli_import
    assert loaded_by_cli_import.isdisjoint(f"vetokensim.{name}" for name in LATE_MODULES)
    assert loaded_by_cli_import.isdisjoint({"dataclasses", "inspect", "fractions"})


def test_importing_the_cli_loads_no_hashlib(loaded_by_cli_import):
    # only ``run`` hashes; ``_hashlib`` loads OpenSSL
    assert loaded_by_cli_import.isdisjoint({"hashlib", "_hashlib"})


def _package(modules: set[str]) -> set[str]:
    return {name for name in modules if name.partition(".")[0] == "vetokensim"}


@pytest.mark.parametrize("command", ["load_scenario", "validate", "scenarios"])
def test_loading_a_scenario_loads_only_the_parser(command, tmp_path):
    path = str(tmp_path / "s.json")
    Path(path).write_text(json.dumps(make_scenario()))
    code = {
        "load_scenario": f"vetokensim.cli.load_scenario({path!r})",  # the benchmark's set-up
        "validate": f"assert vetokensim.cli.main(['validate', {path!r}]) == 0",
        "scenarios": "assert vetokensim.cli.main(['scenarios']) == 0",
    }[command]
    assert _package(loaded_by(code)) == BASE


def _amounts_scenario(amount) -> dict:
    """One balance and one base lock of ``amount`` tokens each."""
    schedule = [{"epoch": 0, "kind": "base", "amount": amount, "weeks": 4}]
    return make_scenario(initial_balances=[["a", "CRV", amount]],
                         agents=[{"account": "a", "strategy": "PassiveLocker", "params": {"lock_schedule": schedule}}])


DECIMAL = {"decimal", "_decimal", "_pydecimal"}


@pytest.mark.parametrize("command", ["load_scenario", "validate"])
def test_integer_amounts_load_no_decimal(command, tmp_path):
    # an int amount is multiplied out in base units; only other amounts are read as a Decimal
    path = str(tmp_path / "s.json")
    Path(path).write_text(json.dumps(_amounts_scenario(100)))
    code = {
        "load_scenario": f"vetokensim.cli.load_scenario({path!r})",
        "validate": f"assert vetokensim.cli.main(['validate', {path!r}]) == 0",
    }[command]
    assert loaded_by(code).isdisjoint(DECIMAL)


def test_a_decimal_amount_loads_decimal_when_read(tmp_path):
    path = str(tmp_path / "s.json")
    Path(path).write_text(json.dumps(_amounts_scenario("1.5")))
    code = (
        "assert 'decimal' not in sys.modules\n"
        f"config = vetokensim.cli.load_scenario({path!r})\n"
        "assert config.initial_balances == (('a', 'CRV', 15 * 10**17),)\n"
        "assert config.agents[0].lock_schedule[0].amount == 15 * 10**17"
    )
    assert "decimal" in loaded_by(code)


def test_report_loads_no_protocol_or_loop_module(mature_trace, tmp_path):
    argv = ["report", mature_trace, "--metric", "share_table", "--out", str(tmp_path / "s.csv")]
    loaded = _package(loaded_by(f"assert vetokensim.cli.main({argv!r}) == 0"))
    assert loaded == BASE | {"vetokensim.trace", "vetokensim.metrics"}


def test_validating_a_scenario_file_loads_no_importlib_resources(tmp_path):
    # -S skips the site hooks, which may load importlib.resources themselves;
    # only a packaged scenario name needs the package data
    path = tmp_path / "s.json"
    path.write_text(json.dumps(make_scenario()))
    argv = ["validate", str(path)]
    code = f"assert vetokensim.cli.main({argv!r}) == 0\nassert 'importlib.resources' not in sys.modules"
    assert "vetokensim.scenario" in loaded_by(code, "-S")


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
    "negative budget": (
        _with_agent_params(budget_per_round=-1.0),
        f"{PARAMS}.budget_per_round: -1.0 is below the minimum of 0",
    ),
    "negative budget in list": (
        _with_agent_params(budget_per_round=[1, -1]),
        f"{PARAMS}.budget_per_round[1]: -1 is below the minimum of 0",
    ),
    "negative exogenous weight": (
        _with_agent_params(exogenous_weights={"0": -0.5}),
        f"{PARAMS}.exogenous_weights.0: -0.5 is below the minimum of 0",
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


def _with_balance(amount) -> dict:
    return make_scenario(initial_balances=[["a", "CRV", amount]])


def _allocator(*pairs) -> dict:
    """A FixedAllocator casting the ``[gauge, bps]`` pairs, with gauges 0 and 1."""
    return make_scenario(agents=[{"account": "a", "strategy": "FixedAllocator", "params": {"allocation": list(pairs)}}],
                         gauges=[{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in (0, 1)])


BALANCE = "scenario.initial_balances[0]"
DIGIT_LIMIT = sys.get_int_max_str_digits()


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
    "exogenous key with a leading zero": (
        # "00" would read as gauge 0 again, and one of the two weights would be lost
        _with_agent_params(exogenous_weights={"0": 0.5, "00": 0.7}),
        f"{PARAMS}.exogenous_weights.00: expected a gauge id, got '00'",
    ),
    "agent named after the protocol account": (
        _with_agent({"account": "agg", "strategy": "PassiveLocker"}),
        "scenario.agents[0].account: agg is the aggregator's protocol account",
    ),
    "agent named after the bribe escrow account": (
        _with_agent({"account": "bribe-market-escrow", "strategy": "PassiveLocker"}),
        "scenario.agents[0].account: bribe-market-escrow is the bribe escrow account",
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
    # a token amount is converted exactly, or refused
    "boolean amount": (_with_balance(True), f"{BALANCE}: unparseable token amount: True"),
    # Decimal alone would read these as 10, 1, 1 and 1 tokens
    "amount with a digit separator": (_with_balance("1_0"), f"{BALANCE}: unparseable token amount: '1_0'"),
    "amount with spaces": (_with_balance(" 1 "), f"{BALANCE}: unparseable token amount: ' 1 '"),
    "amount with a plus sign": (_with_balance("+1"), f"{BALANCE}: unparseable token amount: '+1'"),
    "amount in non-ASCII digits": (_with_balance("\u0661"), f"{BALANCE}: unparseable token amount: '\u0661'"),
    "amount with a far fractional digit": (_with_balance("1e-1000050"),
                                           f"{BALANCE}: '1e-1000050' has more than 18 fractional digits"),
    "amount past the decimal exponent range": (
        _with_balance("1e999990"), f"{BALANCE}: token amount of more than {DIGIT_LIMIT} digits in base units"),
    "amount past the int digit limit": (
        _with_balance("1" * (DIGIT_LIMIT - 10)),
        f"{BALANCE}: token amount of more than {DIGIT_LIMIT} digits in base units",
    ),
    # ``decide`` reads the allocation as a dict, so a second entry would drop the first
    "allocation naming a gauge twice": (_allocator([0, 5000], [0, 5000]),
                                        f"{PARAMS}.allocation[1]: duplicate gauge 0"),
    "allocation over 10000 bps": (_allocator([0, 6000], [1, 5000]), f"{PARAMS}.allocation: exceeds 10000 bps"),
    "escrow of an unknown token": (make_scenario(base_escrow={"token": "XYZ", "max_lock_weeks": 208}),
                                   "scenario.base_escrow.token: unknown token XYZ"),
    "aggregator of an unknown token": (
        make_scenario(aggregator={"protocol_account": "agg", "wrapper_token": "XYZ", "gov_token": "CVX"}),
        "scenario.aggregator.wrapper_token: unknown token",
    ),
    "empty price series": (_with_price_points([]), "scenario.price_series.CRV: needs at least one point"),
    "zero-amount extension past max_lock_weeks": (
        _with_agent_params(lock_schedule=[{"epoch": 0, "kind": "gov", "amount": 0, "weeks": 17}]),
        f"{PARAMS}.lock_schedule[0].weeks: extension 17 outside [0, 16]",
    ),
    "zero deposit": (_with_agent_params(lock_schedule=[{"epoch": 0, "kind": "deposit", "amount": 0}]),
                     f"{PARAMS}.lock_schedule[0].amount: deposits must be positive"),
    "unknown bribe token": (
        _with_agent({"account": "a", "strategy": "SelfPromoter", "params": {"own_gauges": [0], "bribe_token": "XYZ"}}),
        f"{PARAMS}.bribe_token: unknown token XYZ",
    ),
    "exogenous gauge id above the maximum": (_with_agent_params(exogenous_weights={"1": 1.0}),
                                             f"{PARAMS}.exogenous_weights.1: 1 is above the maximum of 0"),
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


# scenario overrides -> the error of a run whose summary a float cannot hold;
# every round's value is a float, the total of one account's rounds is not
SPEND_BEYOND_A_FLOAT = {
    "bribe": ({"agents": [{"account": "b", "strategy": "SelfPromoter",
                           "params": {"own_gauges": [0], "budget_per_round": 1e308}}],
               "initial_balances": [["b", "BRIBE-USD", 10**309]]},
              "trace: b in avenue bribe: spend total overflows a float"),
    # two base locks of 10**18 CRV at 1e290 USD each
    "direct-lock": ({**_locker("CRV", (0, "base", 10**18, 208), (1, "base", 10**18, 208)),
                     "price_series": {**make_scenario()["price_series"], "CRV": [[0, 1e290]]}},
                    "trace: u in avenue direct-lock: spend total overflows a float"),
}


class CountedRows:
    """Trace rows that count how often they are walked."""

    def __init__(self, rows):
        self.rows, self.walks = rows, 0

    def __iter__(self):
        self.walks += 1
        return iter(self.rows)


@pytest.fixture(scope="module")
def mature_run():
    """(config, in-memory trace) of paper-mature."""
    config = load_scenario("paper-mature")
    return config, run_scenario(config)


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

    def test_seed_override_equals_the_seed_in_the_file(self, capsys, tmp_path):
        # paper-bootstrap's followers add noise, so the seed changes the trace
        raw = json.loads((SRC / "vetokensim" / "scenarios" / "paper-bootstrap.json").read_text())
        path = tmp_path / "seed5.json"
        path.write_text(json.dumps(dict(raw, rng_seed=5)))
        runs = {
            "flag": ("paper-bootstrap", "--seed", "5"),
            "file": (str(path),),
            "default": ("paper-bootstrap",),
        }
        traces = {}
        for name, args in runs.items():
            out = tmp_path / name
            assert run_cli(capsys, "run", *args, "--out", str(out))[0] == 0
            traces[name] = (out / "trace.ndjson").read_bytes()
        assert traces["flag"] == traces["file"] != traces["default"]

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

    def test_summary_walks_the_trace_once(self, mature_run):
        config, trace = mature_run
        rows = CountedRows(trace.rows)
        assert cli._summarize(config, SimTrace(trace.header, rows)) == cli._summarize(config, trace)
        assert rows.walks == 1

    @staticmethod
    def _exits_two_before_the_trace(capsys, tmp_path, overrides: dict, problem: str, horizon: int = 3) -> None:
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(make_scenario(horizon_epochs=horizon, **overrides)))
        out = tmp_path / "out"
        code, _, err = run_cli(capsys, "run", str(path), "--out", str(out))
        assert (code, err) == (2, f"error: {problem}\n")
        assert not (out / "trace.ndjson").exists()
        assert not (out / "summary.json").exists()

    def test_minted_total_past_the_int_digit_limit_exits_two_before_the_trace(self, capsys, tmp_path):
        # each balance is DIGIT_LIMIT digits of base units, and their sum one more
        balance = ["a", "CRV", "9" * (DIGIT_LIMIT - 18)]
        self._exits_two_before_the_trace(capsys, tmp_path, {"initial_balances": [balance, balance]},
                                         f"the minted CRV total would have more than {DIGIT_LIMIT} digits")

    @pytest.mark.parametrize("case", sorted(USD_BEYOND_A_FLOAT))
    def test_usd_value_past_the_float_range_exits_two_before_the_trace(self, case, capsys, tmp_path):
        self._exits_two_before_the_trace(capsys, tmp_path, *USD_BEYOND_A_FLOAT[case])

    @pytest.mark.parametrize("case", sorted(LOCK_BEYOND_A_FLOAT))
    def test_lock_weight_past_the_float_range_exits_two_before_the_trace(self, case, capsys, tmp_path):
        self._exits_two_before_the_trace(capsys, tmp_path, *LOCK_BEYOND_A_FLOAT[case])

    @pytest.mark.parametrize("case", sorted(SPEND_BEYOND_A_FLOAT))
    def test_spend_total_past_the_float_range_exits_two_before_the_trace(self, case, capsys, tmp_path):
        self._exits_two_before_the_trace(capsys, tmp_path, *SPEND_BEYOND_A_FLOAT[case], horizon=5)


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
     ("snapshots --round 0..1", "--round does not apply to snapshots (epoch-keyed)"),
     ("share_table --actor b --avenue bribe", "--actor does not apply to share_table"),
     ("snapshots --avenue direct-lock", "--avenue does not apply to snapshots")],
)
def test_report_usage_is_checked_before_the_trace_is_read(args, message, capsys, tmp_path):
    missing = tmp_path / "missing.ndjson"
    result = run_cli(capsys, "report", str(missing), "--metric", *args.split(), "--out", str(tmp_path / "o.csv"))
    assert result == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("metric", list(cli.REPORTS))
def test_report_walks_the_trace_once(metric, mature_run):
    _, trace = mature_run
    _, source, _ = cli.REPORTS[metric]
    args = argparse.Namespace(actor="briber-frax", avenue="bribe")
    rows = CountedRows(trace.rows)
    assert source(SimTrace(trace.header, rows), args) == source(trace, args)
    assert rows.walks == 1


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


def test_consecutive_calls_share_no_parsed_state(mature_trace, capsys, tmp_path):
    """``main`` keeps its parser from call to call, but no call sees what another parsed."""
    out = tmp_path / "export.csv"

    def call(*argv, fresh=False):
        """(exit code, stdout, stderr, the file written or None), on a new parser if ``fresh``."""
        if fresh:
            cli._parser.cache_clear()
        out.unlink(missing_ok=True)
        result = run_cli(capsys, *argv)
        return (*result, out.read_text() if out.exists() else None)

    report = ("report", mature_trace, "--metric", "round_results", "--out", str(out))
    whole, first = call(*report, fresh=True), call(*report, "--round", "0..0", fresh=True)
    assert whole[0] == first[0] == 0 and whole[3] != first[3]
    assert call(*report, "--round", "0..0") == first
    assert call(*report) == whole  # the --round before is gone
    usage = call("report", mature_trace, "--metric", "nope", fresh=True)
    assert usage[0] == 1
    assert call("report", mature_trace, "--metric", "nope") == usage
    assert call(*report) == whole  # after a usage error, as after a fresh parser

    scenario, runs = tmp_path / "s.json", tmp_path / "runs"
    scenario.write_text(json.dumps(make_scenario(horizon_epochs=2)))

    def trace_of_run(name, *seed):
        assert main(["run", str(scenario), "--out", str(runs / name), *seed]) == 0
        return (runs / name / "trace.ndjson").read_text()

    seeded, unseeded = trace_of_run("seeded", "--seed", "5"), trace_of_run("unseeded")
    assert '"rng_seed":5' in seeded and '"rng_seed":7' in unseeded  # the scenario's own seed


@pytest.mark.parametrize(
    "bounds",
    ["1_0..20", " 1..2", "+1..2", "-1..2", "\u0661..\u0662",
     pytest.param(f"{LONG_DIGITS}..{LONG_DIGITS}", id="past the int digit limit")],
)
def test_round_bounds_take_only_ascii_digits(bounds, mature_trace, capsys, tmp_path):
    out = tmp_path / "export.csv"
    result = run_cli(capsys, "report", mature_trace, "--metric", "share_table", f"--round={bounds}", "--out", str(out))
    assert result == (1, "", f"error: --round expects A..B, got {bounds!r}\n")
    assert not out.exists()


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
     ("[1, 2]", "record is not a JSON object"),
     pytest.param('{"epoch": 1, "snapshot": {"emissions": {"0": %s}}}' % LONG_DIGITS,
                  f"an integer of more than {sys.get_int_max_str_digits()} digits\n",
                  id="integer past the digit limit")],
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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_scenario_nested_too_deeply_exits_one(command, capsys, tmp_path):
    path, out = tmp_path / "deep.json", tmp_path / "out"
    path.write_text(json.dumps(make_scenario(horizon_epochs=2))[:-1] + f', "notes": {DEEP}}}')
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert run_cli(capsys, *argv) == (1, "", f"error: {path}: JSON parse error: nested too deeply\n")
    assert not out.exists()


def _with_lock_entry(**entry) -> dict:
    return _with_agent_params(lock_schedule=[{"epoch": 0, "kind": "base", "amount": 1, "weeks": 4, **entry}])


# a scenario with one key no parser reads -> the path the error names
UNKNOWN_FIELDS = {
    "top level": (make_scenario(round_lenght=3), "scenario.round_lenght"),
    "nested": (
        make_scenario(gov_escrow={"token": "CVX", "max_lock_weeks": 16, "max_lock_week": 8}),
        "scenario.gov_escrow.max_lock_week",
    ),
    "params": (_with_agent_params(nois=0.5), f"{PARAMS}.nois"),
    "lock_schedule": (_with_lock_entry(week=4), f"{PARAMS}.lock_schedule[0].week"),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", list(UNKNOWN_FIELDS))
def test_unknown_scenario_field_exits_one(case, command, capsys, tmp_path):
    raw, where = UNKNOWN_FIELDS[case]
    path, out = tmp_path / "s.json", tmp_path / "out"
    path.write_text(json.dumps(raw))
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert run_cli(capsys, *argv) == (1, "", f"error: {where}: unknown field\n")
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


@pytest.mark.parametrize("command", ["validate", "run"])
def test_missing_scenario_exits_one(command, capsys, tmp_path):
    path, out = tmp_path / "missing.json", tmp_path / "out"
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert run_cli(capsys, *argv) == (1, "", f"error: no scenario file or packaged scenario named {str(path)!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["validate", "run"])
def test_directory_as_scenario_exits_one(command, capsys, tmp_path):
    path, out = tmp_path / "scenarios", tmp_path / "out"
    path.mkdir()
    argv = [command, str(path)] + (["--out", str(out)] if command == "run" else [])
    assert run_cli(capsys, *argv) == (1, "", f"error: {path}: cannot read: {os.strerror(errno.EISDIR)}\n")
    assert not out.exists()


@pytest.mark.parametrize("kind, reason", [("missing", errno.ENOENT), ("directory", errno.EISDIR)])
def test_unreadable_trace_exits_one(kind, reason, capsys, tmp_path):
    path, out = tmp_path / "trace.ndjson", tmp_path / "p.csv"
    if kind == "directory":
        path.mkdir()
    code, stdout, err = run_cli(capsys, "report", str(path), "--metric", "participation", "--out", str(out))
    assert (code, stdout, err) == (1, "", f"error: {path}: cannot read: {os.strerror(reason)}\n")
    assert not out.exists()


def test_unwritable_out_still_exits_two(mature_trace, capsys, tmp_path):
    scenario, taken = tmp_path / "s.json", tmp_path / "taken"
    scenario.write_text(json.dumps(make_scenario(horizon_epochs=2)))
    taken.write_text("")  # a file where ``run`` must make a folder
    code, _, err = run_cli(capsys, "run", str(scenario), "--out", str(taken))
    assert (code, err) == (2, f"error: [Errno {errno.EEXIST}] {os.strerror(errno.EEXIST)}: {str(taken)!r}\n")
    folder = tmp_path / "folder"
    folder.mkdir()  # a folder where ``report`` must write a file
    code, _, err = run_cli(capsys, "report", mature_trace, "--metric", "participation", "--out", str(folder))
    assert (code, err) == (2, f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(folder)!r}\n")


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
    "gauge id past the int digit limit": (
        {"epoch": 3, "snapshot": {"relative_weights": {LONG_DIGITS: "1"}}}, "snapshots",
        f"epoch 3: snapshot.relative_weights.{LONG_DIGITS}: expected a gauge id, got '{LONG_DIGITS}'",
    ),
    "ratio past the int digit limit": ({"epoch": 3, "snapshot": {"relative_weights": {"0": LONG_DIGITS + "/3"}}},
                                       "snapshots", f"epoch 3: snapshot.relative_weights.0: {RATIO} '{LONG_DIGITS}/3'"),
    "word gauge id in a snapshot": ({"epoch": 3, "snapshot": {"relative_weights": {"x": "1"}}}, "snapshots",
                                    "epoch 3: snapshot.relative_weights.x: expected a gauge id, got 'x'"),
    "gauge id with a leading zero": (
        # "07" would read as gauge 7 again, and its bribe would be lost from the share table
        {"epoch": 4, "settlement": {"round": 1, "gauges": {"7": {"bribe_usd": 1.0}, "07": {"bribe_usd": 3.0}}},
         "round_finalized": {"round": 1, "tally": {"7": "1"}}},
        "share_table",
        "epoch 4: settlement.gauges.07: expected a gauge id, got '07'",
    ),
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
