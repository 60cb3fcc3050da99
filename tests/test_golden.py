"""Golden digests: the first 16 hex digits of the sha256 of the
``write_ndjson`` bytes, of ``summary.json`` and of ``report`` exports.  A
change that alters any trace or export byte fails here, even when every run
still agrees with itself."""

import contextlib
import hashlib
import io
import json
import random

import pytest

from vetokensim.cli import main
from vetokensim.scenario import load_scenario, scenario_from_dict
from vetokensim.sim import run_scenario

from conftest import make_scenario

GOLDEN = {
    "paper-mature": "6a78d72a89f10d40",
    "paper-bootstrap": "8b04407ed8414f92",
    "frax-three-avenues": "3ba79e9b9991a38c",
}


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def trace_digest(trace, tmp_path) -> str:
    path = tmp_path / "trace.ndjson"
    trace.write_ndjson(str(path))
    return file_digest(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_packaged_scenario_digest(name, tmp_path):
    assert trace_digest(run_scenario(load_scenario(name)), tmp_path) == GOLDEN[name]


def test_randomized_1000_digest(randomized_1000, tmp_path):
    assert trace_digest(randomized_1000[1], tmp_path) == "fc6bec74dcdcf34b"


# Export digests, pinned the same way: (scenario, ``report`` arguments after
# ``--metric``, format) -> digest of the written file.
EXPORT_GOLDEN = {
    ("paper-mature", "participation", "csv"): "0fc8999a4705c09f",
    ("paper-mature", "participation", "json"): "1389786c0580c6af",
    ("paper-mature", "share_table", "csv"): "3fc81f3b6e2851b8",
    ("paper-mature", "share_table", "json"): "da20e3354bda010c",
    ("paper-mature", "pearson", "csv"): "95a020334a71c36c",
    ("paper-mature", "pearson", "json"): "3669f618704e93ec",
    ("paper-mature", "outliers", "csv"): "22ba71efb8b65318",
    ("paper-mature", "outliers", "json"): "a3a44060513eac81",
    ("paper-mature", "diff_matrix", "csv"): "1352b2236df6338d",
    ("paper-mature", "diff_matrix", "json"): "3c3f07d4252e4636",
    ("paper-mature", "snapshots", "csv"): "9c82df2008980f9a",
    ("paper-mature", "snapshots", "json"): "e40adb16a0e55b45",
    ("paper-mature", "round_results", "csv"): "59e23542fbcbb80a",
    ("paper-mature", "round_results", "json"): "8ef53e903c17f55a",
    ("paper-mature", "settlements", "csv"): "81e2eeabedf86e31",
    ("paper-mature", "settlements", "json"): "700e6ec30633ad6c",
    ("paper-mature", "share_table --round 0..3", "csv"): "1a3b04339f49c114",
    ("paper-mature", "share_table --round 0..3", "json"): "64e419b5adc227ca",
    ("paper-mature", "round_results --round 0..3", "csv"): "58ac7fb948c883e0",
    ("paper-mature", "round_results --round 0..3", "json"): "ae71c11fdb472b99",
    ("paper-mature", "settlements --round 0..3", "csv"): "787ee3030814bf8e",
    ("paper-mature", "settlements --round 0..3", "json"): "ce5873c9a2af5530",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue direct-lock", "csv"): "af2a42da837d314b",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue direct-lock", "json"): "347ddb7ea8640143",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue aggregator-lock", "csv"): "43cfe205abba295b",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue aggregator-lock", "json"): "0b19dee09ff7308e",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue bribe", "csv"): "f783bc71a7fd0489",
    ("frax-three-avenues", "cost_per_vote --actor frax --avenue bribe", "json"): "515bf1d248fe273d",
}

SUMMARY_GOLDEN = {
    "paper-mature": "4477d1ac1be80e63",
    "paper-bootstrap": "a5eac022273bb3db",
    "frax-three-avenues": "f8a286792a526cee",
}

# Digest of ``vetokensim run`` stdout, with the output directory written as
# OUT: it pins every printed line, the account order of the cost-per-vote
# lines included.
STDOUT_GOLDEN = {
    "paper-mature": "ed7f44a96afc2bcb",
    "paper-bootstrap": "20afc171839bb008",
    "frax-three-avenues": "8228ea28a24bb6a2",
}


def run_cli(scenario, out_dir) -> str:
    """Run ``vetokensim run`` and return its stdout with ``out_dir`` as OUT."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        assert main(["run", str(scenario), "--out", str(out_dir)]) == 0
    return stdout.getvalue().replace(str(out_dir), "OUT")


@pytest.fixture(scope="module")
def run_dirs(tmp_path_factory):
    """``vetokensim run`` output directory per packaged scenario, run once;
    each directory also keeps the run's stdout as ``stdout.txt``."""
    root = tmp_path_factory.mktemp("runs")
    for name in SUMMARY_GOLDEN:
        stdout = run_cli(name, root / name)
        (root / name / "stdout.txt").write_text(stdout)
    return root


@pytest.mark.parametrize("name", sorted(SUMMARY_GOLDEN))
def test_summary_digest(name, run_dirs):
    assert file_digest(run_dirs / name / "summary.json") == SUMMARY_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(STDOUT_GOLDEN))
def test_run_stdout_digest(name, run_dirs):
    assert file_digest(run_dirs / name / "stdout.txt") == STDOUT_GOLDEN[name]


def run_digests(raw: dict, tmp_path) -> tuple[str, str]:
    """Digests of ``summary.json`` and of stdout for ``vetokensim run`` of ``raw``."""
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(raw))
    stdout = run_cli(scenario, tmp_path / "out")
    return file_digest(tmp_path / "out" / "summary.json"), hashlib.sha256(stdout.encode()).hexdigest()[:16]


def test_randomized_1000_run_digests(randomized_run):
    # randomized-1000 has 24 accounts, with costs per vote in all three avenues
    out = randomized_run.out_dir
    stdout = randomized_run.stdout.replace(str(out), "OUT")
    assert file_digest(out / "summary.json") == "6ad710951299c72e"
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == "4aa08564955bd28c"


# cost_per_vote CSV for one paying account per avenue on the randomized-1000 trace
RANDOMIZED_COST_GOLDEN = {
    ("passive-0", "direct-lock"): "88049d99c1d43200",
    ("fixed-0", "aggregator-lock"): "f42afdd083f5ef81",
    ("promo-0", "bribe"): "d1fc52b40f48e0f1",
}


@pytest.mark.parametrize("case", sorted(RANDOMIZED_COST_GOLDEN), ids=" ".join)
def test_randomized_1000_cost_per_vote_digest(case, randomized_run, tmp_path):
    actor, avenue = case
    out = tmp_path / "cost.csv"
    trace = str(randomized_run.out_dir / "trace.ndjson")
    assert main(["report", trace, "--metric", "cost_per_vote", "--actor", actor, "--avenue", avenue,
                 "--out", str(out)]) == 0
    assert file_digest(out) == RANDOMIZED_COST_GOLDEN[case]


def _direct_lockers_scenario(lockers=48, horizon=24, seed=2024) -> dict:
    """Accounts that only lock in the base escrow, most of them voting their
    base weight on their own gauges every epoch (zero-budget SelfPromoters)
    and relocking from time to time; the last two never vote."""
    rng = random.Random(seed)
    agents, balances = [], []
    for i in range(lockers):
        account = f"locker-{i:02d}"
        start = rng.randint(0, 3)
        schedule = [{"epoch": start, "kind": "base", "amount": rng.randint(100, 10000),
                     "weeks": rng.randint(26, 208)}]
        epoch = start + rng.randint(3, 9)
        while epoch < horizon:
            top_up = rng.randint(1, 2000) if rng.random() < 0.5 else 0
            schedule.append({"epoch": epoch, "kind": "base", "amount": top_up, "weeks": rng.randint(52, 208)})
            epoch += rng.randint(3, 9)
        strategy, params = "SelfPromoter", {"own_gauges": sorted(rng.sample(range(4), rng.randint(1, 2)))}
        if i >= lockers - 2:
            strategy, params = "PassiveLocker", {}
        agents.append({"account": account, "strategy": strategy, "params": {**params, "lock_schedule": schedule}})
        balances.append([account, "CRV", sum(entry["amount"] for entry in schedule)])
    raw = make_scenario(
        name="direct-lockers",
        horizon_epochs=horizon,
        rng_seed=seed,
        initial_balances=balances,
        gauges=[{"name": f"pool-{g}", "lp_accounts": [[f"lp-{g}", 10000]]} for g in range(4)],
        emission_schedule=[{"start": 0, "end": horizon, "per_week": 1000}],
        agents=agents,
    )
    raw["price_series"]["CRV"] = [[0, 1.25], [horizon // 2, 0.8]]
    return raw


# ``_direct_lockers_scenario()``: its trace, ``summary.json`` and stdout digests
DIRECT_LOCKERS_GOLDEN = ("86762be49b8e8bfc", "06bf4821acb57a28", "6d2bd22e48c554a2")


def test_direct_lockers_run_digests(tmp_path):
    # the summary's direct-lock fold over many accounts with changing weights
    assert run_digests(_direct_lockers_scenario(), tmp_path) == DIRECT_LOCKERS_GOLDEN[1:]


def test_direct_lockers_trace_digest(tmp_path):
    # base votes that mostly repeat from row to row, at many accounts
    trace = run_scenario(scenario_from_dict(_direct_lockers_scenario()))
    assert trace_digest(trace, tmp_path) == DIRECT_LOCKERS_GOLDEN[0]


def _exogenous_followers_scenario() -> dict:
    """Equilibrium followers that each see their own exogenous weight on four
    bribed gauges: one leaves a congested gauge unsupported, one crowds a
    single gauge, and one carries only zero weights, which count as none."""
    horizon = 10

    def follower(account, amount, exogenous):
        return {"account": account, "strategy": "BribeFollowerEquilibrium",
                "params": {"lock_schedule": [{"epoch": 0, "kind": "gov", "amount": amount, "weeks": 16}],
                           "exogenous_weights": exogenous}}

    agents = [
        follower("equil-a", 3000, {"0": 500.0, "1": 0.0, "2": 2500.0}),
        follower("equil-b", 1200, {"3": 40.5}),
        follower("equil-c", 700, {"0": 0.0, "1": 0.0}),
        {"account": "briber-0", "strategy": "SelfPromoter",
         "params": {"own_gauges": [0, 1], "budget_per_round": [30, 10, 45, 20, 5, 60]}},
        {"account": "briber-1", "strategy": "SelfPromoter",
         "params": {"own_gauges": [2, 3], "budget_per_round": [12, 70, 25, 33, 50, 1]}},
        {"account": "depositor", "strategy": "PassiveLocker",
         "params": {"lock_schedule": [{"epoch": 0, "kind": "deposit", "amount": 5000}]}},
    ]
    balances = [[a["account"], "CVX", 5000] for a in agents[:3]]
    balances += [["briber-0", "BRIBE-USD", 170], ["briber-1", "BRIBE-USD", 191], ["depositor", "CRV", 5000]]
    return make_scenario(
        name="exogenous-followers",
        horizon_epochs=horizon,
        initial_balances=balances,
        gauges=[{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in range(4)],
        emission_schedule=[{"start": 0, "end": horizon, "per_week": 1000}],
        agents=agents,
    )


def test_exogenous_followers_digest(tmp_path):
    # the only golden trace whose equilibrium followers carry exogenous weight
    config = scenario_from_dict(_exogenous_followers_scenario())
    # the parser refuses a negative weight, which the kernel counts as none;
    # set one on the parsed config, so the run still pins that
    equil_c = next(spec for spec in config.agents if spec.account == "equil-c")
    equil_c.exogenous_weights = ((0, -5.0), (1, 0.0))
    assert trace_digest(run_scenario(config), tmp_path) == "575f896ae0f651ca"


@pytest.mark.parametrize("case", sorted(EXPORT_GOLDEN), ids=" ".join)
def test_report_export_digest(case, run_dirs, tmp_path):
    scenario, metric_args, fmt = case
    out = tmp_path / f"export.{fmt}"
    trace = str(run_dirs / scenario / "trace.ndjson")
    argv = ["report", trace, "--metric", *metric_args.split(), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert file_digest(out) == EXPORT_GOLDEN[case]
