"""Golden digests: the first 16 hex digits of the sha256 of the
``write_ndjson`` bytes, of ``summary.json`` and of ``report`` exports.  A
change that alters any trace or export byte fails here, even when every run
still agrees with itself."""

import contextlib
import hashlib
import io
import json

import pytest

from vetokensim.cli import main
from vetokensim.sim import load_scenario, run_scenario

from test_acceptance import _randomized_config, _randomized_scenario

GOLDEN = {
    "paper-mature": "6a78d72a89f10d40",
    "paper-bootstrap": "8b04407ed8414f92",
    "frax-three-avenues": "3ba79e9b9991a38c",
}


def file_digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


def trace_digest(config, tmp_path) -> str:
    path = tmp_path / "trace.ndjson"
    run_scenario(config).write_ndjson(str(path))
    return file_digest(path)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_packaged_scenario_digest(name, tmp_path):
    assert trace_digest(load_scenario(name), tmp_path) == GOLDEN[name]


def test_randomized_1000_digest(tmp_path):
    assert trace_digest(_randomized_config(), tmp_path) == "fc6bec74dcdcf34b"


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


def test_randomized_1000_run_digests(tmp_path):
    # 24 accounts, with costs per vote in all three avenues
    scenario = tmp_path / "randomized.json"
    scenario.write_text(json.dumps(_randomized_scenario()))
    stdout = run_cli(scenario, tmp_path / "out")
    assert file_digest(tmp_path / "out" / "summary.json") == "6ad710951299c72e"
    assert hashlib.sha256(stdout.encode()).hexdigest()[:16] == "4aa08564955bd28c"


@pytest.mark.parametrize("case", sorted(EXPORT_GOLDEN), ids=" ".join)
def test_report_export_digest(case, run_dirs, tmp_path):
    scenario, metric_args, fmt = case
    out = tmp_path / f"export.{fmt}"
    trace = str(run_dirs / scenario / "trace.ndjson")
    argv = ["report", trace, "--metric", *metric_args.split(), "--out", str(out), "--format", fmt]
    assert main(argv) == 0
    assert file_digest(out) == EXPORT_GOLDEN[case]
