"""Golden trace digests: the first 16 hex digits of the sha256 of the
``write_ndjson`` bytes.  A change that alters any trace byte fails here, even
when every run still agrees with itself."""

import hashlib

import pytest

from vetokensim.sim import load_scenario, run_scenario

from test_acceptance import _randomized_config

GOLDEN = {
    "paper-mature": "6a78d72a89f10d40",
    "paper-bootstrap": "8b04407ed8414f92",
    "frax-three-avenues": "3ba79e9b9991a38c",
}


def trace_digest(config, tmp_path) -> str:
    path = tmp_path / "trace.ndjson"
    run_scenario(config).write_ndjson(str(path))
    return hashlib.sha256(path.read_bytes()).hexdigest()[:16]


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_packaged_scenario_digest(name, tmp_path):
    assert trace_digest(load_scenario(name), tmp_path) == GOLDEN[name]


def test_randomized_1000_digest(tmp_path):
    assert trace_digest(_randomized_config(), tmp_path) == "fc6bec74dcdcf34b"
