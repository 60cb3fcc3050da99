"""The packaged scenarios write their pinned bytes under every other CPython
that ``requires-python`` admits and that this machine has: each one found, in
pyenv's ``versions`` folder or as ``python3.1x`` on ``PATH``, runs
``python -m vetokensim.cli run`` in a subprocess, with the standard library
only, and its trace, ``summary.json`` and stdout digests must equal the pins
in ``test_golden``.  Each one then runs ``report`` on its own paper-mature
trace, which goes through the trace reader's ``json.scanner`` path, and the
exports must equal the pinned in-process ones.  Each one also runs a small
randomized scenario from a file, which reaches the equilibrium kernel and the
settlement with other inputs than the packaged ones, and ``_direct_lockers_scenario``
from a file, whose rows the writer mostly takes from the row before through
the ``json`` C encoder it builds with ``c_make_encoder``, which is not public
API.  The test skips when no other interpreter is found."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from test_acceptance import _randomized_scenario
from test_golden import (DIRECT_LOCKERS_GOLDEN, EXPORT_GOLDEN, GOLDEN, STDOUT_GOLDEN, SUMMARY_GOLDEN,
                         _direct_lockers_scenario, file_digest)

SRC = Path(__file__).resolve().parents[1] / "src"
OLDEST = (3, 10, 7)  # the first CPython with ``sys.get_int_max_str_digits``
REPORTED = ("participation", "round_results", "settlements", "snapshots")  # on the paper-mature trace
# ``_randomized_scenario(horizon=80, seed=2)``: its trace and ``summary.json`` digests, made under 3.11
RANDOMIZED_80_GOLDEN = ("a839217b6ee8e0d9", "39ea581f64c7696d")
PROBE = "import platform, sys; print(platform.python_implementation(), *sys.version_info[:3], sys.executable)"


def _candidates():
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    yield from sorted(pyenv.glob("versions/*/bin/python"))
    for folder in os.environ.get("PATH", "").split(os.pathsep):
        for minor in range(10, 20):
            path = Path(folder or ".") / f"python3.{minor}"
            if path.is_file() and os.access(path, os.X_OK):
                yield path


def other_interpreters() -> dict[str, str]:
    """Each other CPython >= ``OLDEST`` found, as {real executable: version}."""
    found = {}
    this = os.path.realpath(sys.executable)
    for candidate in _candidates():
        try:
            probe = subprocess.run([str(candidate), "-c", PROBE], capture_output=True, text=True, timeout=60)
        except (OSError, subprocess.TimeoutExpired):
            continue
        fields = probe.stdout.strip().split(maxsplit=4)
        if probe.returncode != 0 or len(fields) != 5 or fields[0] != "CPython":
            continue
        version = tuple(map(int, fields[1:4]))
        executable = os.path.realpath(fields[4])
        if version >= OLDEST and executable != this:
            found.setdefault(executable, ".".join(fields[1:4]))
    return found


def test_packaged_scenarios_keep_their_bytes_on_other_interpreters(tmp_path):
    interpreters = other_interpreters()
    print(f"\n{len(interpreters)} other interpreter(s): {', '.join(sorted(interpreters.values())) or 'none'}")
    if not interpreters:
        pytest.skip("no other CPython >= 3.10.7 found")
    env = {**os.environ, "PYTHONPATH": str(SRC)}

    def cli(executable, version, *argv) -> str:
        run = subprocess.run([executable, "-m", "vetokensim.cli", *argv],
                             capture_output=True, text=True, env=env, timeout=300)
        assert run.returncode == 0, f"{version} {argv}: {run.stderr}"
        return run.stdout

    randomized = tmp_path / "randomized-80.json"
    randomized.write_text(json.dumps(_randomized_scenario(horizon=80, seed=2)))
    lockers = tmp_path / "direct-lockers.json"
    lockers.write_text(json.dumps(_direct_lockers_scenario()))
    digests = {}
    for executable, version in sorted(interpreters.items()):
        out = tmp_path / version / "randomized-80"
        cli(executable, version, "run", str(randomized), "--out", str(out))
        digests[version, "randomized-80"] = (file_digest(out / "trace.ndjson"), file_digest(out / "summary.json"))
        out = tmp_path / version / "direct-lockers"
        stdout = cli(executable, version, "run", str(lockers), "--out", str(out)).replace(str(out), "OUT")
        digests[version, "direct-lockers"] = (file_digest(out / "trace.ndjson"), file_digest(out / "summary.json"),
                                              hashlib.sha256(stdout.encode()).hexdigest()[:16])
        for name in sorted(GOLDEN):
            out = tmp_path / version / name
            stdout = cli(executable, version, "run", name, "--out", str(out)).replace(str(out), "OUT")
            digests[version, name] = (file_digest(out / "trace.ndjson"), file_digest(out / "summary.json"),
                                      hashlib.sha256(stdout.encode()).hexdigest()[:16])
        mature = tmp_path / version / "paper-mature"
        for metric in REPORTED:
            export = mature / f"{metric}.csv"
            cli(executable, version, "report", str(mature / "trace.ndjson"), "--metric", metric, "--out", str(export))
            digests[version, metric] = file_digest(export)
    assert digests == {
        **{(version, name): (GOLDEN[name], SUMMARY_GOLDEN[name], STDOUT_GOLDEN[name])
           for version in interpreters.values() for name in GOLDEN},
        **{(version, metric): EXPORT_GOLDEN["paper-mature", metric, "csv"]
           for version in interpreters.values() for metric in REPORTED},
        **{(version, "randomized-80"): RANDOMIZED_80_GOLDEN for version in interpreters.values()},
        **{(version, "direct-lockers"): DIRECT_LOCKERS_GOLDEN for version in interpreters.values()},
    }
