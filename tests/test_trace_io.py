"""The ndjson trace reader: ``report`` on a trace read back from its file gives
the bytes it gives on the in-memory trace, parses one row at a time, and names
the line of a bad record or a misplaced header."""

import argparse
import json
import re
import tracemalloc
from pathlib import Path

import pytest

from vetokensim import metrics
from vetokensim.cli import REPORTS, main
from vetokensim.errors import ScenarioError, VeTokenSimError
from vetokensim.scenario import load_scenario, packaged_scenarios
from vetokensim.sim import run_scenario
from vetokensim.trace import SimTrace

from test_metrics import epoch_row, final_cost_per_vote, finalized
from test_mutation import REPORT_ARGS  # every --metric, with frax active in each avenue


@pytest.fixture(scope="module")
def written(tmp_path_factory, randomized_1000):
    """name -> (config, in-memory trace, path of its ndjson file), for every
    packaged scenario and randomized-1000."""
    work = tmp_path_factory.mktemp("traces")
    configs = {name: load_scenario(name) for name in packaged_scenarios()}
    runs = {name: (config, run_scenario(config)) for name, config in configs.items()}
    runs["randomized-1000"] = randomized_1000
    out = {}
    for name, (config, trace) in runs.items():
        path = work / f"{name}.ndjson"
        trace.write_ndjson(str(path))
        out[name] = (config, trace, str(path))
    return out


def _report_args(config, trace) -> list[list[str]]:
    """Every --metric, and cost_per_vote for the first account that paid in each avenue."""
    args = [[metric] for metric in REPORTS if metric != "cost_per_vote"]
    accounts = [spec.account for spec in config.agents]
    for avenue in metrics.AVENUES:
        paid = sorted(final_cost_per_vote(trace, avenue, accounts))
        if paid:
            args.append(["cost_per_vote", "--actor", paid[0], "--avenue", avenue])
    return args


def _in_memory_report(trace, argv, out) -> str | None:
    """What ``report`` would write for ``argv`` from the in-memory trace: None
    after writing the export, else the error message."""
    metric, options = argv[0], dict(zip(argv[1::2], argv[2::2]))
    _, source, derive = REPORTS[metric]
    try:
        table = source(trace, argparse.Namespace(actor=options.get("--actor"), avenue=options.get("--avenue")))
        metrics.export(derive(table) if derive else table, "csv", str(out))
    except VeTokenSimError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("name", sorted(packaged_scenarios()) + ["randomized-1000"])
def test_report_from_file_matches_in_memory(name, written, tmp_path, capsys):
    config, trace, path = written[name]
    for argv in _report_args(config, trace):
        expected, got = tmp_path / "memory.csv", tmp_path / "file.csv"
        error = _in_memory_report(trace, argv, expected)
        code = main(["report", path, "--metric", *argv, "--out", str(got)])
        err = capsys.readouterr().err
        if error is None:
            assert code == 0, (argv, err)
            assert got.read_bytes() == expected.read_bytes(), argv
        else:
            assert (code, err) == (2, f"error: {error}\n"), argv
            assert not got.exists(), argv
        for export in (expected, got):
            export.unlink(missing_ok=True)


def test_streamed_settlements_hold_one_row(written):
    _, _, path = written["randomized-1000"]
    tracemalloc.start()
    try:
        table = metrics.settlements(SimTrace.read_ndjson(path))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.rows
    # every row held at once would be about 37 MB
    assert peak < 4 * 2**20, f"peak {peak / 2**20:.2f} MB"


def _lines(written) -> list[str]:
    _, _, path = written["paper-mature"]
    return Path(path).read_text(encoding="utf-8").splitlines()


# trace file -> (line named in the error, its problem)
HEADER_CASES = {
    "empty file": (lambda header, rows: [], 1, "expected the trace header record"),
    "no header": (lambda header, rows: rows, 1, "expected the trace header record"),
    "header on line 2": (lambda header, rows: [rows[0], header] + rows[1:], 1, "expected the trace header record"),
    "blank line before the header": (lambda header, rows: ["", header] + rows, 1,
                                     "expected the trace header record"),
    "second header on line 5": (lambda header, rows: [header] + rows[:3] + [header] + rows[3:], 5,
                                "a second header record"),
}


@pytest.mark.parametrize("case", sorted(HEADER_CASES))
def test_misplaced_header_exits_one(case, written, tmp_path, capsys):
    build, lineno, problem = HEADER_CASES[case]
    header, *rows = _lines(written)
    path, out = tmp_path / "trace.ndjson", tmp_path / "export.csv"
    path.write_text("".join(line + "\n" for line in build(header, rows)))
    assert main(["report", str(path), "--metric", "participation", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {path}:{lineno}: {problem}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", REPORT_ARGS, ids=" ".join)
def test_malformed_last_line_exits_one_and_writes_nothing(argv, written, tmp_path, capsys):
    _, _, source = written["frax-three-avenues"]
    lines = Path(source).read_text(encoding="utf-8").splitlines()
    path, out = tmp_path / "trace.ndjson", tmp_path / "export.csv"
    path.write_text("\n".join(lines[:-1] + ['{"epoch": ']) + "\n")
    assert main(["report", str(path), "--metric", *argv, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}:{len(lines)}: invalid JSON: ")
    assert not out.exists()


def test_rows_are_parsed_as_the_pass_reaches_them(written, tmp_path):
    header, *rows = _lines(written)
    path = tmp_path / "trace.ndjson"
    path.write_text(f"{header}\n{rows[0]}\n{{not json\n")
    trace = SimTrace.read_ndjson(str(path))  # reads line 1 only
    assert trace.header == {key: value for key, value in json.loads(header).items() if key != "type"}
    seen = []
    with pytest.raises(ScenarioError, match=re.escape(f"{path}:3: invalid JSON")):
        for row in trace:
            seen.append(row)
    assert seen == [json.loads(rows[0])]


def _with(line: str, **changes) -> str:
    """A trace line with ``changes`` made to its record."""
    return json.dumps({**json.loads(line), **changes})


# a paper-mature trace (53 rows) changed by ``build(header, rows)`` -> (line
# named in the error, or None for the end of the file, and the problem)
STRICT_CASES = {
    "format version 99": (lambda header, rows: [_with(header, format_version=99)] + rows, 1,
                          "format_version: expected format version 1, got 99"),
    "format version '1'": (lambda header, rows: [_with(header, format_version="1")] + rows, 1,
                           "format_version: expected format version 1, got '1'"),
    "no horizon": (lambda header, rows: [_with(header, horizon_epochs=None)] + rows, 1,
                   "horizon_epochs: expected an integer, got None"),
    "row 9 repeated": (lambda header, rows: [header] + rows[:10] + [rows[9]] + rows[10:], 12,
                       "a second row for epoch 9"),
    "row 5 left out": (lambda header, rows: [header] + rows[:5] + rows[6:], 7,
                       "no row for epoch 5: the next row is epoch 6"),
    "cut to 39 rows": (lambda header, rows: [header] + rows[:39], None,
                       "no row for epoch 39: the trace ends before horizon_epochs 53"),
    "one row past the horizon": (lambda header, rows: [_with(header, horizon_epochs=52)] + rows, 54,
                                 "epoch 52 is past horizon_epochs 52"),
    "epoch not an integer": (lambda header, rows: [header, rows[0], _with(rows[1], epoch="1")] + rows[2:], 3,
                             "epoch: expected epoch 1, got '1'"),
}


@pytest.mark.parametrize("case", sorted(STRICT_CASES))
def test_trace_the_writer_cannot_produce_exits_one(case, written, tmp_path, capsys):
    build, lineno, problem = STRICT_CASES[case]
    header, *rows = _lines(written)
    path, out = tmp_path / "trace.ndjson", tmp_path / "export.csv"
    path.write_text("".join(line + "\n" for line in build(header, rows)))
    assert main(["report", str(path), "--metric", "participation", "--out", str(out)]) == 1
    where = f"{path}:{lineno}" if lineno else f"{path}"
    assert capsys.readouterr().err == f"error: {where}: {problem}\n"
    assert not out.exists()


def test_bribe_totals_do_not_depend_on_the_key_order(tmp_path):
    # in memory the gauges come in id order (2, 10, 11); the file sorts their
    # keys as strings ("10", "11", "2"), and 0.1 + 0.2 + 0.3 != 0.2 + 0.3 + 0.1
    gauges = {g: {"bribe_usd": usd, "briber_usd": {"b": usd}, "vote_weight": "1", "usd_per_vote": usd}
              for g, usd in (("2", 0.1), ("10", 0.2), ("11", 0.3))}
    row = epoch_row(0, settlement={"round": 0, "close_epoch": 2, "gauges": gauges},
                    round_finalized=finalized(0, {"2": "1", "10": "1", "11": "1"}))
    in_memory = SimTrace({"format_version": 1, "horizon_epochs": 1, "protocol_account": "agg"}, [row])
    path = tmp_path / "trace.ndjson"
    in_memory.write_ndjson(str(path))
    from_file = SimTrace.read_ndjson(str(path))
    assert list(from_file) == [row]
    assert metrics.share_table(from_file) == metrics.share_table(in_memory)
    totals = []
    for trace in (in_memory, from_file):
        cost = metrics.CostFold(trace.header, "bribe", ["b"])
        metrics.fold(trace, cost)
        totals.append(cost.totals("b"))
    assert totals[0] == totals[1]
