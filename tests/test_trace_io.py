"""The ndjson trace reader: ``report`` on a trace read back from its file gives
the bytes it gives on the in-memory trace, parses one row at a time, and names
the line of a bad record or a misplaced header."""

import argparse
import copy
import json
import os
import re
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim import metrics
from vetokensim import trace as trace_module
from vetokensim.cli import REPORTS, main
from vetokensim.errors import ScenarioError, VeTokenSimError
from vetokensim.ledger import canonical_json
from vetokensim.scenario import load_scenario, packaged_scenarios, scenario_from_dict
from vetokensim.sim import run_scenario
from vetokensim.trace import SimTrace, _ndjson_record, _row_record

from conftest import DEEP, LONG_DIGITS, make_scenario
from test_metrics import epoch_row, final_cost_per_vote, finalized
from test_mutation import REPORT_ARGS  # every --metric, with frax active in each avenue


def _lockers() -> dict:
    """Three base-tier lockers who re-cast the same ballot every epoch, so each
    row's leading values (``actions``, ``base_votes``, the event lists) mostly
    repeat the row before."""
    agents = [{"account": f"locker-{i}", "strategy": "SelfPromoter",
               "params": {"own_gauges": [i % 2], "lock_schedule": [
                   {"epoch": 0, "kind": "base", "amount": 100 * (i + 1), "weeks": 52},
                   {"epoch": 6 + i, "kind": "base", "amount": 50, "weeks": 104}]}} for i in range(3)]
    return make_scenario(horizon_epochs=12, agents=agents,
                         initial_balances=[[agent["account"], "CRV", 1000] for agent in agents],
                         gauges=[{"name": f"g{g}", "lp_accounts": [[f"lp{g}", 10000]]} for g in range(2)],
                         emission_schedule=[{"start": 0, "end": 12, "per_week": 1000}])


@pytest.fixture(scope="module")
def written(tmp_path_factory, randomized_1000):
    """name -> (config, in-memory trace, path of its ndjson file), for every
    packaged scenario, randomized-1000 and ``_lockers``."""
    work = tmp_path_factory.mktemp("traces")
    configs = {name: load_scenario(name) for name in packaged_scenarios()}
    configs["lockers"] = scenario_from_dict(_lockers())
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


@pytest.mark.parametrize("name", sorted(packaged_scenarios()) + ["randomized-1000", "lockers"])
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
    "horizon past the int digit limit": (
        lambda header, rows: [_with(header, horizon_epochs="@").replace('"@"', LONG_DIGITS)] + rows, 1,
        f"an integer of more than {sys.get_int_max_str_digits()} digits",
    ),
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
    "header nested too deeply": (lambda header, rows: [header[:-1] + f',"notes":{DEEP}}}'] + rows, 1,
                                 "invalid JSON: nested too deeply"),
    # the reader parses a row's first value alone and the rest in one call
    "first value nested too deeply": (lambda header, rows: [header] + rows[:2] + [f'{{"actions":{DEEP},"epoch":2}}']
                                      + rows[3:], 4, "invalid JSON: nested too deeply"),
    "later value nested too deeply": (lambda header, rows: [header] + rows[:2] + [f'{{"epoch":2,"x":{DEEP}}}']
                                      + rows[3:], 4, "invalid JSON: nested too deeply"),
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


def test_rows_read_from_a_file_share_repeated_leading_values(written):
    _, trace, path = written["lockers"]
    rows = list(SimTrace.read_ndjson(path))
    lines = Path(path).read_text(encoding="utf-8").splitlines()[1:]
    assert [json.dumps(row) for row in rows] == [json.dumps(json.loads(line)) for line in lines]
    assert rows == list(trace)
    assert rows[1]["actions"] is rows[0]["actions"]
    assert rows[2]["base_votes"] is rows[1]["base_votes"]
    # row 0 repeats no leading member, so its locks are not read entry by entry;
    # from row 2 on, an entry is the previous row's object where its text is
    assert rows[2]["locks"]["base"]["locker-0"] is rows[1]["locks"]["base"]["locker-0"]
    for before, row in zip(rows[1:], rows[2:]):
        for label, entries in row["locks"].items():
            for (account, entry), (was, old) in zip(entries.items(), before["locks"][label].items()):
                assert (entry is old) == (_compact({account: entry}) == _compact({was: old})), (row["epoch"], account)


def test_the_writer_makes_no_cycle_check():
    # rows are trees; a hand-built row that holds itself recurses until Python stops it
    row = epoch_row(0)
    row["actions"].append(row)
    with pytest.raises(RecursionError):
        list(SimTrace({}, [row]).lines())


def _compact(value) -> str:
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def _key_at(line: str, at: int) -> str:
    """One top-level key of a row line, chosen by ``at``."""
    keys = list(json.loads(line))
    return keys[at % len(keys)]


# mutation -> the line it makes of a row line (ending in a newline), given the
# row line before it, a position in the line and a piece of text
MUTATIONS = {
    "insert": lambda line, previous, at, piece: line[:at] + piece + line[at:],
    "delete": lambda line, previous, at, piece: line[:at] + line[at + 1:],
    "replace": lambda line, previous, at, piece: line[:at] + piece + line[at + 1:],
    "cut": lambda line, previous, at, piece: line[:at] + piece + "\n",
    "cut on the last line": lambda line, previous, at, piece: line[:at] + piece,
    "trailing comma": lambda line, previous, at, piece: line[:-2] + ",}\n",
    "non-string key": lambda line, previous, at, piece: "{1:2," + line[1:],
    # the key's own value first, so the first member may repeat the previous row's
    "duplicate key first": lambda line, previous, at, piece: '{"%s":%s,' % (
        _key_at(line, at), _compact(json.loads(line)[_key_at(line, at)])) + line[1:],
    "duplicate key last": lambda line, previous, at, piece: line[:-2] + ',"%s":%s}\n' % (
        _key_at(line, at), json.dumps(piece)),
    # the previous row's epoch and its comma, then more text: "epoch":4, -> "epoch":37,
    "previous epoch extended": lambda line, previous, at, piece: re.sub(
        r'"epoch":\d+,', re.search(r'"epoch":\d+', previous)[0] + piece, line, count=1),
}
EDGE_CHARS = re.compile(r'[,:}\]"]')  # a mutation at or just after one of these meets a parser's edge
# whitespace, number text, separators, values and a member with a number for its key
PIECES = [" ", "\t", "", "0", "7", "7,", ".5", "e1", "-", ",", ":", "}", "]", '"', ",}", "[]", "null", "1:2,"]


def _reads_like_json_loads(path: str, lines: list[str], index: int, mutated: str) -> None:
    """Read ``lines`` (row lines) up to ``index``, then ``mutated`` in place of
    line ``index``, then line ``index + 1`` from the lead it leaves, and check
    each record or error against ``_ndjson_record``."""
    lead = []
    for lineno, row in enumerate(lines[:index], 2):
        _, lead = _row_record(path, lineno, row, lead)
    for lineno, row in ((index + 2, mutated), (index + 3, lines[index + 1])):
        try:
            expected = _ndjson_record(path, lineno, row)
        except ScenarioError as exc:
            with pytest.raises(ScenarioError) as failure:
                _row_record(path, lineno, row, lead)
            assert str(failure.value) == str(exc)
            return
        record, lead = _row_record(path, lineno, row, lead)
        assert json.dumps(record) == json.dumps(expected)  # key order and duplicates included


@pytest.mark.parametrize("mutation", sorted(MUTATIONS))
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_reader_matches_json_loads_on_mutated_rows(mutation, data, written):
    _, _, path = written["lockers"]
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    index = data.draw(st.integers(1, len(lines) - 2), label="row")
    line = lines[index]
    # mostly mutate the leading values, which come before "escrow_weights",
    # and the lock entries, which a row that repeats a leading value reads one by one
    lead_end = line.index('"escrow_weights"')
    locks_start = line.index(',"locks":{')
    _, locks_end = json.JSONDecoder().raw_decode(line, locks_start + len(',"locks":'))
    edges = [m.start() + shift for start, end in ((0, lead_end), (locks_start, locks_end))
             for m in EDGE_CHARS.finditer(line, start, end) for shift in (0, 1)]
    at = data.draw(st.one_of(st.sampled_from(edges), st.integers(0, len(line))), label="at")
    piece = data.draw(st.sampled_from(PIECES), label="piece")
    _reads_like_json_loads(path, lines, index, MUTATIONS[mutation](line, lines[index - 1], at, piece))


LOCKS = '{"actions":%(actions)s,"epoch":5,"locks":'  # a repeated lead, a changed member, then "locks"
# a line read after row 4 of the ``_lockers`` trace, made with that row's ``actions``
# text, so its first member repeats the row before, and, where named, the texts
# of its ``locks["base"]`` entries: the first, the others, or all of them
EDGE_LINES = {
    "repeated member closing the record": '{"actions":%(actions)s}\n',
    "text after a repeated member's closing brace": '{"actions":%(actions)s}x\n',
    "a repeated member run into the next key": '{"actions":%(actions)s7"base_votes":{}}\n',
    "whitespace after a repeated member": '{"actions":%(actions)s, "base_votes":{}}\n',
    "number key after a repeated member": '{"actions":%(actions)s,1:2}\n',
    "space for the colon after a parsed key": '{"actions":%(actions)s,"base_votes" {}}\n',
    "trailing comma after a parsed member": '{"actions":%(actions)s,"base_votes":{},}\n',
    "text after a parsed member's closing brace": '{"actions":%(actions)s,"base_votes":{}}x\n',
    # the lead misses at its first member ("actions" wrapped in a list), so the
    # rest of the line after it is read in one piece
    "spaces after the rest's closing brace": '{"actions":[%(actions)s],"base_votes":{},"epoch":5}  \n',
    "text after the rest's closing brace": '{"actions":[%(actions)s],"base_votes":{},"epoch":5}x\n',
    "a key repeated within the rest": '{"actions":[%(actions)s],"epoch":5,"base_votes":{},"epoch":6}\n',
    "a key of the rest repeating a lead key": '{"actions":[%(actions)s],"epoch":5,"actions":[]}\n',
    "an integer in the rest past the digit limit": '{"actions":[%(actions)s],"epoch":' + LONG_DIGITS + '}\n',
    "deep nesting in the rest": '{"actions":[%(actions)s],"epoch":5,"deep":' + DEEP + '}\n',
    # the lead repeats "actions", so "locks" after the first changed member is
    # read entry by entry, against row 4's entries
    "locks with the rest after it": LOCKS + '{"base":{%(entries)s},"governance":{}},"round_id":0}\n',
    "locks closing the record": LOCKS + '{"base":{%(entries)s}}}\n',
    "locks as the first changed member": '{"actions":%(actions)s,"locks":{"base":{%(entries)s}}}\n',
    "text after the members before locks": '{"actions":%(actions)s,"epoch":5,"x":1}x,"locks":{"base":{%(entries)s}}}\n',
    "whitespace before locks": '{"actions":%(actions)s,"epoch":5 ,"locks":{"base":{%(entries)s}}}\n',
    "a lone comma before locks": '{"actions":%(actions)s,"epoch":5, ,"locks":{"base":{%(entries)s}}}\n',
    "an account named locks in base_votes": '{"actions":%(actions)s,"base_votes":{"a":{},"locks":{"0":1}},"epoch":5,'
                                            '"locks":{"base":{%(entries)s}}}\n',
    "an account named locks after the changed member": '{"actions":%(actions)s,"epoch":5,"votes":{"a":{},"locks":'
                                                       '{"0":1}},"locks":{"base":{%(entries)s}}}\n',
    "locks twice": LOCKS + '{"base":{%(entries)s}},"locks":{"base":{%(first)s}}}\n',
    "a duplicate account in a label map": LOCKS + '{"base":{%(entries)s,%(first)s}}}\n',
    "a duplicate label": LOCKS + '{"base":{%(entries)s},"base":{%(others)s}}}\n',
    "a label map that is not an object": LOCKS + '{"base":[],"governance":{}}}\n',
    "a label map that is a number": LOCKS + '{"base":{%(entries)s},"x":5}}\n',
    "a repeated entry followed by a space": LOCKS + '{"base":{%(first)s ,%(others)s}}}\n',
    "a repeated entry followed by }x": LOCKS + '{"base":{%(entries)s}x}}\n',
    "a space for the comma after a repeated entry": LOCKS + '{"base":{%(first)s %(others)s}}}\n',
    "a letter for the comma after a repeated entry": LOCKS + '{"base":{%(first)sx%(others)s}}}\n',
    "a repeated entry run into a digit": LOCKS + '{"base":{%(first)s7,%(others)s}}}\n',
    "an account added between rows": LOCKS + '{"base":{"locker-00":{"amount":1},%(entries)s}}}\n',
    "an account removed between rows": LOCKS + '{"base":{%(others)s}}}\n',
    "an entry retyped to a list": LOCKS + '{"base":{"locker-0":[1,2],%(others)s}}}\n',
    "a trailing comma in a label map": LOCKS + '{"base":{%(entries)s,}}}\n',
    "a trailing comma in locks": LOCKS + '{"base":{%(entries)s},}}\n',
    "empty locks": LOCKS + '{},"round_id":0}\n',
    "an empty label map before a label": LOCKS + '{"governance":{},"base":{%(first)s}}}\n',
    "a number key in a label map": LOCKS + '{"base":{1:2}}}\n',
    "a space for the colon after a label": LOCKS + '{"base" {%(entries)s}}}\n',
    "text after locks' closing brace": LOCKS + '{"base":{%(entries)s}}x,"round_id":0}\n',
    "a line cut inside locks": LOCKS + '{"base":{%(first)s,\n',
    "deep nesting in a lock entry": LOCKS + '{"base":{"a":' + DEEP + '}}}\n',
}


def _edge_texts(line: str) -> dict:
    """What the ``EDGE_LINES`` templates name, from a row line."""
    record = json.loads(line)
    entries = [_compact({account: entry})[1:-1] for account, entry in record["locks"]["base"].items()]
    return {"actions": _compact(record["actions"]), "first": entries[0], "others": ",".join(entries[1:]),
            "entries": ",".join(entries)}


@pytest.mark.parametrize("case", sorted(EDGE_LINES))
def test_reader_matches_json_loads_at_the_edges(case, written):
    _, _, path = written["lockers"]
    lines = Path(path).read_text(encoding="utf-8").splitlines(keepends=True)[1:]
    _reads_like_json_loads(path, lines, 5, EDGE_LINES[case] % _edge_texts(lines[4]))


# -- the writer: each row's text from the previous row's where it holds its objects

def _str_keyed(value) -> bool:
    return type(value) is dict and all(type(key) is str for key in value)


def _label_maps(value) -> bool:
    """Whether ``value`` is a ``locks`` map that the writer writes entry by entry."""
    return _str_keyed(value) and all(map(_str_keyed, value.values()))


def _reused(last, value) -> bool:
    return last is value or (type(last) is list and type(value) is list and len(last) == len(value)
                             and all(item is before for item, before in zip(value, last)))


_ABSENT = object()


def writer_encodes(rows) -> int:
    """The ``canonical_json`` calls ``SimTrace.lines`` makes for ``rows``, after
    the header, by its reuse rule: one per row that is not a dict with str keys;
    else one per member that is not the previous row's value or a list of the
    same length of its items, where a ``locks`` map of such dicts counts one per
    entry that is not the previous row's entry at the same (label, account)."""
    count, last = 0, {}
    for row in rows:
        if not _str_keyed(row):
            count, last = count + 1, {}
            continue
        before = last["locks"] if _label_maps(last.get("locks")) else {}
        for key, value in row.items():
            if key in last and _reused(last[key], value):
                continue
            if key == "locks" and _label_maps(value):
                count += sum(before.get(label, {}).get(account, _ABSENT) is not entry
                             for label, entries in value.items() for account, entry in entries.items())
            else:
                count += 1
        last = row
    return count


def _twin(value):
    """A value equal to ``value`` that may encode differently: ``1`` for ``True``,
    ``1.0`` for ``1``, ``1`` for ``1.0``, in new containers; a string or None
    as it is."""
    if type(value) is bool:
        return int(value)
    if type(value) is int:
        return float(value)
    if type(value) is float and value.is_integer():
        return int(value)
    if type(value) is list:
        return [_twin(item) for item in value]
    if type(value) is dict:
        return {key: _twin(item) for key, item in value.items()}
    return value


LEAVES = st.one_of(st.none(), st.booleans(), st.sampled_from([0, 1, 2, 1.0, -0.0, 2.5]), st.text('a"é', max_size=2))
VALUES = st.recursive(LEAVES, lambda inner: st.lists(inner, max_size=3)
                      | st.dictionaries(st.text("ab", max_size=2), inner, max_size=3), max_leaves=6)
MEMBERS = ("actions", "base_votes", "locks", "snapshot")
LABELS = ("base", "governance")
_OMIT = object()  # a member left out of the row


def _one_in(n: int):
    """True about once in ``n`` draws, shrinking to False."""
    return st.sampled_from([False] * (n - 1) + [True])


def _next_value(data, last, new, same: int = 1):
    """A value made from ``last``, the previous row's value at its place (or
    ``_ABSENT``): it (``same`` times as likely as the others), a copy, a
    twin, a list of its items, or ``new()``."""
    if data.draw(_one_in(40), label="unencodable"):
        return [object()]
    ops = ["new", "omit"]
    if last is not _ABSENT:
        ops += ["same"] * same + ["copy", "twin"] + (["items"] * 2 if type(last) is list else [])
    op = data.draw(st.sampled_from(ops), label="op")
    if op == "same":
        return last
    if op == "copy":
        return copy.deepcopy(last)
    if op == "twin":
        return _twin(last)
    if op == "items":
        items = list(last)
        change = data.draw(st.sampled_from(["none", "append", "drop", "twin one"]), label="change")
        if change == "append":
            items.append(items[-1] if items else None)
        elif items and change == "drop":
            items.pop()
        elif items and change == "twin one":
            at = data.draw(st.integers(0, len(items) - 1), label="at")
            items[at] = _twin(items[at])
        return items
    if op == "omit":
        return _OMIT
    return new()


def _lock_entry(data, last_locks, label, account):
    """An entry of ``locks[label][account]`` made from the previous row's
    entries: the one at the same place, or at the other label."""
    places = [last_locks.get(other, {}).get(account, _ABSENT) for other in (label, *LABELS)]
    last = data.draw(st.sampled_from([entry for entry in places if entry is not _ABSENT] or [_ABSENT]))
    new = lambda: data.draw(st.fixed_dictionaries({"amount": st.sampled_from([1, True, 1.0, 2]),
                                                   "unlock_epoch": st.integers(0, 3)}))
    return _next_value(data, last, new, same=3)


def _new_locks(data, last):
    """A ``locks`` value: mostly a map of label maps whose entries come from the
    previous row's ``last``, sometimes a label map with int keys, or any value."""
    last_locks = last if _label_maps(last) else {}
    kind = data.draw(st.sampled_from(["labels"] * 6 + ["int keys", "any"]), label="locks")
    if kind == "any":
        return data.draw(VALUES)
    locks = {}
    for label in data.draw(st.lists(st.sampled_from(LABELS), unique=True), label="labels"):
        entries = {}
        for account in data.draw(st.lists(st.sampled_from("abc"), unique=True), label="accounts"):
            entry = _lock_entry(data, last_locks, label, account)
            if entry is not _OMIT:
                entries[account] = entry
        if kind == "int keys" and label == "base":
            entries[0] = 1  # sorted among str keys, an int is a TypeError
        locks[label] = data.draw(VALUES) if data.draw(_one_in(6), label="not a label map") else entries
    return locks


def _next_row(data, last: dict, epoch: int) -> dict:
    row = {"epoch": epoch}
    for key in MEMBERS:
        if key == "locks" and not data.draw(_one_in(4), label="locks as a whole"):
            row[key] = _new_locks(data, last.get(key))  # mostly built entry by entry
            continue
        value = _next_value(data, last.get(key, _ABSENT), lambda: data.draw(VALUES))
        if value is not _OMIT:
            row[key] = value
    if data.draw(_one_in(8), label="whole"):
        row[_Key("note")] = None  # a key of a str subclass: the writer hands ``canonical_json`` the whole row
    return row


class _Key(str):
    pass


def _outcome(lines) -> tuple[list, tuple | None]:
    """The lines of ``lines``, and the type and text of the error that ends them."""
    out = []
    try:
        for line in lines:
            out.append(line)
    except (TypeError, ValueError) as exc:
        return out, (type(exc), str(exc))
    return out, None


def _written(trace) -> tuple[list, tuple | None, int]:
    """``_outcome(trace.lines())`` and the ``canonical_json`` calls it makes."""
    calls = 0

    def counted(value):
        nonlocal calls
        calls += 1
        return canonical_json(value)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(trace_module, "canonical_json", counted)
        return (*_outcome(trace.lines()), calls)


def _encoded(trace) -> tuple[list, tuple | None]:
    return _outcome(canonical_json(record) for record in [{"type": "header", **trace.header}, *trace])


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_writer_gives_the_text_of_each_row(data):
    rows, last = [], {}
    for epoch in range(data.draw(st.integers(1, 6), label="rows")):
        same = rows and data.draw(_one_in(8), label="same members")
        last = {**last, "epoch": epoch} if same else _next_row(data, last, epoch)
        rows.append(last)
    trace = SimTrace({"format_version": 1, "horizon_epochs": len(rows)}, rows)
    lines, error, calls = _written(trace)
    assert (lines, error) == _encoded(trace)
    if error is not None:
        return
    assert calls == 1 + writer_encodes(rows)
    with tempfile.TemporaryDirectory() as folder:
        # rows parsed again on each pass, whose leading values the reader shares
        path = os.path.join(folder, "trace.ndjson")
        trace.write_ndjson(path)
        read = SimTrace.read_ndjson(path)
        for _ in range(2):
            lines, error, calls = _written(read)
            assert (lines, error) == (Path(path).read_text(encoding="utf-8").splitlines(), None)
            assert calls == 1 + writer_encodes(read)
