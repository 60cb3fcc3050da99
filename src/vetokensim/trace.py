"""Traces: a header plus one row per epoch, written and read as ndjson, and
``_ratio_str``, the one writer of the exact weight ratios in them."""

from __future__ import annotations

import json
import math
from json.encoder import encode_basestring_ascii as _string  # a str as ``canonical_json`` writes it
from json.scanner import make_scanner
from operator import is_

from .errors import ScenarioError
from .scenario import Fields, _long_integer, _reading, canonical_json

FORMAT_VERSION = 1  # the trace format ``write_ndjson`` writes and ``read_ndjson`` reads

# the stdlib scanner that ``json.loads`` runs: ``_scan(text, i)`` is
# ``(value, end)`` for the JSON value that starts at ``text[i]``
_scan = make_scanner(json.JSONDecoder())


class SimTrace:
    """Header plus one row per epoch; ndjson on disk, the header on line 1.

    ``rows`` is any iterable that can be walked more than once: the list that
    ``run_scenario`` builds, or the file that ``read_ndjson`` parses again on
    each pass, one line at a time.  Rows are read-only, and shared values must
    be copied before editing.  The rows of one run hold each repeated value
    once: every equal lock entry, ballot (base votes, a round's ballots and its
    base allocation), vote entry, ``[gauge, bps]`` pair and allocation list is
    one object, every gauge key is one string per gauge, and ``base_votes``
    is the previous row's map while no vote changes an allocation.
    A settlement row holds the settlement's own ``briber_usd`` and per-account
    token dicts.  Rows read from a file share less: a leading value whose text
    repeats the previous row's (often ``actions`` and ``base_votes``) is the
    previous row's object, and in a row that repeats one, so is each lock
    entry whose text repeats the one at the same label and place in the last
    such row.
    """

    def __init__(self, header: dict, rows):
        self.header = header
        self.rows = rows

    def __iter__(self):
        return iter(self.rows)

    def fields(self):
        """A ``Fields`` reader of each row, naming errors ``trace epoch N: path``."""
        for row in self:
            yield Fields(row, f"trace epoch {row.get('epoch')}: ")

    def lines(self):
        """The ndjson lines, header first, each written when it is reached: the
        text ``canonical_json`` gives the row, or the error it raises.

        A row that is a dict with str keys is written member by member, in
        sorted key order, and the writer keeps each member of the previous row
        with its ``"key":text``.  That text is used again, without encoding,
        when the member's value is the previous row's value, or a list of the
        same length whose items each are the previous row's items; inside a
        ``locks`` map of label maps, the same holds for each entry that is the
        previous row's entry at the same (label, account).  Reuse is by
        identity only: ``(0, True) == (0, 1)``, but the two encode differently.
        Rows are read-only, so a value's text cannot change while the writer
        holds it; it holds the previous row only, so a row re-parsed on each
        pass (``read_ndjson``) cannot hand it a recycled object.  The encoder
        makes no cycle check, so a row that contains itself raises
        RecursionError."""
        encode = canonical_json  # looked up once per pass
        yield encode({"type": "header", **self.header})
        last, last_locks = {}, {}  # the previous row's members and lock entries, as (value, text)
        for row in self:
            if not _str_keyed(row):
                last, last_locks = {}, {}
                yield encode(row)
                continue
            members, texts, locks = {}, [], {}
            for key in sorted(row):
                value = row[key]
                kept = last.get(key)
                if kept is not None and _same(kept[0], value):
                    if key == "locks":
                        locks = last_locks
                elif key == "locks" and _str_keyed(value) and all(map(_str_keyed, value.values())):
                    text, locks = _locks_text(value, last_locks, encode)
                    kept = (value, f"{_string(key)}:{text}")
                else:
                    kept = (value, f"{_string(key)}:{encode(value)}")
                members[key] = kept
                texts.append(kept[1])
            last, last_locks = members, locks
            yield "{" + ",".join(texts) + "}"

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for line in self.lines():
                handle.write(line + "\n")

    @classmethod
    def read_ndjson(cls, path: str) -> "SimTrace":
        """The trace at ``path``.  Only line 1, the header, is read here: it must
        have ``format_version`` 1 and an integer ``horizon_epochs``.  Each pass
        over the rows parses the rest one line at a time and checks that their
        epochs run 0, 1, 2, ... up to the horizon, no more and no fewer."""
        with _reading(path), open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        header = _ndjson_record(path, 1, first) if first.strip() else {}
        if header.pop("type", None) != "header":
            raise ScenarioError(f"{path}:1: expected the trace header record")
        fields = Fields(header, f"{path}:1: ")
        version = fields.value("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise fields.error(f"expected format version {FORMAT_VERSION}, got {version!r}", "format_version")
        return cls(header, _NdjsonRows(path, fields.integer("horizon_epochs", minimum=0)))


_STR = {str}


def _str_keyed(value) -> bool:
    """Whether ``value`` is a dict whose keys are all str: the encoder sorts
    such keys without error and writes each one as ``_string`` does."""
    return type(value) is dict and {*map(type, value)} <= _STR


def _same(last, value) -> bool:
    """Whether ``value`` writes as ``last``, the previous row's value at its
    place, because it is ``last`` or a list of ``last``'s own items."""
    return last is value or (
        type(value) is list and type(last) is list and len(value) == len(last) and all(map(is_, value, last))
    )


def _locks_text(locks: dict, last: dict, encode) -> tuple[str, dict]:
    """The text of a ``locks`` map of label maps, and its entries as
    {label: {account: (entry, "account":text)}} for the next row.  An entry
    that is the previous row's entry at the same label and account (in
    ``last``) takes that row's text; ``encode`` writes every other one."""
    labels, entries = [], {}
    for label in sorted(locks):
        accounts, before, now = locks[label], last.get(label, {}), {}
        for account in sorted(accounts):
            entry = accounts[account]
            kept = before.get(account)
            if kept is None or kept[0] is not entry:
                kept = (entry, f"{_string(account)}:{encode(entry)}")
            now[account] = kept
        entries[label] = now
        labels.append(_string(label) + ":{" + ",".join([text for _, text in now.values()]) + "}")
    return "{" + ",".join(labels) + "}", entries


def _ndjson_record(path: str, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
    except ValueError:
        raise ScenarioError(f"{path}:{lineno}: {_long_integer()}") from None
    except RecursionError:
        raise ScenarioError(f"{path}:{lineno}: invalid JSON: nested too deeply") from None
    if not isinstance(record, dict):
        raise ScenarioError(f"{path}:{lineno}: record is not a JSON object")
    return record


_NO_STATE = ((), {})  # the state before the first row: no lead and no lock entries
_LOCKS = ',"locks":{'


def _row_record(path: str, lineno: int, line: str, state) -> tuple[dict, tuple]:
    """``(json.loads(line), its state)``, given the state the previous row left
    (empty, as ``[]`` or ``_NO_STATE``, before the first row).

    The state is ``(lead, lock entries)``.  A row's lead is its first members
    as ``(member text, key, value)``, up to and including the first whose text
    differs from the previous row's.  While a member's text repeats, the
    previous row's key and value are taken as they are; the first member that
    does not repeat is parsed alone, and the rest of the record in one
    ``_scan``.  A row that repeats at least one leading member and has a
    ``locks`` member after that first changed one parses the members between
    in one ``_scan``, and ``locks`` entry by entry (``_read_locks``), before it
    scans the rest; its lock entries are the state's until the next such row.
    A line that is not a compact object with string keys, or that fails to
    parse, goes through ``_ndjson_record`` as a whole and starts from an empty
    state, so every record and every error is the one ``json.loads`` gives."""
    try:
        found = _reuse_lead(line, *(state or _NO_STATE))
    except (ValueError, StopIteration, RecursionError):
        found = None
    return found or (_ndjson_record(path, lineno, line), _NO_STATE)


def _reuse_lead(line: str, lead, entries: dict) -> tuple[dict, tuple] | None:
    """``_row_record`` for a compact object line, or None for any other line."""
    if not line.startswith('{"'):
        return None
    record, pos = {}, 1
    for kept, (text, key, value) in enumerate(lead):
        end = pos + len(text)
        close = line[end:end + 1]
        if (close != "," and close != "}") or not line.startswith(text, pos):
            lead = lead[:kept]
            break
        record[key] = value
        if close == "}":
            return (record, (lead[:kept + 1], entries)) if line[end + 1:] in ("", "\n") else None
        pos = end + 1
    if not line.startswith('"', pos):
        return None
    key, end = _scan(line, pos)
    if not line.startswith(":", end):
        return None
    value, end = _scan(line, end + 1)
    record[key] = value
    lead = [*lead, (line[pos:end], key, value)]
    if len(lead) > 1 and (hit := line.find(_LOCKS, end)) >= 0:  # a row that repeats a leading member
        # the members up to the hit as one object: it closes exactly at the
        # hit only if the hit is a top-level key, and any other hit fails a scan
        if hit > end:
            if not line.startswith(',"', end):
                return None
            text = "{" + line[end + 1:hit] + "}"
            between, stop = _scan(text, 0)
            if stop != len(text):
                return None
            record.update(between)
        found = _read_locks(line, hit + len(_LOCKS), entries)
        if found is None:
            return None
        record["locks"], entries, end = found
    if line.startswith(',"', end):
        # the rest as one object, by the scanner ``json.loads`` runs; it starts
        # at "{", so what it returns is an object, and it must end the line
        text = "{" + line[end + 1:]
        rest, end = _scan(text, 0)
        if text[end:] not in ("", "\n"):
            return None
        record.update(rest)
    elif line[end:] not in ("}", "}\n"):
        return None
    return record, (lead, entries)


def _read_locks(line: str, pos: int, last: dict) -> tuple[dict, dict, int] | None:
    """``(locks, entries, end)`` for the ``locks`` map of label maps whose text
    starts at ``line[pos]``, just after its "{", and ends just before
    ``line[end]``; None for a map that is not compact or whose label values
    are not objects.  ``entries`` is {label: [(entry text, account, entry)]}
    in line order.  An entry whose ``"account":value`` text is ``last``'s at
    the same label and place is ``last``'s object; every other one is scanned
    key, then value."""
    locks, entries = {}, {}
    if line.startswith("}", pos):
        return locks, entries, pos + 1
    while True:
        if not line.startswith('"', pos):
            return None
        label, pos = _scan(line, pos)
        if not line.startswith(":{", pos):
            return None
        pos += 2
        before, now, accounts = iter(last.get(label, ())), [], {}
        close = line[pos:pos + 1]
        if close == "}":  # an empty label map
            pos += 1
        while close != "}":
            kept = next(before, None)  # the entry at this place in ``last``
            if kept is not None and line.startswith(kept[0], pos):
                end = pos + len(kept[0])
            elif line.startswith('"', pos):
                account, end = _scan(line, pos)
                if not line.startswith(":", end):
                    return None
                entry, end = _scan(line, end + 1)
                kept = (line[pos:end], account, entry)
            else:
                return None
            accounts[kept[1]] = kept[2]
            now.append(kept)
            close = line[end:end + 1]
            if close != "," and close != "}":
                return None
            pos = end + 1
        locks[label] = accounts
        entries[label] = now
        close = line[pos:pos + 1]
        if close == "}":
            return locks, entries, pos + 1
        if close != ",":
            return None
        pos += 1


class _NdjsonRows:
    """The records after the header line of an ndjson trace, parsed anew on
    each pass and handed out one at a time, so a pass holds one row, the
    leading values it shares with the row before, and the lock entries of the
    last row that read ``locks`` entry by entry (``_row_record``).  Blank
    lines are skipped; a bad line, a second header or a row out of epoch order
    fails at its line, and a pass that ends before the horizon fails at its end."""

    def __init__(self, path: str, horizon: int):
        self.path = path
        self.horizon = horizon

    def __iter__(self):
        path, horizon = self.path, self.horizon
        epoch = 0  # the epoch of the next row
        state = _NO_STATE  # what the previous row leaves the next (``_row_record``)
        with _reading(path), open(path, "r", encoding="utf-8") as handle:
            handle.readline()  # the header, checked by ``SimTrace.read_ndjson``
            for lineno, line in enumerate(handle, 2):
                if line.isspace():
                    continue
                record, state = _row_record(path, lineno, line, state)
                if record.get("type") == "header":
                    raise ScenarioError(f"{path}:{lineno}: a second header record")
                found = record.get("epoch")
                if type(found) is not int or found != epoch or epoch == horizon:
                    raise ScenarioError(f"{path}:{lineno}: {_epoch_problem(found, epoch, horizon)}")
                epoch += 1
                yield record
        if epoch < horizon:
            raise ScenarioError(f"{path}: no row for epoch {epoch}: the trace ends before horizon_epochs {horizon}")


def _epoch_problem(found, expected: int, horizon: int) -> str:
    """Why a row whose ``epoch`` is ``found`` cannot come where epoch ``expected`` is due."""
    if type(found) is not int or found < 0:
        return f"epoch: expected epoch {expected}, got {found!r}"
    if found >= horizon:
        return f"epoch {found} is past horizon_epochs {horizon}"
    if found < expected:
        return f"a second row for epoch {found}"
    return f"no row for epoch {expected}: the next row is epoch {found}"


def _ratio_str(num: int, den: int) -> str:
    """The one writer of trace ratios: ``str(Fraction(num, den))`` for num >= 0,
    den > 0, without building a Fraction."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"
