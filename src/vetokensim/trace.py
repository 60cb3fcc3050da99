"""Traces: a header plus one row per epoch, written and read as ndjson, and
``_ratio_str``, the one writer of the exact weight ratios in them."""

from __future__ import annotations

import json
import math

from .errors import ScenarioError
from .scenario import Fields, _utf8

FORMAT_VERSION = 1  # the trace format ``write_ndjson`` writes and ``read_ndjson`` reads


class SimTrace:
    """Header plus one row per epoch; ndjson on disk, the header on line 1.

    ``rows`` is any iterable that can be walked more than once: the list that
    ``run_scenario`` builds, or the file that ``read_ndjson`` parses again on
    each pass, one line at a time.  Rows are read-only.  The rows of one run
    hold each repeated value once: every equal lock entry, ballot (base votes,
    a round's ballots and its base allocation), vote entry, ``[gauge, bps]``
    pair and allocation list is one object, every gauge key is one string per
    gauge, and a token's ``token_totals`` entry is the previous row's dict
    while it does not change.  A settlement row holds the settlement's own
    ``briber_usd`` and per-account token dicts.
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
        """The ndjson lines, header first, each dumped when it is reached."""
        dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
        yield dump({"type": "header", **self.header})
        for row in self:
            yield dump(row)

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
        with _utf8(path), open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        header = _ndjson_record(path, 1, first) if first.strip() else {}
        if header.pop("type", None) != "header":
            raise ScenarioError(f"{path}:1: expected the trace header record")
        fields = Fields(header, f"{path}:1: ")
        version = fields.value("format_version")
        if type(version) is not int or version != FORMAT_VERSION:
            raise fields.error(f"expected format version {FORMAT_VERSION}, got {version!r}", "format_version")
        return cls(header, _NdjsonRows(path, fields.integer("horizon_epochs", minimum=0)))


def _ndjson_record(path: str, lineno: int, line: str) -> dict:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
    if not isinstance(record, dict):
        raise ScenarioError(f"{path}:{lineno}: record is not a JSON object")
    return record


class _NdjsonRows:
    """The records after the header line of an ndjson trace, parsed anew on
    each pass and handed out one at a time, so a pass holds one row.  Blank
    lines are skipped; a bad line, a second header or a row out of epoch order
    fails at its line, and a pass that ends before the horizon fails at its end."""

    def __init__(self, path: str, horizon: int):
        self.path = path
        self.horizon = horizon

    def __iter__(self):
        path, horizon = self.path, self.horizon
        epoch = 0  # the epoch of the next row
        with _utf8(path), open(path, "r", encoding="utf-8") as handle:
            handle.readline()  # the header, checked by ``SimTrace.read_ndjson``
            for lineno, line in enumerate(handle, 2):
                if line.isspace():
                    continue
                record = _ndjson_record(path, lineno, line)
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
