"""Traces: a header plus one row per epoch, written and read as ndjson, and
``_ratio_str``, the one writer of the exact weight ratios in them."""

from __future__ import annotations

import json
import math

from .errors import ScenarioError
from .scenario import Fields, _utf8


class SimTrace:
    """Header plus one row per epoch; ndjson on disk, the header on line 1.

    ``rows`` is any iterable that can be walked more than once: the list that
    ``run_scenario`` builds, or the file that ``read_ndjson`` parses again on
    each pass, one line at a time.  Rows are read-only: the rows of one run
    share each equal lock entry, base ballot and re-cast vote entry as one dict.
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
        """The trace at ``path``.  Only line 1, the header, is read here; each
        pass over the rows parses the rest one line at a time."""
        with _utf8(path), open(path, "r", encoding="utf-8") as handle:
            first = handle.readline()
        header = _ndjson_record(path, 1, first) if first.strip() else {}
        if header.pop("type", None) != "header":
            raise ScenarioError(f"{path}:1: expected the trace header record")
        return cls(header, _NdjsonRows(path))


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
    lines are skipped; a bad line or a second header fails at its line."""

    def __init__(self, path: str):
        self.path = path

    def __iter__(self):
        path = self.path
        with _utf8(path), open(path, "r", encoding="utf-8") as handle:
            handle.readline()  # the header, checked by ``SimTrace.read_ndjson``
            for lineno, line in enumerate(handle, 2):
                if line.isspace():
                    continue
                record = _ndjson_record(path, lineno, line)
                if record.get("type") == "header":
                    raise ScenarioError(f"{path}:{lineno}: a second header record")
                yield record


def _ratio_str(num: int, den: int) -> str:
    """The one writer of trace ratios: ``str(Fraction(num, den))`` for num >= 0,
    den > 0, without building a Fraction."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"
