"""Correctness gate: pinned digests and protocol invariants read off a written trace.

Every check is one attempted operation; every check that does not hold is one
failed operation.  Nothing here is timed.
"""

from __future__ import annotations

import hashlib
import json
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

# First 16 hex digits of the sha256 of the file bytes: each workload's trace
# and report exports at its default seed and sizes, and each packaged
# scenario's trace.
PINS = json.loads((Path(__file__).parent / "pins.json").read_text())

BPS = 10_000


def file_digest(path: str) -> str:
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]


class Tally:
    """Attempted and failed operations, with the first few failure messages."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)
        return ok


def _units(tokens) -> int:
    return int(Decimal(str(tokens)).scaleb(18))


def _emission_for(schedule, epoch: int) -> int:
    for entry in schedule:
        if entry["start"] <= epoch < entry["end"]:
            return _units(entry["per_week"])
    return 0


def check_trace(path: str, scenario: dict, tally: Tally) -> None:
    """Check the protocol invariants on every row of the trace at ``path``.

    Reads the file with plain ``json`` (not the package's reader) and the
    scenario dict the trace was generated from, for the emission schedule.
    """
    header, rows = None, 0
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                row = json.loads(line)
                if row.get("type") == "header":
                    header = row
                    continue
                rows += 1
                _check_row(row, header, scenario["emission_schedule"], tally)
    except (OSError, ValueError, KeyError, TypeError, AttributeError) as exc:
        tally.check(False, f"{path}: unreadable trace ({type(exc).__name__}: {exc})")
    tally.check(header is not None and rows == scenario["horizon_epochs"],
                f"{path}: header missing or {rows} rows for horizon {scenario['horizon_epochs']}")


def _check_row(row: dict, header: dict, schedule, tally: Tally) -> None:
    epoch = row["epoch"]
    totals = row["token_totals"]
    for token, t in totals.items():
        tally.check(t["balances"] + t["escrow_held"] == t["minted"],
                    f"epoch {epoch}: {token} balances + escrow_held != minted")
    for bucket, token in (("base", header["base_token"]), ("governance", header["gov_token"])):
        held = sum(lock["amount"] for lock in row["locks"][bucket].values())
        tally.check(held == totals[token]["escrow_held"],
                    f"epoch {epoch}: {bucket} lock sum != {token} escrow_held")

    snapshot = row["snapshot"]
    if snapshot is not None:
        weighted = any(Fraction(w) != 0 for w in snapshot["relative_weights"].values())
        expected = _emission_for(schedule, epoch) if weighted else 0
        tally.check(snapshot["emission_total"] == expected == sum(snapshot["emissions"].values()),
                    f"epoch {epoch}: emission_total {snapshot['emission_total']} != schedule {expected}")

    settlement = row["settlement"]
    if settlement is not None:
        for gauge, gs in settlement["gauges"].items():
            paid: dict[str, int] = {}
            for per_token in list(gs["payouts"].values()) + list(gs["refunds"].values()):
                for token, amount in per_token.items():
                    paid[token] = paid.get(token, 0) + amount
            tally.check(paid == gs["deposits"],
                        f"epoch {epoch}: gauge {gauge} payouts + refunds != deposits")

    finalized = row["round_finalized"]
    if finalized is not None:
        if finalized["result"]:
            shares = sum((Fraction(s) for s in finalized["result"].values()), Fraction(0))
            tally.check(shares == 1, f"epoch {epoch}: result shares sum to {shares}")
        if finalized["base_allocation"] is not None:
            bps = sum(finalized["base_allocation"].values())
            tally.check(bps == BPS, f"epoch {epoch}: base_allocation sums to {bps}")
