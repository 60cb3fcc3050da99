"""Token balance book, supply accounting, and exogenous USD pricing.

All protocol-side quantities are unsigned integers denominated in base units
(1 token = 10**18 base units), so conservation checks are exact.  Python ints
are arbitrary precision, which makes silent overflow impossible; negative
results are rejected explicitly.  USD valuations are ordinary floats and never
feed back into protocol state.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from decimal import Decimal, InvalidOperation
from typing import NamedTuple

from .errors import LedgerError, PriceError

DECIMALS = 18
ONE = 10**DECIMALS


def base_units(tokens) -> int:
    """Convert a token quantity (int, float, str or Decimal) to base units, exactly."""
    if not isinstance(tokens, (int, float, str, Decimal)):
        raise LedgerError(f"unparseable token amount: {tokens!r}")
    if isinstance(tokens, float):
        # go through repr so 0.5 means five tenths, not its binary expansion
        tokens = repr(tokens)
    try:
        scaled = Decimal(tokens).scaleb(DECIMALS)
    except InvalidOperation as exc:
        raise LedgerError(f"unparseable token amount: {tokens!r}") from exc
    if not scaled.is_finite():
        raise LedgerError(f"unparseable token amount: {tokens!r}")
    if scaled != scaled.to_integral_value():
        raise LedgerError(f"{tokens!r} has more than {DECIMALS} fractional digits")
    units = int(scaled)
    if units < 0:
        raise LedgerError(f"token amounts are unsigned, got {tokens!r}")
    return units


def check_amount(amount) -> int:
    """Validate an amount already expressed in base units."""
    if not isinstance(amount, int) or isinstance(amount, bool):
        raise LedgerError(f"base-unit amounts must be int, got {type(amount).__name__}")
    if amount < 0:
        raise LedgerError(f"base-unit amounts are unsigned, got {amount}")
    return amount


class Token(NamedTuple):
    symbol: str
    transferable: bool = True


class Ledger:
    """Account/token balance book with mint, transfer and per-token escrow buckets.

    Invariant, per token: sum of balances + escrow_held == total_minted.
    Escrowed tokens move into the escrow bucket instead of being burned so the
    invariant stays globally checkable.
    """

    def __init__(self):
        self.tokens: dict[str, Token] = {}
        self.balances: dict[str, dict[str, int]] = {}
        self.total_minted: dict[str, int] = {}
        self.escrow_held: dict[str, int] = {}

    def register_token(self, symbol: str, transferable: bool = True) -> None:
        self.tokens[symbol] = Token(symbol, transferable)
        self.balances[symbol] = {}
        self.total_minted[symbol] = 0
        self.escrow_held[symbol] = 0

    def _require_token(self, token: str) -> Token:
        try:
            return self.tokens[token]
        except KeyError:
            raise LedgerError(f"unknown token {token}") from None

    def balance(self, account: str, token: str) -> int:
        self._require_token(token)
        return self.balances[token].get(account, 0)

    def mint(self, token: str, to: str, amount: int) -> None:
        self._require_token(token)
        check_amount(amount)
        self.balances[token][to] = self.balances[token].get(to, 0) + amount
        self.total_minted[token] += amount

    def transfer(self, token: str, from_account: str, to_account: str, amount: int) -> None:
        spec = self._require_token(token)
        check_amount(amount)
        if not spec.transferable:
            raise LedgerError(f"token {token} is not transferable")
        held = self.balances[token].get(from_account, 0)
        if held < amount:
            raise LedgerError(
                f"insufficient {token} balance for {from_account}: have {held}, need {amount}"
            )
        if from_account == to_account:
            return
        self.balances[token][from_account] = held - amount
        self.balances[token][to_account] = self.balances[token].get(to_account, 0) + amount

    def move_to_escrow(self, token: str, account: str, amount: int) -> None:
        self._require_token(token)
        check_amount(amount)
        held = self.balances[token].get(account, 0)
        if held < amount:
            raise LedgerError(
                f"insufficient {token} balance for {account}: have {held}, need {amount}"
            )
        self.balances[token][account] = held - amount
        self.escrow_held[token] += amount

    def release_from_escrow(self, token: str, account: str, amount: int) -> None:
        self._require_token(token)
        check_amount(amount)
        if self.escrow_held[token] < amount:
            raise LedgerError(f"escrow bucket for {token} holds less than {amount}")
        self.escrow_held[token] -= amount
        self.balances[token][account] = self.balances[token].get(account, 0) + amount

    def token_totals(self) -> dict[str, dict[str, int]]:
        """Fresh per-token sums: minted, balance total, escrow bucket."""
        return {
            token: {
                "minted": self.total_minted[token],
                "balances": sum(self.balances[token].values()),
                "escrow_held": self.escrow_held[token],
            }
            for token in self.tokens
        }

    def assert_conservation(self) -> dict[str, dict[str, int]]:
        """Check every token's sums and return them, as ``token_totals`` does."""
        totals = self.token_totals()
        for token, sums in totals.items():
            if sums["balances"] + sums["escrow_held"] != sums["minted"]:
                raise LedgerError(
                    f"conservation violated for {token}: "
                    f"{sums['balances']} + {sums['escrow_held']} != {sums['minted']}"
                )
        return totals

    def digest(self) -> str:
        """Deterministic fingerprint of the full book, for trace rows."""
        import hashlib  # here, not at the top: only ``run`` hashes, and importing it loads OpenSSL
        payload = {
            "balances": self.balances,
            "minted": self.total_minted,
            "escrow_held": self.escrow_held,
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


class PriceSeries:
    """Piecewise-constant USD price per token, last observation carried forward."""

    def __init__(self):
        self._points: dict[str, list[tuple[int, float]]] = {}

    def add_point(self, token: str, epoch: int, usd_price: float) -> None:
        """Append a point; epochs are added in increasing order."""
        self._points.setdefault(token, []).append((epoch, float(usd_price)))

    def usd_price(self, token: str, epoch: int) -> float:
        points = self._points.get(token)
        if not points:
            raise PriceError(f"no price series for token {token}")
        idx = bisect_right(points, epoch, key=lambda point: point[0])
        if idx == 0:
            raise PriceError(f"no {token} price at or before epoch {epoch}")
        return points[idx - 1][1]

    def usd_value(self, token: str, amount: int, epoch: int) -> float:
        check_amount(amount)
        price = self.usd_price(token, epoch)
        try:
            value = (amount / ONE) * price
        except OverflowError:  # the token quantity alone is past the float range
            value = math.inf
        if not math.isfinite(value):
            raise PriceError(f"USD value of {amount} {token} base units at epoch {epoch} overflows a float")
        return value
