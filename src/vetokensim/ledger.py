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
import re
import sys
from bisect import bisect_right
from json.encoder import c_make_encoder, encode_basestring_ascii
from typing import NamedTuple

from .errors import LedgerError, PriceError

DECIMALS = 18
ONE = 10**DECIMALS
BPS = 10_000  # basis points in a whole: gauge LP shares and vote allocations

# The one canonical JSON text: sorted keys, no spaces.  Trace records, the
# ledger digest and the config digest are written with it.  Everything it
# writes is a tree, so it skips the per-container cycle check; a cyclic value
# raises RecursionError.  ``JSONEncoder.encode`` makes a new C encoder on every
# call; ``_encode`` is that encoder made once, with the arguments ``encode``
# passes (``default`` too), so every text and every error stays the same.
_settings = json.JSONEncoder(sort_keys=True, separators=(",", ":"), check_circular=False)
_encode = c_make_encoder(
    None, _settings.default, encode_basestring_ascii, _settings.indent, _settings.key_separator,
    _settings.item_separator, _settings.sort_keys, _settings.skipkeys, _settings.allow_nan,
)


def canonical_json(value) -> str:
    return "".join(_encode(value, 0))


def sha256_hex(text: str) -> str:
    """The SHA-256 hex digest of ``text`` in UTF-8: every hash the package takes."""
    import hashlib  # here, not at the top: only ``run`` hashes, and importing it loads OpenSSL
    return hashlib.sha256(text.encode()).hexdigest()


def left_sum(values):
    """The left-to-right sum of ``values`` from int 0, so an empty sum is 0.
    Every float total in the package adds with it: the built-in ``sum()``
    compensates float rounding since CPython 3.12, and a run or a report must
    read the same on every interpreter."""
    total = 0
    for value in values:
        total += value
    return total


# ASCII digits, an optional fraction and an optional exponent; the sign is
# there only so that a negative amount is refused as unsigned
_AMOUNT_TEXT = re.compile(r"-?[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?")


def _past_digit_limit(value: int) -> int:
    """The digit limit of ``int`` text conversion (``sys.get_int_max_str_digits()``)
    if ``value`` has more digits than it, else 0.  Tested without ``str``, which
    raises past the limit; 8**limit < 10**limit, so only a value of 3 * limit
    bits or more pays for the power."""
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    return limit if limit and value.bit_length() > 3 * limit and value >= 10**limit else 0


def base_units(tokens) -> int:
    """Convert a token quantity (int, float, str or Decimal) to base units, exactly:
    no digit is rounded away.  Text must be plain ``_AMOUNT_TEXT``: Decimal
    alone would also read "1_0" as 10, and take " 1 ", "+1" and non-ASCII
    digits.  Base units of more digits than ``int`` converts to text
    (``sys.get_int_max_str_digits()``) are refused, since no trace could
    write them.  An int is whole tokens, so it is multiplied out; every other
    quantity is read as a ``Decimal``, and only then is ``decimal`` loaded."""
    if type(tokens) is int:
        if tokens < 0:
            raise LedgerError(f"token amounts are unsigned, got {tokens!r}")
        units = tokens * ONE
        limit = _past_digit_limit(units)
        if limit:
            raise LedgerError(f"token amount of more than {limit} digits in base units")
        return units
    from decimal import Decimal, InvalidOperation

    if isinstance(tokens, bool) or not isinstance(tokens, (int, float, str, Decimal)):
        raise LedgerError(f"unparseable token amount: {tokens!r}")
    if isinstance(tokens, (float, Decimal)):
        # a float's repr, so 0.5 means five tenths, not its binary expansion
        tokens = str(tokens)
    if isinstance(tokens, str) and not _AMOUNT_TEXT.fullmatch(tokens):
        raise LedgerError(f"unparseable token amount: {tokens!r}")
    try:
        value = Decimal(tokens)  # exact: a context rounds arithmetic, not construction
    except InvalidOperation as exc:  # an exponent past Decimal's range
        raise LedgerError(f"unparseable token amount: {tokens!r}") from exc
    sign, digits, exponent = value.as_tuple()
    coefficient = "".join(map(str, digits)).rstrip("0")
    if not coefficient:
        return 0
    # base units are the coefficient, less its trailing zeros, times 10**shift
    shift = exponent + DECIMALS + len(digits) - len(coefficient)
    if shift < 0:
        raise LedgerError(f"{tokens!r} has more than {DECIMALS} fractional digits")
    if sign:
        raise LedgerError(f"token amounts are unsigned, got {tokens!r}")
    limit = sys.get_int_max_str_digits()  # 0 for no limit
    if limit and len(coefficient) + shift > limit:
        raise LedgerError(f"token amount of more than {limit} digits in base units")
    return int(coefficient) * 10**shift


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
        """Credit ``amount`` new base units to ``to``.  A minted total of more
        digits than ``int`` converts to text is refused: every balance, bucket
        and event amount is at most its token's minted total, so each stays
        writable to a trace."""
        self._require_token(token)
        check_amount(amount)
        total = self.total_minted[token] + amount
        limit = _past_digit_limit(total)
        if limit:
            raise LedgerError(f"the minted {token} total would have more than {limit} digits")
        self.balances[token][to] = self.balances[token].get(to, 0) + amount
        self.total_minted[token] = total

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
        payload = {
            "balances": self.balances,
            "minted": self.total_minted,
            "escrow_held": self.escrow_held,
        }
        return sha256_hex(canonical_json(payload))


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
