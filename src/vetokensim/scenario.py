"""Scenarios: the parsed, checked configuration of one veToken stack, and the
typed reader ``Fields`` that the parser and the trace readers share.

``scenario_from_dict`` is the one place that checks a scenario value; every
malformed field, and every key no field names, fails with a ``ScenarioError``
naming its path.  The config types (``EscrowConfig``, ``AgentSpec``,
``LockEntry``) live here, at the bottom of the module graph with ``errors``
and ``ledger``, so validating a scenario loads no protocol module.
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys
from typing import NamedTuple

from .errors import ScenarioError, VeTokenSimError
from .ledger import BPS, Token, base_units, canonical_json, sha256_hex


MAX_SEED = 2**64 - 1

# the acquisition avenues whose cost per vote ``metrics`` follows
AVENUES = ("direct-lock", "aggregator-lock", "bribe")

# the strategies ``agents.decide`` runs; the ``agents`` docstring describes each
STRATEGIES = (
    "PassiveLocker",
    "FixedAllocator",
    "BribeFollowerGreedy",
    "BribeFollowerEquilibrium",
    "SelfPromoter",
)


class LockEntry(NamedTuple):
    """One schedule item: create/extend a lock, or deposit into the aggregator.
    ``World._apply`` applies it at its epoch, before the agent's strategy acts.

    kind is "base", "gov" or "deposit"; weeks is the lock duration from the
    entry's epoch (ignored for deposits).  A zero amount re-extends an
    existing lock without adding to it.
    """

    epoch: int
    kind: str
    amount: int
    weeks: int = 0


class AgentSpec:
    def __init__(
        self,
        account: str,
        strategy: str,
        lock_schedule: tuple[LockEntry, ...] = (),
        allocation: tuple[tuple[int, int], ...] = (),
        budget_per_round: float | tuple[float, ...] = 0.0,
        own_gauges: tuple[int, ...] = (),
        bribe_token: str = "BRIBE-USD",
        noise: float = 0.0,
        exogenous_weights: tuple[tuple[int, float], ...] = (),
    ):
        self.account = account
        self.strategy = strategy
        self.lock_schedule = lock_schedule
        self.allocation = allocation
        self.budget_per_round = budget_per_round
        self.own_gauges = own_gauges
        self.bribe_token = bribe_token
        self.noise = noise
        self.exogenous_weights = exogenous_weights
        # epoch -> schedule entries due then, in schedule order; built once here
        self.schedule_by_epoch: dict[int, list[LockEntry]] = {}
        for entry in lock_schedule:
            self.schedule_by_epoch.setdefault(entry.epoch, []).append(entry)

    def budget_for_round(self, round_id: int) -> float:
        if isinstance(self.budget_per_round, (int, float)):
            return float(self.budget_per_round)
        if round_id < len(self.budget_per_round):
            return float(self.budget_per_round[round_id])
        return 0.0


class EscrowConfig(NamedTuple):
    token: str
    max_lock_weeks: int
    min_lock_weeks: int = 1
    whitelist: tuple[str, ...] = ()
    whitelist_enforced: bool = False


class GaugeSpec(NamedTuple):
    name: str
    lp_accounts: tuple[tuple[str, int], ...]


class AggregatorParams(NamedTuple):
    protocol_account: str
    wrapper_token: str
    gov_token: str


class ScenarioConfig(NamedTuple):
    name: str
    description: str
    horizon_epochs: int
    round_length: int
    base_snapshot_cadence: int
    rng_seed: int
    bootstrap_rounds: int
    tokens: tuple[Token, ...]
    price_series: dict[str, tuple[tuple[int, float], ...]]
    initial_balances: tuple[tuple[str, str, int], ...]
    contract_accounts: tuple[str, ...]
    base_escrow: EscrowConfig
    gov_escrow: EscrowConfig
    aggregator: AggregatorParams
    bribe_escrow_account: str
    gauges: tuple[GaugeSpec, ...]
    emission_schedule: tuple[tuple[int, int, int], ...]
    agents: tuple[AgentSpec, ...]

    def to_dict(self) -> dict:
        """Every field as JSON-ready values (tuples dump as lists): what ``digest`` hashes."""
        return {
            **self._asdict(),
            "tokens": [t._asdict() for t in self.tokens],
            "base_escrow": self.base_escrow._asdict(),
            "gov_escrow": self.gov_escrow._asdict(),
            "aggregator": self.aggregator._asdict(),
            "gauges": [g._asdict() for g in self.gauges],
            "emission_schedule": [
                {"start": s, "end": e, "per_week": w} for s, e, w in self.emission_schedule
            ],
            "agents": [_agent_dict(a) for a in self.agents],
        }

    def digest(self) -> str:
        return sha256_hex(canonical_json(self.to_dict()))


def _agent_dict(spec: AgentSpec) -> dict:
    params: dict = {}
    if spec.lock_schedule:
        params["lock_schedule"] = [entry._asdict() for entry in spec.lock_schedule]
    if spec.allocation:
        params["allocation"] = spec.allocation
    if spec.budget_per_round:
        params["budget_per_round"] = spec.budget_per_round
    if spec.own_gauges:
        params["own_gauges"] = spec.own_gauges
        params["bribe_token"] = spec.bribe_token
    if spec.noise:
        params["noise"] = spec.noise
    if spec.exogenous_weights:
        params["exogenous_weights"] = {str(g): w for g, w in spec.exogenous_weights}
    return {"account": spec.account, "strategy": spec.strategy, "params": params}


# -- scenario parsing ---------------------------------------------------------


def _parse_escrow(f: Fields, tokens) -> EscrowConfig:
    f.known(EscrowConfig._fields)
    token = f.string("token")
    if token not in tokens:
        raise f.error(f"unknown token {token}", "token")
    max_lock_weeks = f.integer("max_lock_weeks", minimum=1)
    min_lock_weeks = f.integer("min_lock_weeks", minimum=1, default=1)
    if min_lock_weeks > max_lock_weeks:
        raise f.error("exceeds max_lock_weeks", "min_lock_weeks")
    return EscrowConfig(
        token=token,
        max_lock_weeks=max_lock_weeks,
        min_lock_weeks=min_lock_weeks,
        # a tuple keeps the listed order, which config_digest hashes
        whitelist=tuple(f.string("whitelist", i) for i, _ in enumerate(f.list("whitelist", default=[]))),
        whitelist_enforced=f.boolean("whitelist_enforced", default=False),
    )


def _parse_lock_entry(f: Fields, config_bounds) -> LockEntry:
    f.known(LockEntry._fields)
    kind = f.value("kind")
    if kind not in ("base", "gov", "deposit"):
        raise f.error(f"must be base, gov or deposit, got {kind!r}", "kind")
    epoch = f.integer("epoch", minimum=0)
    amount = f.amount("amount")
    weeks = f.integer("weeks", minimum=0, default=0)
    if kind in ("base", "gov"):
        min_weeks, max_weeks = config_bounds[kind]
        if amount > 0 and not min_weeks <= weeks <= max_weeks:
            raise f.error(f"lock duration {weeks} outside [{min_weeks}, {max_weeks}]", "weeks")
        if amount == 0 and not 0 <= weeks <= max_weeks:
            raise f.error(f"extension {weeks} outside [0, {max_weeks}]", "weeks")
    elif amount == 0:
        raise f.error("deposits must be positive", "amount")
    return LockEntry(epoch=epoch, kind=kind, amount=amount, weeks=weeks)


# an agent's scenario keys, and those of its ``params``: every other
# ``AgentSpec`` argument
_AGENT_KEYS = ("account", "strategy", "params")
_AGENT_PARAMS = (
    "lock_schedule", "allocation", "budget_per_round", "own_gauges", "bribe_token", "noise", "exogenous_weights",
)


def _parse_agent(f: Fields, tokens, gauge_count, config_bounds) -> AgentSpec:
    f.known(_AGENT_KEYS)
    account = f.string("account")
    strategy = f.string("strategy")
    if strategy not in STRATEGIES:
        names = ", ".join(STRATEGIES[:-1]) + f" or {STRATEGIES[-1]}"
        raise f.error(f"must be one of {names}, got {strategy!r}", "strategy")
    params = f.at("params", default={})
    params.known(_AGENT_PARAMS)
    schedule = tuple(_parse_lock_entry(entry, config_bounds) for entry in params.each("lock_schedule", default=[]))
    allocation: dict[int, int] = {}
    for pair in params.each("allocation", size=2, default=[]):
        gauge_id = pair.integer(0, minimum=0, maximum=gauge_count - 1)
        if gauge_id in allocation:
            raise pair.error(f"duplicate gauge {gauge_id}")
        allocation[gauge_id] = pair.integer(1, minimum=0, maximum=BPS)
    if sum(allocation.values()) > BPS:
        raise params.error(f"exceeds {BPS} bps", "allocation")
    budget = params.value("budget_per_round", default=0.0)
    if isinstance(budget, list):
        budget = tuple(params.number("budget_per_round", i, minimum=0) for i, _ in enumerate(budget))
    else:
        budget = params.number("budget_per_round", minimum=0, default=0.0)
    own_gauges = tuple(
        params.integer("own_gauges", i, minimum=0, maximum=gauge_count - 1)
        for i, _ in enumerate(params.list("own_gauges", default=[]))
    )
    if strategy == "SelfPromoter" and not own_gauges:
        raise params.error("a SelfPromoter needs at least one own gauge", "own_gauges")
    bribe_token = params.string("bribe_token", default="BRIBE-USD")
    if (own_gauges or budget) and bribe_token not in tokens:
        raise params.error(f"unknown token {bribe_token}", "bribe_token")
    noise = params.number("noise", default=0.0)
    if not 0.0 <= noise <= 1.0:
        raise params.error("must be within [0, 1]", "noise")
    exogenous = []
    for gauge_id, key in params.gauge_items("exogenous_weights", default={}):
        if gauge_id >= gauge_count:
            raise params.error(f"{gauge_id} is above the maximum of {gauge_count - 1}", "exogenous_weights", key)
        exogenous.append((gauge_id, params.number("exogenous_weights", key, minimum=0)))
    return AgentSpec(
        account=account,
        strategy=strategy,
        lock_schedule=schedule,
        allocation=tuple(allocation.items()),
        budget_per_round=budget,
        own_gauges=own_gauges,
        bribe_token=bribe_token,
        noise=noise,
        exogenous_weights=tuple(exogenous),
    )


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    f = Fields(raw, "scenario")
    f.known(ScenarioConfig._fields)
    tokens = []
    seen_tokens: set[str] = set()
    for entry in f.each("tokens"):
        entry.known(Token._fields)
        symbol = entry.string("symbol")
        if not symbol or symbol in seen_tokens:
            raise entry.error(f"empty or duplicate symbol {symbol!r}", "symbol")
        seen_tokens.add(symbol)
        tokens.append(Token(symbol, entry.boolean("transferable", default=True)))

    prices: dict[str, tuple[tuple[int, float], ...]] = {}
    for token in f.object("price_series"):
        if token not in seen_tokens:
            raise f.error("unknown token", "price_series", token)
        parsed = []
        last = None
        for point in f.each("price_series", token, size=2):
            epoch, price = point.integer(0), point.number(1)
            if price < 0:
                raise point.error("negative price")
            if last is not None and epoch <= last:
                raise point.error("epochs must increase")
            last = epoch
            parsed.append((epoch, price))
        if not parsed:
            raise f.error("needs at least one point", "price_series", token)
        prices[token] = tuple(parsed)
    for symbol in seen_tokens:
        if symbol not in prices or prices[symbol][0][0] > 0:
            raise f.error("every token needs a price at or before epoch 0", "price_series", symbol)

    balances = []
    for row in f.each("initial_balances", size=3, default=[]):
        account, token = row.string(0), row.string(1)
        if token not in seen_tokens:
            raise row.error(f"unknown token {token}")
        balances.append((account, token, row.amount(2)))

    base_escrow = _parse_escrow(f.at("base_escrow"), seen_tokens)
    gov_escrow = _parse_escrow(f.at("gov_escrow"), seen_tokens)

    agg = f.at("aggregator")
    agg.known(AggregatorParams._fields)
    aggregator = AggregatorParams(
        protocol_account=agg.string("protocol_account"),
        wrapper_token=agg.string("wrapper_token"),
        gov_token=agg.string("gov_token"),
    )
    for key in ("wrapper_token", "gov_token"):
        if getattr(aggregator, key) not in seen_tokens:
            raise agg.error("unknown token", key)
    if aggregator.gov_token != gov_escrow.token:
        raise agg.error("must match scenario.gov_escrow.token", "gov_token")

    gauges = []
    for entry in f.each("gauges"):
        entry.known(GaugeSpec._fields)
        shares = [(pair.string(0), pair.integer(1, minimum=1)) for pair in entry.each("lp_accounts", size=2)]
        if sum(bps for _, bps in shares) != BPS:
            raise entry.error(f"shares must sum to {BPS} bps", "lp_accounts")
        gauges.append(GaugeSpec(entry.string("name"), tuple(shares)))

    emissions = []
    for entry in f.each("emission_schedule", default=[]):
        entry.known(("start", "end", "per_week"))
        start = entry.integer("start", minimum=0)
        end = entry.integer("end", minimum=1)
        per_week = entry.amount("per_week")
        if end <= start:
            raise entry.error("must exceed start", "end")
        emissions.append((start, end, per_week))
    # in ``EmissionSchedule`` order, each range must start at or after the end
    # of the one before; an overlap names the later-starting range
    order = sorted(range(len(emissions)), key=emissions.__getitem__)
    for before, later in zip(order, order[1:]):
        start, end, _ = emissions[before]
        if emissions[later][0] < end:
            raise f.error(f"overlaps [{start}, {end})", "emission_schedule", later, "start")

    bounds = {
        "base": (base_escrow.min_lock_weeks, base_escrow.max_lock_weeks),
        "gov": (gov_escrow.min_lock_weeks, gov_escrow.max_lock_weeks),
    }
    bribe_escrow_account = f.string("bribe_escrow_account", default="bribe-market-escrow")
    system_accounts = {
        aggregator.protocol_account: "the aggregator's protocol account",
        bribe_escrow_account: "the bribe escrow account",
    }
    agents = []
    seen_accounts: set[str] = set()
    for entry in f.each("agents", default=[]):
        spec = _parse_agent(entry, seen_tokens, len(gauges), bounds)
        if spec.account in seen_accounts:
            raise entry.error(f"duplicate account {spec.account}", "account")
        if spec.account in system_accounts:
            raise entry.error(f"{spec.account} is {system_accounts[spec.account]}", "account")
        seen_accounts.add(spec.account)
        agents.append(spec)

    return ScenarioConfig(
        name=f.string("name"),
        description=f.string("description", default=""),
        horizon_epochs=f.integer("horizon_epochs", minimum=1),
        rng_seed=f.integer("rng_seed", minimum=0, maximum=MAX_SEED),
        round_length=f.integer("round_length", minimum=1, default=2),
        base_snapshot_cadence=f.integer("base_snapshot_cadence", minimum=1, default=1),
        bootstrap_rounds=f.integer("bootstrap_rounds", minimum=0, default=0),
        tokens=tuple(tokens),
        price_series=prices,
        initial_balances=tuple(balances),
        contract_accounts=tuple(
            f.string("contract_accounts", i) for i, _ in enumerate(f.list("contract_accounts", default=[]))
        ),
        base_escrow=base_escrow,
        gov_escrow=gov_escrow,
        aggregator=aggregator,
        bribe_escrow_account=bribe_escrow_account,
        gauges=tuple(gauges),
        emission_schedule=tuple(emissions),
        agents=tuple(sorted(agents, key=lambda a: a.account)),
    )


def _packaged():
    """The directory of packaged scenarios.  ``importlib.resources`` is
    imported here, not at the top: loading a scenario file needs no package data."""
    from importlib import resources

    return resources.files(__package__) / "scenarios"


def packaged_scenarios() -> dict[str, str]:
    """Names and descriptions of the scenarios shipped with the package."""
    out = {}
    for item in sorted(_packaged().iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            f = Fields(json.loads(item.read_text()), f"{item.name}: ")
            out[f.string("name")] = f.string("description", default="")
    return out


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a packaged scenario name."""
    if os.path.exists(source):
        with _reading(source), open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        candidate = _packaged() / f"{source}.json"
        if not candidate.is_file():
            raise ScenarioError(f"no scenario file or packaged scenario named {source!r}")
        text = candidate.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: JSON parse error at line {exc.lineno}: {exc.msg}") from None
    except ValueError:  # ``int`` refused an integer: the first one of more digits than it converts
        limit = sys.get_int_max_str_digits()
        start = next(token.start() for token in _JSON_TOKEN.finditer(text) if len(token[1] or "") > limit)
        line = text.count("\n", 0, start) + 1
        raise ScenarioError(f"{source}: JSON parse error at line {line}: {_long_integer()}") from None
    except RecursionError:
        raise ScenarioError(f"{source}: JSON parse error: nested too deeply") from None
    return scenario_from_dict(raw)


# a JSON string or number; group 1 is an integer's digits (no fraction, no exponent)
_JSON_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|-?([0-9]+)(?![0-9.eE])|-?[0-9.eE+-]+')


def _parse_ratio(text, bounded: bool = True) -> tuple[int, int] | None:
    """A trace weight ``"n"`` or ``"n/d"`` as ``(n, d)``, each part ASCII
    digits, d > 0, whose value a float can hold (unless not ``bounded``), since
    readers divide it into one; None for any other value.  ``int`` alone would
    also take "+1", " 1", "1_0" and non-ASCII digits."""
    if type(text) is not str:
        if not isinstance(text, str):
            return None
        text = str.__str__(text)  # a plain copy: a subclass reads by its characters alone
    n, slash, d = text.partition("/")
    if not (n.isascii() and n.isdigit() and (not slash or d.isascii() and d.isdigit())):
        return None
    try:
        num, den = int(n), int(d) if slash else 1
    except ValueError:  # more digits than ``int`` converts
        return None
    if den == 0:
        return None
    if bounded:
        try:
            num / den
        except OverflowError:
            return None
    return num, den


def _parse_gauge_id(key: str) -> int | None:
    """A gauge-id key as an int, or None.  Only canonical decimal (``str(g)``,
    as the trace writes it) reads, so "07" is not a second key for gauge 7."""
    if key.isascii() and key.isdigit() and (key[0] != "0" or key == "0"):
        try:
            return int(key)
        except ValueError:  # more digits than ``int`` converts
            pass
    return None


def _long_integer() -> str:
    """Why a JSON parse failed with a ``ValueError`` that is not a ``JSONDecodeError``:
    only ``int`` raises one, for an integer of more digits than it converts."""
    return f"an integer of more than {sys.get_int_max_str_digits()} digits"


@contextlib.contextmanager
def _reading(path: str):
    """Name ``path`` if a text read of it fails: with the system's reason if it
    cannot be read, or with its first line that is not UTF-8."""
    try:
        yield
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc.strerror or exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ScenarioError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from None
        raise ScenarioError(f"{path}: not valid UTF-8") from None


_REQUIRED = object()  # the default of a read whose field must be present


class Fields:
    """Typed reads from a decoded JSON document (a scenario or a trace record)
    by a path of object keys and list indexes, such as ``("agents", 0, "params")``.

    A missing required field or a value of the wrong type raises ``ScenarioError``
    naming ``prefix`` and the path, such as ``scenario.agents[0].params.noise`` or
    ``trace epoch 3: snapshot.emissions`` (after a prefix ending in a space the
    first key takes no dot); the text is built only when it raises.  A read given
    ``default`` returns it where a field on the way is absent or null.
    """

    __slots__ = ("root", "prefix", "base", "whole")

    def __init__(self, root, prefix: str, base: tuple = (), whole: bool = False):
        self.root, self.prefix, self.base = root, prefix, base
        self.whole = whole  # errors name the list at ``base``, not an entry of it

    def error(self, problem: str, *path) -> ScenarioError:
        where = self.prefix
        for key in self.base if self.whole else self.base + path:
            where += f"[{key}]" if isinstance(key, int) else key if where.endswith(" ") else f".{key}"
        return ScenarioError(f"{where}: {problem}")

    def known(self, keys) -> None:
        """Refuse a key of this object that is not one of ``keys``: a misspelt
        field would otherwise read as absent and silently take its default."""
        for key in self.object():
            if key not in keys:
                raise self.error("unknown field", key)

    def value(self, *path, default=_REQUIRED):
        """The value at ``path``, of any type."""
        return self._get(path, default)

    def _get(self, path: tuple, default):
        node = self.root
        try:
            for key in path:
                node = node[key]
        except (KeyError, IndexError, TypeError):
            if type(node) is dict and default is not _REQUIRED:
                return default  # a key on the way is absent
            # walk again, step by step, to return the default or say what failed
            node = self.root
            for depth, key in enumerate(path):
                if isinstance(key, int):
                    if not isinstance(node, (list, tuple)):
                        raise self.error("expected a list", *path[:depth])
                    found = key < len(node)
                elif isinstance(node, dict):
                    found = key in node
                else:
                    raise self.error(f"expected an object, got {type(node).__name__}", *path[:depth])
                if found:
                    node = node[key]
                if not found or (node is None and default is not _REQUIRED):
                    if default is _REQUIRED:
                        raise self.error("required field missing", *path[: depth + 1])
                    return default
        return default if node is None and default is not _REQUIRED else node

    def object(self, *path, default=_REQUIRED) -> dict:
        value = self._get(path, default)
        if not isinstance(value, dict):
            raise self.error(f"expected an object, got {type(value).__name__}", *path)
        return value

    def list(self, *path, size: int | None = None, default=_REQUIRED):
        value = self._get(path, default)
        if not isinstance(value, (list, tuple)) or size is not None and len(value) != size:
            raise self.error("expected a list" if size is None else f"expected a list of {size} entries", *path)
        return value

    def integer(self, *path, minimum=None, maximum=None, default=_REQUIRED) -> int:
        value = self._get(path, default)
        if type(value) is not int:
            raise self.error(f"expected an integer, got {value!r}", *path)
        if minimum is not None and value < minimum:
            raise self.error(f"{value} is below the minimum of {minimum}", *path)
        if maximum is not None and value > maximum:
            raise self.error(f"{value} is above the maximum of {maximum}", *path)
        return value

    def boolean(self, *path, default=_REQUIRED) -> bool:
        """JSON ``true`` or ``false``; any other value fails, the string "false" too."""
        value = self._get(path, default)
        if type(value) is not bool:
            raise self.error(f"expected true or false, got {value!r}", *path)
        return value

    def number(self, *path, null: bool = False, minimum=None, default=_REQUIRED) -> float | None:
        """A finite number as a float, not below ``minimum`` if one is given;
        with ``null``, JSON null reads as None."""
        value = self._get(path, default)
        if value is None and null:
            return None
        # the bound also rejects NaN, ±inf and integers too large for a float
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
            raise self.error(f"expected a finite number{' or null' if null else ''}, got {value!r}", *path)
        if minimum is not None and value < minimum:
            raise self.error(f"{value} is below the minimum of {minimum}", *path)
        return float(value)

    def amount(self, *path) -> int:
        """A token quantity, a number or a decimal string, in base units."""
        try:
            return base_units(self._get(path, _REQUIRED))
        except VeTokenSimError as exc:
            raise self.error(str(exc), *path) from None

    def string(self, *path, default=_REQUIRED) -> str:
        value = self._get(path, default)
        if not isinstance(value, str):
            raise self.error(f"expected a string, got {value!r}", *path)
        return value

    def gauge_id(self, *path) -> int:
        """The gauge-id key that ends ``path``, as an int (``_parse_gauge_id``)."""
        gauge = _parse_gauge_id(path[-1])
        if gauge is None:
            raise self.error(f"expected a gauge id, got {path[-1]!r}", *path)
        return gauge

    def gauge_items(self, *path, default=_REQUIRED) -> list[tuple[int, str]]:
        """``(gauge id, key)`` per key of the object at ``path``, by gauge id;
        the first key in document order that is not a gauge id raises."""
        items = []
        for key in self.object(*path, default=default):
            gauge = _parse_gauge_id(key)
            items.append((self.gauge_id(*path, key) if gauge is None else gauge, key))
        return sorted(items)

    def ratio(self, *path, default=_REQUIRED) -> tuple[int, int]:
        """A trace weight ``"n"`` or ``"n/d"`` as ``(n, d)`` (``_parse_ratio``)."""
        text = self._get(path, default)
        pair = _parse_ratio(text)
        if pair is None:
            problem = "a ratio at most the largest float" if _parse_ratio(text, bounded=False) else "a ratio n or n/d"
            raise self.error(f"expected {problem}, got {text!r}", *path)
        return pair

    def at(self, *path, default=_REQUIRED) -> Fields:
        """A reader of the object at ``path``."""
        return Fields(self.object(*path, default=default), self.prefix, self.base + path)

    def each(self, *path, size: int | None = None, default=_REQUIRED):
        """A reader of each entry of the list at ``path``: an object, or with
        ``size`` a list of that many entries (an ``[epoch, price]`` point, say)
        whose errors name that list."""
        base = self.base + path
        for i, entry in enumerate(self.list(*path, default=default)):
            if size is None:
                yield Fields(entry, self.prefix, base + (i,)) if type(entry) is dict else self.at(*path, i)
            elif isinstance(entry, (list, tuple)) and len(entry) == size:
                yield Fields(entry, self.prefix, base + (i,), whole=True)
            else:
                self.list(*path, i, size=size)  # raises
