"""Scenario loading, the deterministic epoch loop, and trace recording.

Each epoch runs a fixed phase order: agents observe and act (in ascending
account order), any round closing this epoch is finalized and its bribes
settled, then the weekly weight snapshot is taken and emissions distributed.
Every epoch appends one full trace row; re-running the same scenario (same
seed) reproduces the trace byte for byte.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
from importlib import resources
from typing import NamedTuple

from .aggregator import Aggregator
from .agents import (
    STRATEGIES,
    AgentSpec,
    BaseVoteAction,
    BribeAction,
    DepositAction,
    LockAction,
    LockEntry,
    MetaVoteAction,
    Observation,
    decide,
)
from .bribemarket import BribeMarket
from .errors import LedgerError, ScenarioError, SimulationError, VeTokenSimError
from .escrow import Escrow, EscrowConfig
from .gauges import BPS, EmissionSchedule, GaugeController
from .ledger import Ledger, PriceSeries, Token, base_units

MAX_SEED = 2**64 - 1


class GaugeSpec(NamedTuple):
    name: str
    lp_accounts: tuple[tuple[str, int], ...]


class AggregatorParams(NamedTuple):
    protocol_account: str
    wrapper_token: str
    gov_token: str


class ScenarioConfig:
    def __init__(self, name: str, horizon_epochs: int, rng_seed: int, tokens: tuple[Token, ...],
                 price_series: dict[str, tuple[tuple[int, float], ...]],
                 initial_balances: tuple[tuple[str, str, int], ...],
                 base_escrow: EscrowConfig, gov_escrow: EscrowConfig, aggregator: AggregatorParams,
                 gauges: tuple[GaugeSpec, ...], emission_schedule: tuple[tuple[int, int, int], ...],
                 agents: tuple[AgentSpec, ...], round_length: int, base_snapshot_cadence: int,
                 contract_accounts: tuple[str, ...], bribe_escrow_account: str, bootstrap_rounds: int,
                 description: str):
        self.name = name
        self.horizon_epochs = horizon_epochs
        self.rng_seed = rng_seed
        self.tokens = tokens
        self.price_series = price_series
        self.initial_balances = initial_balances
        self.base_escrow = base_escrow
        self.gov_escrow = gov_escrow
        self.aggregator = aggregator
        self.gauges = gauges
        self.emission_schedule = emission_schedule
        self.agents = agents
        self.round_length = round_length
        self.base_snapshot_cadence = base_snapshot_cadence
        self.contract_accounts = contract_accounts
        self.bribe_escrow_account = bribe_escrow_account
        self.bootstrap_rounds = bootstrap_rounds
        self.description = description

    def to_dict(self) -> dict:
        """The config as JSON-ready values (tuples dump as lists): what ``digest`` hashes."""
        return {
            "name": self.name,
            "description": self.description,
            "horizon_epochs": self.horizon_epochs,
            "round_length": self.round_length,
            "base_snapshot_cadence": self.base_snapshot_cadence,
            "rng_seed": self.rng_seed,
            "bootstrap_rounds": self.bootstrap_rounds,
            "tokens": [t._asdict() for t in self.tokens],
            "price_series": {t: [list(p) for p in pts] for t, pts in sorted(self.price_series.items())},
            "initial_balances": [list(row) for row in self.initial_balances],
            "contract_accounts": list(self.contract_accounts),
            "base_escrow": self.base_escrow._asdict(),
            "gov_escrow": self.gov_escrow._asdict(),
            "aggregator": self.aggregator._asdict(),
            "bribe_escrow_account": self.bribe_escrow_account,
            "gauges": [g._asdict() for g in self.gauges],
            "emission_schedule": [
                {"start": s, "end": e, "per_week": w} for s, e, w in self.emission_schedule
            ],
            "agents": [_agent_dict(a) for a in self.agents],
        }

    def digest(self) -> str:
        import hashlib  # here, not at the top: only ``run`` hashes, and importing it loads OpenSSL
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _agent_dict(spec: AgentSpec) -> dict:
    params: dict = {}
    if spec.lock_schedule:
        params["lock_schedule"] = [entry._asdict() for entry in spec.lock_schedule]
    if spec.allocation:
        params["allocation"] = [list(pair) for pair in spec.allocation]
    if spec.budget_per_round:
        budget = spec.budget_per_round
        params["budget_per_round"] = list(budget) if isinstance(budget, tuple) else budget
    if spec.own_gauges:
        params["own_gauges"] = list(spec.own_gauges)
        params["bribe_token"] = spec.bribe_token
    if spec.noise:
        params["noise"] = spec.noise
    if spec.exogenous_weights:
        params["exogenous_weights"] = {str(g): w for g, w in spec.exogenous_weights}
    return {"account": spec.account, "strategy": spec.strategy, "params": params}


# -- scenario parsing ---------------------------------------------------------


def _parse_escrow(f: Fields, tokens) -> EscrowConfig:
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


def _parse_agent(f: Fields, tokens, gauge_count, config_bounds) -> AgentSpec:
    account = f.string("account")
    strategy = f.string("strategy")
    if strategy not in STRATEGIES:
        names = ", ".join(STRATEGIES[:-1]) + f" or {STRATEGIES[-1]}"
        raise f.error(f"must be one of {names}, got {strategy!r}", "strategy")
    params = f.at("params", default={})
    schedule = tuple(_parse_lock_entry(entry, config_bounds) for entry in params.each("lock_schedule", default=[]))
    allocation = [
        (pair.integer(0, minimum=0, maximum=gauge_count - 1), pair.integer(1, minimum=0, maximum=BPS))
        for pair in params.each("allocation", size=2, default=[])
    ]
    if sum(b for _, b in allocation) > BPS:
        raise params.error(f"exceeds {BPS} bps", "allocation")
    budget = params.value("budget_per_round", default=0.0)
    if isinstance(budget, list):
        budget = tuple(params.number("budget_per_round", i) for i, _ in enumerate(budget))
    else:
        budget = params.number("budget_per_round", default=0.0)
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
        exogenous.append((gauge_id, params.number("exogenous_weights", key)))
    return AgentSpec(
        account=account,
        strategy=strategy,
        lock_schedule=schedule,
        allocation=tuple(allocation),
        budget_per_round=budget,
        own_gauges=own_gauges,
        bribe_token=bribe_token,
        noise=noise,
        exogenous_weights=tuple(exogenous),
    )


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    f = Fields(raw, "scenario")
    tokens = []
    seen_tokens: set[str] = set()
    for entry in f.each("tokens"):
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
        shares = [(pair.string(0), pair.integer(1, minimum=1)) for pair in entry.each("lp_accounts", size=2)]
        if sum(bps for _, bps in shares) != BPS:
            raise entry.error(f"shares must sum to {BPS} bps", "lp_accounts")
        gauges.append(GaugeSpec(entry.string("name"), tuple(shares)))

    emissions = []
    for entry in f.each("emission_schedule", default=[]):
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
    agents = []
    seen_accounts: set[str] = set()
    for entry in f.each("agents", default=[]):
        spec = _parse_agent(entry, seen_tokens, len(gauges), bounds)
        if spec.account in seen_accounts:
            raise entry.error(f"duplicate account {spec.account}", "account")
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
        bribe_escrow_account=f.string("bribe_escrow_account", default="bribe-market-escrow"),
        gauges=tuple(gauges),
        emission_schedule=tuple(emissions),
        agents=tuple(sorted(agents, key=lambda a: a.account)),
    )


def packaged_scenarios() -> dict[str, str]:
    """Names and descriptions of the scenarios shipped with the package."""
    out = {}
    root = resources.files(__package__) / "scenarios"
    for item in sorted(root.iterdir(), key=lambda p: p.name):
        if item.name.endswith(".json"):
            f = Fields(json.loads(item.read_text()), f"{item.name}: ")
            out[f.string("name")] = f.string("description", default="")
    return out


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a packaged scenario name."""
    if os.path.exists(source):
        with _utf8(source), open(source, "r", encoding="utf-8") as handle:
            text = handle.read()
    else:
        candidate = resources.files(__package__) / "scenarios" / f"{source}.json"
        if not candidate.is_file():
            raise ScenarioError(f"no scenario file or packaged scenario named {source!r}")
        text = candidate.read_text()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"{source}: JSON parse error at line {exc.lineno}: {exc.msg}") from None
    return scenario_from_dict(raw)


# -- the epoch loop -----------------------------------------------------------


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


@contextlib.contextmanager
def _utf8(path: str):
    """Name the first line of ``path`` that is not UTF-8 if a text read fails on one."""
    try:
        yield
    except UnicodeDecodeError:
        with open(path, "rb") as handle:
            for lineno, line in enumerate(handle, 1):
                try:
                    line.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ScenarioError(f"{path}:{lineno}: not valid UTF-8: {exc.reason}") from None
        raise ScenarioError(f"{path}: not valid UTF-8") from None


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
        """The gauge-id key that ends ``path``, as an int."""
        if not (path[-1].isascii() and path[-1].isdigit()):
            raise self.error(f"expected a gauge id, got {path[-1]!r}", *path)
        return int(path[-1])

    def gauge_items(self, *path, default=_REQUIRED) -> list[tuple[int, str]]:
        """``(gauge id, key)`` per key of the object at ``path``, by gauge id."""
        return sorted((self.gauge_id(*path, key), key) for key in self.object(*path, default=default))

    def ratio(self, *path, default=_REQUIRED) -> tuple[int, int]:
        """A trace weight ``"n"`` or ``"n/d"`` as ``(n, d)``, n >= 0, d > 0, whose
        value a float can hold, since readers divide it into one."""
        text = self._get(path, default)
        try:
            num, slash, den = text.partition("/")
            num, den = int(num), int(den) if slash else 1
        except (AttributeError, ValueError):
            num = den = -1
        if num < 0 or den <= 0:
            raise self.error(f"expected a ratio n or n/d, got {text!r}", *path)
        try:
            num / den
        except OverflowError:
            raise self.error(f"expected a ratio at most the largest float, got {text!r}", *path) from None
        return num, den

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


def _ratio_str(num: int, den: int) -> str:
    """The one writer of trace ratios: ``str(Fraction(num, den))`` for num >= 0,
    den > 0, without building a Fraction."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def _weight_strs(escrow: Escrow, epoch: int) -> dict[str, str]:
    den = escrow.weight_denominator
    return {a: _ratio_str(escrow.weight_numerator(a, epoch), den) for a in sorted(escrow.locks)}


def _shared(memo: dict, key: tuple, build) -> dict:
    """``build(key)``, built once per ``key`` in ``memo``: most rows repeat the row before."""
    entry = memo.get(key)
    if entry is None:
        entry = memo[key] = build(key)
    return entry


def _lock_entry(key: tuple) -> dict:
    return dict(zip(("amount", "unlock_epoch", "created_epoch"), key))


def _ballot_entry(key: tuple) -> dict:
    return {str(g): bps for g, bps in key}


def _vote_entry(key: tuple) -> dict:
    kind, account, round_id, allocation = key
    entry = {"account": account, "kind": kind, "round": round_id, "allocation": [list(p) for p in allocation]}
    if kind == "base_vote":  # a base vote belongs to no round
        del entry["round"]
    return entry


def _noise_seed(seed: int, account: str, round_id: int) -> int:
    import hashlib  # here, not at the top: only ``run`` hashes, and importing it loads OpenSSL
    digest = hashlib.sha256(f"{seed}:{account}:{round_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class World:
    """Mutable protocol state assembled from a scenario config.  The config's
    values are trusted: ``scenario_from_dict`` is the one place that checks them."""

    def __init__(self, config: ScenarioConfig):
        self.config = config
        self.ledger = Ledger()
        for token in config.tokens:
            self.ledger.register_token(token.symbol, token.transferable)
        self.prices = PriceSeries()
        for token, points in sorted(config.price_series.items()):
            for epoch, price in points:
                self.prices.add_point(token, epoch, price)
        for account, token, amount in config.initial_balances:
            self.ledger.mint(token, account, amount)
        contract_accounts = frozenset(config.contract_accounts)
        self.base_escrow = Escrow(config.base_escrow, self.ledger, contract_accounts)
        schedule = EmissionSchedule(config.emission_schedule)
        self.controller = GaugeController(
            self.base_escrow, self.ledger, schedule, config.base_escrow.token
        )
        self.aggregator = Aggregator(
            ledger=self.ledger,
            base_escrow=self.base_escrow,
            controller=self.controller,
            protocol_account=config.aggregator.protocol_account,
            wrapper_token=config.aggregator.wrapper_token,
            gov_escrow_config=config.gov_escrow,
            contract_accounts=contract_accounts,
            round_length=config.round_length,
        )
        self.market = BribeMarket(self.ledger, self.aggregator, self.prices, config.bribe_escrow_account)
        for gauge in config.gauges:
            self.controller.add_gauge(gauge.lp_accounts)
        self.agents = list(config.agents)  # already sorted by account
        # row entries by value (lock, ballot and base-vote keys never compare
        # equal); a meta vote names its round, so it is kept while that is open
        self._entries: dict[tuple, dict] = {}
        self._round_votes: dict[tuple, dict] = {}

    def header(self) -> dict:
        return {
            "format_version": 1,
            "scenario_name": self.config.name,
            "config_digest": self.config.digest(),
            "rng_seed": self.config.rng_seed,
            "horizon_epochs": self.config.horizon_epochs,
            "round_length": self.config.round_length,
            "base_snapshot_cadence": self.config.base_snapshot_cadence,
            "bootstrap_rounds": self.config.bootstrap_rounds,
            "base_token": self.config.base_escrow.token,
            "gov_token": self.config.aggregator.gov_token,
            "wrapper_token": self.config.aggregator.wrapper_token,
            "protocol_account": self.config.aggregator.protocol_account,
            "bribe_escrow_account": self.config.bribe_escrow_account,
            "gauges": {str(g): spec.name for g, spec in enumerate(self.config.gauges)},
        }

    # -- observations ---------------------------------------------------------

    def _round_bribes_usd(self, round_id: int, epoch: int) -> dict[int, float]:
        totals: dict[int, float] = {}
        for deposit in self.market.deposits.get(round_id, ()):
            usd = self.prices.usd_value(deposit.token, deposit.amount, epoch)
            totals[deposit.gauge_id] = totals.get(deposit.gauge_id, 0.0) + usd
        return totals

    def _prev_round_weights(self, round_id: int) -> dict[int, float]:
        prev = self.aggregator.rounds.get(round_id - 1)
        if prev is None:
            return {}
        return {g: num / prev.cut_den for g, num in prev.tally_num.items()}

    def _observation(self, spec: AgentSpec, epoch: int, rnd, bribes, prev, prices_now, active) -> Observation:
        gov_escrow = self.aggregator.gov_escrow
        return Observation(
            epoch=epoch,
            round_id=rnd.round_id,
            round_open_epoch=rnd.open_epoch,
            round_close_epoch=rnd.close_epoch,
            bribes_usd=dict(bribes),
            prev_round_weights=dict(prev),
            own_gov_weight_at_close=(
                gov_escrow.weight_numerator(spec.account, rnd.close_epoch) / gov_escrow.weight_denominator
            ),
            own_base_weight=(
                self.base_escrow.weight_numerator(spec.account, epoch) / self.base_escrow.weight_denominator
            ),
            active_gauges=active,
            token_prices=dict(prices_now),
            gov_max_lock_weeks=gov_escrow.config.max_lock_weeks,
            base_max_lock_weeks=self.base_escrow.config.max_lock_weeks,
            # only ``_apply_noise`` reads the seed, and only when there is noise
            noise_seed=_noise_seed(self.config.rng_seed, spec.account, rnd.round_id) if spec.noise else 0,
        )

    # -- applying actions -------------------------------------------------------

    def _apply_lock(self, account: str, action: LockAction, epoch: int, events: list) -> None:
        escrow = self.base_escrow if action.escrow == "base" else self.aggregator.gov_escrow
        label = "base" if action.escrow == "base" else "governance"
        lock = escrow.lock(account, action.amount, action.unlock_epoch, epoch)
        if lock is None:
            return
        events.append(
            {
                "account": account,
                "escrow": label,
                "amount": action.amount,
                "unlock_epoch": lock.unlock_epoch,
                "usd_cost": self.prices.usd_value(escrow.config.token, action.amount, epoch),
            }
        )

    def _apply(self, spec: AgentSpec, action, epoch: int, rnd, row_events: dict) -> None:
        if isinstance(action, LockAction):
            self._apply_lock(spec.account, action, epoch, row_events["lock_events"])
        elif isinstance(action, DepositAction):
            self.aggregator.deposit_and_lock(spec.account, action.amount, epoch)
            row_events["deposit_events"].append(
                {
                    "account": spec.account,
                    "amount": action.amount,
                    "usd_cost": self.prices.usd_value(self.aggregator.base_token, action.amount, epoch),
                }
            )
        elif isinstance(action, BribeAction):
            self.market.post_bribe(
                rnd.round_id, action.gauge_id, spec.account, action.token, action.amount, epoch
            )
            row_events["bribe_events"].append(
                {
                    "round": rnd.round_id,
                    "gauge": action.gauge_id,
                    "briber": spec.account,
                    "token": action.token,
                    "amount": action.amount,
                    "usd_at_post": self.prices.usd_value(action.token, action.amount, epoch),
                }
            )
        elif isinstance(action, MetaVoteAction):
            self.aggregator.cast_meta_vote(spec.account, rnd.round_id, list(action.allocation), epoch)
            key = ("meta_vote", spec.account, rnd.round_id, action.allocation)
            row_events["actions"].append(_shared(self._round_votes, key, _vote_entry))
        elif isinstance(action, BaseVoteAction):
            self.controller.vote_for_gauge_weights(spec.account, list(action.allocation), epoch)
            key = ("base_vote", spec.account, None, action.allocation)
            row_events["actions"].append(_shared(self._entries, key, _vote_entry))
        else:
            raise SimulationError(f"unknown action type {type(action).__name__}")

    # -- one epoch -----------------------------------------------------------------

    def step(self, epoch: int) -> dict:
        self.aggregator.refresh_max_lock(epoch)
        rnd = self.aggregator.ensure_round(epoch)
        if epoch == rnd.open_epoch:
            self._round_votes.clear()
        bribes = self._round_bribes_usd(rnd.round_id, epoch)
        prev = self._prev_round_weights(rnd.round_id)
        prices_now = {t: self.prices.usd_price(t, epoch) for t in sorted(self.ledger.tokens)}
        active = tuple(self.controller.gauges)
        row_events = {
            "lock_events": [],
            "deposit_events": [],
            "bribe_events": [],
            "actions": [],
        }
        for spec in self.agents:
            obs = self._observation(spec, epoch, rnd, bribes, prev, prices_now, active)
            try:
                actions = decide(spec, obs)
                for action in actions:
                    self._apply(spec, action, epoch, rnd, row_events)
            except VeTokenSimError as exc:
                raise SimulationError(f"epoch {epoch}, agent {spec.account}: {exc}") from exc

        finalized_row = None
        settlement_row = None
        if epoch > 0 and epoch % self.config.round_length == 0:
            closing_id = epoch // self.config.round_length - 1
            closing = self.aggregator.rounds.get(closing_id)
            if closing is not None and not closing.finalized:
                try:
                    self.aggregator.finalize_round(closing_id, epoch)
                    settlement = self.market.settle_round(closing_id)
                except VeTokenSimError as exc:
                    raise SimulationError(f"epoch {epoch}, round {closing_id}: {exc}") from exc
                finalized_row = self._finalized_row(closing)
                settlement_row = self._settlement_row(settlement, closing.cut_den)

        snapshot_row = None
        if epoch % self.config.base_snapshot_cadence == 0:
            weights = self.controller.take_snapshot(epoch)
            try:
                emission_events = self.controller.distribute_emissions(epoch)
            except VeTokenSimError as exc:
                raise SimulationError(f"epoch {epoch}: {exc}") from exc
            per_gauge: dict[str, int] = {}
            for gauge_id, _, amount in emission_events:
                per_gauge[str(gauge_id)] = per_gauge.get(str(gauge_id), 0) + amount
            total = sum(weights.values()) or 1  # no weight anywhere: every gauge reads "0"
            snapshot_row = {
                "relative_weights": {str(g): _ratio_str(n, total) for g, n in sorted(weights.items())},
                "emissions": per_gauge,
                "emission_total": sum(per_gauge.values()),
            }

        try:
            token_totals = self.ledger.assert_conservation()
        except LedgerError as exc:
            raise SimulationError(f"epoch {epoch}: {exc}") from exc
        return self._row(epoch, rnd, row_events, finalized_row, settlement_row, snapshot_row, token_totals)

    def _finalized_row(self, rnd) -> dict:
        weight_den, cut_den = rnd.weight_den, rnd.cut_den
        tally_total = sum(rnd.tally_num.values())
        return {
            "round": rnd.round_id,
            "open_epoch": rnd.open_epoch,
            "close_epoch": rnd.close_epoch,
            "ballots": {v: {str(g): bps for g, bps in sorted(b.items())} for v, b in sorted(rnd.ballots.items())},
            "counted_weight": {v: _ratio_str(n, weight_den) for v, n in sorted(rnd.counted_num.items())},
            "voter_mass": {
                v: _ratio_str(sum(per.values()), cut_den) for v, per in sorted(rnd.voter_gauge_num.items())
            },
            "tally": {str(g): _ratio_str(n, cut_den) for g, n in sorted(rnd.tally_num.items())},
            "tally_total": _ratio_str(tally_total, cut_den),
            "total_gov_weight": _ratio_str(rnd.total_gov_num, weight_den),
            "result": {str(g): _ratio_str(n, tally_total) for g, n in sorted(rnd.tally_num.items())},
            "base_allocation": (
                {str(g): bps for g, bps in sorted(rnd.base_allocation.items())}
                if rnd.base_allocation
                else None
            ),
        }

    def _settlement_row(self, settlement, cut_den: int) -> dict:
        gauges = {}
        for gauge_id, gs in sorted(settlement.gauges.items()):
            gauges[str(gauge_id)] = {
                "deposits": dict(sorted(gs.deposits.items())),
                "bribe_usd": gs.bribe_usd,
                "briber_usd": dict(sorted(gs.briber_usd.items())),
                "vote_weight": _ratio_str(gs.vote_num, cut_den),
                "usd_per_vote": gs.usd_per_vote,
                "payouts": {v: dict(sorted(t.items())) for v, t in sorted(gs.payouts.items())},
                "refunds": {b: dict(sorted(t.items())) for b, t in sorted(gs.refunds.items())},
            }
        return {"round": settlement.round_id, "close_epoch": settlement.close_epoch, "gauges": gauges}

    def _row(self, epoch, rnd, row_events, finalized_row, settlement_row, snapshot_row, token_totals) -> dict:
        gov_escrow = self.aggregator.gov_escrow
        entries = self._entries
        return {
            "type": "epoch",
            "epoch": epoch,
            "round_id": rnd.round_id,
            "ledger_digest": self.ledger.digest(),
            "token_totals": token_totals,
            "escrow_weights": {
                "base": _weight_strs(self.base_escrow, epoch),
                "governance": _weight_strs(gov_escrow, epoch),
            },
            "locks": {
                label: {
                    a: _shared(entries, (l.amount, l.unlock_epoch, l.created_epoch), _lock_entry)
                    for a, l in sorted(escrow.locks.items())
                }
                for label, escrow in (("base", self.base_escrow), ("governance", gov_escrow))
            },
            "base_votes": {
                a: _shared(entries, tuple(sorted(alloc.items())), _ballot_entry)
                for a, alloc in sorted(self.controller.allocations.items())
            },
            "lock_events": row_events["lock_events"],
            "deposit_events": row_events["deposit_events"],
            "bribe_events": row_events["bribe_events"],
            "actions": row_events["actions"],
            "round_finalized": finalized_row,
            "settlement": settlement_row,
            "snapshot": snapshot_row,
        }


def run_scenario(config: ScenarioConfig) -> SimTrace:
    world = World(config)
    return SimTrace(world.header(), [world.step(epoch) for epoch in range(config.horizon_epochs)])
