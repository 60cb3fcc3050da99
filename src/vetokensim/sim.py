"""Scenario loading, the deterministic epoch loop, and trace recording.

Each epoch runs a fixed phase order: agents observe and act (in ascending
account order), any round closing this epoch is finalized and its bribes
settled, then the weekly weight snapshot is taken and emissions distributed.
Every epoch appends one full trace row; re-running the same scenario (same
seed) reproduces the trace byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
from dataclasses import dataclass
from importlib import resources

from .aggregator import Aggregator
from .agents import (
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


@dataclass(frozen=True)
class GaugeSpec:
    name: str
    lp_accounts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class AggregatorParams:
    protocol_account: str
    wrapper_token: str
    gov_token: str


@dataclass
class ScenarioConfig:
    name: str
    horizon_epochs: int
    rng_seed: int
    tokens: tuple[Token, ...]
    price_series: dict[str, tuple[tuple[int, float], ...]]
    initial_balances: tuple[tuple[str, str, int], ...]
    base_escrow: EscrowConfig
    gov_escrow: EscrowConfig
    aggregator: AggregatorParams
    gauges: tuple[GaugeSpec, ...]
    emission_schedule: tuple[tuple[int, int, int], ...]
    agents: tuple[AgentSpec, ...]
    round_length: int = 2
    base_snapshot_cadence: int = 1
    contract_accounts: tuple[str, ...] = ()
    bribe_escrow_account: str = "bribe-market-escrow"
    bootstrap_rounds: int = 0
    description: str = ""

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "horizon_epochs": self.horizon_epochs,
            "round_length": self.round_length,
            "base_snapshot_cadence": self.base_snapshot_cadence,
            "rng_seed": self.rng_seed,
            "bootstrap_rounds": self.bootstrap_rounds,
            "tokens": [{"symbol": t.symbol, "transferable": t.transferable} for t in self.tokens],
            "price_series": {t: [list(p) for p in pts] for t, pts in sorted(self.price_series.items())},
            "initial_balances": [list(row) for row in self.initial_balances],
            "contract_accounts": list(self.contract_accounts),
            "base_escrow": _escrow_dict(self.base_escrow),
            "gov_escrow": _escrow_dict(self.gov_escrow),
            "aggregator": {
                "protocol_account": self.aggregator.protocol_account,
                "wrapper_token": self.aggregator.wrapper_token,
                "gov_token": self.aggregator.gov_token,
            },
            "bribe_escrow_account": self.bribe_escrow_account,
            "gauges": [{"name": g.name, "lp_accounts": [list(s) for s in g.lp_accounts]} for g in self.gauges],
            "emission_schedule": [
                {"start": s, "end": e, "per_week": w} for s, e, w in self.emission_schedule
            ],
            "agents": [_agent_dict(a) for a in self.agents],
        }

    def digest(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()


def _escrow_dict(params: EscrowConfig) -> dict:
    return {
        "token": params.token,
        "min_lock_weeks": params.min_lock_weeks,
        "max_lock_weeks": params.max_lock_weeks,
        "whitelist": list(params.whitelist),
        "whitelist_enforced": params.whitelist_enforced,
    }


def _agent_dict(spec: AgentSpec) -> dict:
    params: dict = {}
    if spec.lock_schedule:
        params["lock_schedule"] = [
            {"epoch": e.epoch, "kind": e.kind, "amount": e.amount, "weeks": e.weeks}
            for e in spec.lock_schedule
        ]
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


def _as_object(value, context: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{context}: expected an object")
    return value


def _as_list(value, context: str) -> list:
    if not isinstance(value, (list, tuple)):
        raise ScenarioError(f"{context}: expected a list")
    return value


def _as_tuple(value, context: str, size: int) -> list:
    """A list of exactly ``size`` entries, such as an ``[epoch, price]`` point."""
    if not isinstance(value, (list, tuple)) or len(value) != size:
        raise ScenarioError(f"{context}: expected a list of {size} entries")
    return value


def _need(raw: dict, key: str, context: str):
    if key not in _as_object(raw, context):
        raise ScenarioError(f"{context}.{key}: required field missing")
    return raw[key]


def _as_int(value, context: str, minimum=None, maximum=None) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise ScenarioError(f"{context}: expected an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ScenarioError(f"{context}: {value} is below the minimum of {minimum}")
    if maximum is not None and value > maximum:
        raise ScenarioError(f"{context}: {value} is above the maximum of {maximum}")
    return value


def _as_float(value, context: str) -> float:
    # the bound also rejects NaN, ±inf and integers too large for a float
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"{context}: expected a finite number, got {value!r}")
    return float(value)


def _as_amount(value, context: str) -> int:
    try:
        return base_units(value)
    except VeTokenSimError as exc:
        raise ScenarioError(f"{context}: {exc}") from None


def _parse_escrow(raw, context: str) -> EscrowConfig:
    token = str(_need(raw, "token", context))
    max_lock_weeks = _as_int(_need(raw, "max_lock_weeks", context), f"{context}.max_lock_weeks", 1)
    min_lock_weeks = _as_int(raw.get("min_lock_weeks", 1), f"{context}.min_lock_weeks", 1)
    if min_lock_weeks > max_lock_weeks:
        raise ScenarioError(f"{context}.min_lock_weeks: exceeds max_lock_weeks")
    return EscrowConfig(
        token=token,
        max_lock_weeks=max_lock_weeks,
        min_lock_weeks=min_lock_weeks,
        # a tuple keeps the listed order, which config_digest hashes
        whitelist=tuple(_as_list(raw.get("whitelist", []), f"{context}.whitelist")),
        whitelist_enforced=bool(raw.get("whitelist_enforced", False)),
    )


def _parse_lock_entry(raw, context: str, config_bounds) -> LockEntry:
    kind = _need(raw, "kind", context)
    if kind not in ("base", "gov", "deposit"):
        raise ScenarioError(f"{context}.kind: must be base, gov or deposit, got {kind!r}")
    epoch = _as_int(_need(raw, "epoch", context), f"{context}.epoch", 0)
    amount = _as_amount(_need(raw, "amount", context), f"{context}.amount")
    weeks = _as_int(raw.get("weeks", 0), f"{context}.weeks", 0)
    if kind in ("base", "gov"):
        min_weeks, max_weeks = config_bounds[kind]
        if amount > 0 and not min_weeks <= weeks <= max_weeks:
            raise ScenarioError(
                f"{context}.weeks: lock duration {weeks} outside [{min_weeks}, {max_weeks}]"
            )
        if amount == 0 and not 0 <= weeks <= max_weeks:
            raise ScenarioError(f"{context}.weeks: extension {weeks} outside [0, {max_weeks}]")
    elif amount == 0:
        raise ScenarioError(f"{context}.amount: deposits must be positive")
    return LockEntry(epoch=epoch, kind=kind, amount=amount, weeks=weeks)


def _parse_agent(raw, context: str, tokens, gauge_count, config_bounds) -> AgentSpec:
    account = str(_need(raw, "account", context))
    strategy = str(_need(raw, "strategy", context))
    params = _as_object(raw.get("params", {}), f"{context}.params")
    schedule = tuple(
        _parse_lock_entry(entry, f"{context}.params.lock_schedule[{i}]", config_bounds)
        for i, entry in enumerate(_as_list(params.get("lock_schedule", []), f"{context}.params.lock_schedule"))
    )
    allocation = []
    for i, pair in enumerate(_as_list(params.get("allocation", []), f"{context}.params.allocation")):
        gauge_id, bps = _as_tuple(pair, f"{context}.params.allocation[{i}]", 2)
        gauge_id = _as_int(gauge_id, f"{context}.params.allocation[{i}]", 0, gauge_count - 1)
        bps = _as_int(bps, f"{context}.params.allocation[{i}]", 0, BPS)
        allocation.append((gauge_id, bps))
    if sum(b for _, b in allocation) > BPS:
        raise ScenarioError(f"{context}.params.allocation: exceeds {BPS} bps")
    budget = params.get("budget_per_round", 0.0)
    if isinstance(budget, list):
        budget = tuple(_as_float(b, f"{context}.params.budget_per_round[{i}]") for i, b in enumerate(budget))
    else:
        budget = _as_float(budget, f"{context}.params.budget_per_round")
    own_gauges = tuple(
        _as_int(g, f"{context}.params.own_gauges[{i}]", 0, gauge_count - 1)
        for i, g in enumerate(_as_list(params.get("own_gauges", []), f"{context}.params.own_gauges"))
    )
    bribe_token = str(params.get("bribe_token", "BRIBE-USD"))
    if (own_gauges or budget) and bribe_token not in tokens:
        raise ScenarioError(f"{context}.params.bribe_token: unknown token {bribe_token}")
    noise = _as_float(params.get("noise", 0.0), f"{context}.params.noise")
    if not 0.0 <= noise <= 1.0:
        raise ScenarioError(f"{context}.params.noise: must be within [0, 1]")
    exogenous = []
    weights = _as_object(params.get("exogenous_weights", {}), f"{context}.params.exogenous_weights")
    for g, w in sorted(weights.items()):
        try:
            gauge_id = int(g)
        except ValueError:
            raise ScenarioError(f"{context}.params.exogenous_weights.{g}: expected a gauge id") from None
        gauge_id = _as_int(gauge_id, f"{context}.params.exogenous_weights", 0, gauge_count - 1)
        exogenous.append((gauge_id, _as_float(w, f"{context}.params.exogenous_weights.{g}")))
    tol = _as_float(params.get("tol", 1e-9), f"{context}.params.tol")
    try:
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
            tol=tol,
        )
    except VeTokenSimError as exc:
        raise ScenarioError(f"{context}: {exc}") from None


def scenario_from_dict(raw: dict) -> ScenarioConfig:
    if not isinstance(raw, dict):
        raise ScenarioError("scenario: top level must be an object")
    name = str(_need(raw, "name", "scenario"))
    horizon = _as_int(_need(raw, "horizon_epochs", "scenario"), "scenario.horizon_epochs", 1)
    seed = _as_int(_need(raw, "rng_seed", "scenario"), "scenario.rng_seed", 0, MAX_SEED)
    round_length = _as_int(raw.get("round_length", 2), "scenario.round_length", 1)
    cadence = _as_int(raw.get("base_snapshot_cadence", 1), "scenario.base_snapshot_cadence", 1)
    bootstrap_rounds = _as_int(raw.get("bootstrap_rounds", 0), "scenario.bootstrap_rounds", 0)

    tokens = []
    seen_tokens: set[str] = set()
    for i, entry in enumerate(_as_list(_need(raw, "tokens", "scenario"), "scenario.tokens")):
        symbol = str(_need(entry, "symbol", f"scenario.tokens[{i}]"))
        if not symbol or symbol in seen_tokens:
            raise ScenarioError(f"scenario.tokens[{i}].symbol: empty or duplicate symbol {symbol!r}")
        seen_tokens.add(symbol)
        tokens.append(Token(symbol, bool(entry.get("transferable", True))))

    prices: dict[str, tuple[tuple[int, float], ...]] = {}
    for token, points in _as_object(_need(raw, "price_series", "scenario"), "scenario.price_series").items():
        if token not in seen_tokens:
            raise ScenarioError(f"scenario.price_series.{token}: unknown token")
        parsed = []
        last = None
        for i, point in enumerate(_as_list(points, f"scenario.price_series.{token}")):
            epoch, price = _as_tuple(point, f"scenario.price_series.{token}[{i}]", 2)
            epoch = _as_int(epoch, f"scenario.price_series.{token}[{i}]")
            price = _as_float(price, f"scenario.price_series.{token}[{i}]")
            if price < 0:
                raise ScenarioError(f"scenario.price_series.{token}[{i}]: negative price")
            if last is not None and epoch <= last:
                raise ScenarioError(f"scenario.price_series.{token}[{i}]: epochs must increase")
            last = epoch
            parsed.append((epoch, price))
        if not parsed:
            raise ScenarioError(f"scenario.price_series.{token}: needs at least one point")
        prices[token] = tuple(parsed)
    for symbol in seen_tokens:
        if symbol not in prices or prices[symbol][0][0] > 0:
            raise ScenarioError(
                f"scenario.price_series.{symbol}: every token needs a price at or before epoch 0"
            )

    balances = []
    for i, row in enumerate(_as_list(raw.get("initial_balances", []), "scenario.initial_balances")):
        account, token, amount = _as_tuple(row, f"scenario.initial_balances[{i}]", 3)
        account, token = str(account), str(token)
        if token not in seen_tokens:
            raise ScenarioError(f"scenario.initial_balances[{i}]: unknown token {token}")
        balances.append((account, token, _as_amount(amount, f"scenario.initial_balances[{i}]")))

    base_escrow = _parse_escrow(_need(raw, "base_escrow", "scenario"), "scenario.base_escrow")
    gov_escrow = _parse_escrow(_need(raw, "gov_escrow", "scenario"), "scenario.gov_escrow")
    for label, params in (("base_escrow", base_escrow), ("gov_escrow", gov_escrow)):
        if params.token not in seen_tokens:
            raise ScenarioError(f"scenario.{label}.token: unknown token {params.token}")

    agg_raw = _need(raw, "aggregator", "scenario")
    aggregator = AggregatorParams(
        protocol_account=str(_need(agg_raw, "protocol_account", "scenario.aggregator")),
        wrapper_token=str(_need(agg_raw, "wrapper_token", "scenario.aggregator")),
        gov_token=str(_need(agg_raw, "gov_token", "scenario.aggregator")),
    )
    for key in ("wrapper_token", "gov_token"):
        if getattr(aggregator, key) not in seen_tokens:
            raise ScenarioError(f"scenario.aggregator.{key}: unknown token")
    if aggregator.gov_token != gov_escrow.token:
        raise ScenarioError("scenario.aggregator.gov_token: must match scenario.gov_escrow.token")

    gauges = []
    for i, entry in enumerate(_as_list(_need(raw, "gauges", "scenario"), "scenario.gauges")):
        context = f"scenario.gauges[{i}]"
        shares = []
        for j, pair in enumerate(_as_list(_need(entry, "lp_accounts", context), f"{context}.lp_accounts")):
            account, bps = _as_tuple(pair, f"{context}.lp_accounts[{j}]", 2)
            shares.append((str(account), _as_int(bps, f"{context}.lp_accounts[{j}]", 1)))
        if sum(bps for _, bps in shares) != BPS:
            raise ScenarioError(f"{context}.lp_accounts: shares must sum to {BPS} bps")
        gauges.append(GaugeSpec(str(_need(entry, "name", context)), tuple(shares)))

    emissions = []
    for i, entry in enumerate(_as_list(raw.get("emission_schedule", []), "scenario.emission_schedule")):
        start = _as_int(_need(entry, "start", f"scenario.emission_schedule[{i}]"), f"scenario.emission_schedule[{i}].start", 0)
        end = _as_int(_need(entry, "end", f"scenario.emission_schedule[{i}]"), f"scenario.emission_schedule[{i}].end", 1)
        per_week = _as_amount(_need(entry, "per_week", f"scenario.emission_schedule[{i}]"), f"scenario.emission_schedule[{i}].per_week")
        if end <= start:
            raise ScenarioError(f"scenario.emission_schedule[{i}].end: must exceed start")
        emissions.append((start, end, per_week))
    try:
        EmissionSchedule(emissions)
    except VeTokenSimError as exc:
        raise ScenarioError(f"scenario.emission_schedule: {exc}") from None

    bounds = {
        "base": (base_escrow.min_lock_weeks, base_escrow.max_lock_weeks),
        "gov": (gov_escrow.min_lock_weeks, gov_escrow.max_lock_weeks),
    }
    agents = []
    seen_accounts: set[str] = set()
    for i, entry in enumerate(_as_list(raw.get("agents", []), "scenario.agents")):
        spec = _parse_agent(entry, f"scenario.agents[{i}]", seen_tokens, len(gauges), bounds)
        if spec.account in seen_accounts:
            raise ScenarioError(f"scenario.agents[{i}].account: duplicate account {spec.account}")
        seen_accounts.add(spec.account)
        agents.append(spec)

    return ScenarioConfig(
        name=name,
        description=str(raw.get("description", "")),
        horizon_epochs=horizon,
        rng_seed=seed,
        round_length=round_length,
        base_snapshot_cadence=cadence,
        bootstrap_rounds=bootstrap_rounds,
        tokens=tuple(tokens),
        price_series=prices,
        initial_balances=tuple(balances),
        contract_accounts=tuple(_as_list(raw.get("contract_accounts", []), "scenario.contract_accounts")),
        base_escrow=base_escrow,
        gov_escrow=gov_escrow,
        aggregator=aggregator,
        bribe_escrow_account=str(raw.get("bribe_escrow_account", "bribe-market-escrow")),
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
            data = json.loads(item.read_text())
            out[data["name"]] = data.get("description", "")
    return out


def load_scenario(source: str) -> ScenarioConfig:
    """Load a scenario from a file path or a packaged scenario name."""
    if os.path.exists(source):
        text = open(source, "r", encoding="utf-8").read()
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
    """Header plus one append-only row per epoch; ndjson on disk."""

    def __init__(self, header: dict, rows=None):
        self.header = header
        self.rows: list[dict] = list(rows) if rows else []

    def append(self, row: dict) -> None:
        self.rows.append(row)

    def __iter__(self):
        return iter(self.rows)

    def __len__(self) -> int:
        return len(self.rows)

    def to_lines(self) -> list[str]:
        dump = lambda obj: json.dumps(obj, sort_keys=True, separators=(",", ":"))
        return [dump({"type": "header", **self.header})] + [dump(row) for row in self.rows]

    def write_ndjson(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("\n".join(self.to_lines()) + "\n")

    @classmethod
    def read_ndjson(cls, path: str) -> "SimTrace":
        header = None
        rows = []
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise ScenarioError(f"{path}:{lineno}: invalid JSON: {exc.msg}") from None
                if not isinstance(record, dict):
                    raise ScenarioError(f"{path}:{lineno}: record is not a JSON object")
                if record.get("type") == "header":
                    record.pop("type")
                    header = record
                else:
                    rows.append(record)
        if header is None:
            raise ScenarioError(f"{path}: trace has no header record")
        return cls(header, rows)


def _ratio_str(num: int, den: int) -> str:
    """The one writer of trace ratios: ``str(Fraction(num, den))`` for num >= 0,
    den > 0, without building a Fraction."""
    common = math.gcd(num, den)
    num, den = num // common, den // common
    return str(num) if den == 1 else f"{num}/{den}"


def _weight_strs(escrow: Escrow, epoch: int) -> dict[str, str]:
    den = escrow.weight_denominator
    return {a: _ratio_str(escrow.weight_numerator(a, epoch), den) for a in sorted(escrow.locks)}


def _noise_seed(seed: int, account: str, round_id: int) -> int:
    digest = hashlib.sha256(f"{seed}:{account}:{round_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class World:
    """Mutable protocol state assembled from a scenario config."""

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
            gov_token=config.aggregator.gov_token,
            gov_escrow_config=config.gov_escrow,
            contract_accounts=contract_accounts,
            round_length=config.round_length,
        )
        self.market = BribeMarket(self.ledger, self.aggregator, self.prices, config.bribe_escrow_account)
        for gauge in config.gauges:
            self.controller.add_gauge(gauge.name, list(gauge.lp_accounts))
        self.agents = list(config.agents)  # already sorted by account

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
        lock = escrow.locks.get(account)
        if lock is not None and epoch >= lock.unlock_epoch:
            escrow.withdraw(account, epoch)  # expired: return funds, relock below
            lock = None
        if lock is None:
            if action.amount == 0:
                return
            escrow.create_lock(account, action.amount, action.unlock_epoch, epoch)
        else:
            # schedules may lag an earlier extension; never shorten
            new_unlock = max(lock.unlock_epoch, action.unlock_epoch)
            escrow.modify_lock(account, action.amount, new_unlock, epoch)
        events.append(
            {
                "account": account,
                "escrow": label,
                "amount": action.amount,
                "unlock_epoch": escrow.locks[account].unlock_epoch,
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
            row_events["actions"].append(
                {"account": spec.account, "kind": "meta_vote", "round": rnd.round_id,
                 "allocation": [list(p) for p in action.allocation]}
            )
        elif isinstance(action, BaseVoteAction):
            self.controller.vote_for_gauge_weights(spec.account, list(action.allocation), epoch)
            row_events["actions"].append(
                {"account": spec.account, "kind": "base_vote",
                 "allocation": [list(p) for p in action.allocation]}
            )
        else:
            raise SimulationError(f"unknown action type {type(action).__name__}")

    # -- one epoch -----------------------------------------------------------------

    def step(self, epoch: int) -> dict:
        self.aggregator.refresh_max_lock(epoch)
        rnd = self.aggregator.ensure_round(epoch)
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
            self.ledger.assert_conservation()
        except LedgerError as exc:
            raise SimulationError(f"epoch {epoch}: {exc}") from exc
        return self._row(epoch, rnd, row_events, finalized_row, settlement_row, snapshot_row)

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

    def _row(self, epoch, rnd, row_events, finalized_row, settlement_row, snapshot_row) -> dict:
        gov_escrow = self.aggregator.gov_escrow
        return {
            "type": "epoch",
            "epoch": epoch,
            "round_id": rnd.round_id,
            "ledger_digest": self.ledger.digest(),
            "token_totals": self.ledger.token_totals(),
            "escrow_weights": {
                "base": _weight_strs(self.base_escrow, epoch),
                "governance": _weight_strs(gov_escrow, epoch),
            },
            "locks": {
                "base": {
                    a: {"amount": l.amount, "unlock_epoch": l.unlock_epoch, "created_epoch": l.created_epoch}
                    for a, l in sorted(self.base_escrow.locks.items())
                },
                "governance": {
                    a: {"amount": l.amount, "unlock_epoch": l.unlock_epoch, "created_epoch": l.created_epoch}
                    for a, l in sorted(gov_escrow.locks.items())
                },
            },
            "base_votes": {
                a: {str(g): bps for g, bps in sorted(alloc.by_gauge.items())}
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
    trace = SimTrace(world.header())
    for epoch in range(config.horizon_epochs):
        trace.append(world.step(epoch))
    return trace
