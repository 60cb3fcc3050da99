"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line and enforcing its runtime budget."""

import functools
import random
import time
from fractions import Fraction


from vetokensim import metrics
from vetokensim.agents import equilibrium_allocation
from vetokensim.aggregator import Aggregator
from vetokensim.bribemarket import BribeMarket
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.gauges import EmissionSchedule, GaugeController
from vetokensim.ledger import ONE, Ledger, PriceSeries
from vetokensim.scenario import load_scenario
from vetokensim.sim import run_scenario

from test_metrics import epoch_row, finalized, make_trace, settlement_of


def criterion(label, budget_seconds):
    """A criterion's checks may return the seconds a shared fixture spent on
    them before they began; those count against the budget too."""

    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            started = time.monotonic()
            try:
                earlier = fn(*args, **kwargs) or 0.0
                elapsed = earlier + time.monotonic() - started
                assert elapsed < budget_seconds, f"{label}: took {elapsed:.1f}s, budget {budget_seconds}s"
            except BaseException:
                print(f"[FAIL] {label}")
                raise
            print(f"[PASS] {label} ({earlier + time.monotonic() - started:.2f}s)")

        return wrapper

    return decorate


_TRACES = {}


def packaged_trace(name):
    if name not in _TRACES:
        _TRACES[name] = run_scenario(load_scenario(name))
    return _TRACES[name]


@criterion("criterion 1: weight formula (208:1 equivalence, linear decay)", 1.0)
def test_criterion_1_weight_formula():
    rng = random.Random(20801)
    ledger = Ledger()
    ledger.register_token("CRV")
    escrow = Escrow(EscrowConfig(token="CRV", max_lock_weeks=208), ledger)
    for i in range(100):
        amount = rng.randint(1, 10**30)
        short, long = f"s{i}", f"l{i}"
        ledger.mint("CRV", short, amount * 208)
        ledger.mint("CRV", long, amount)
        escrow.create_lock(short, amount * 208, 1, 0)
        escrow.create_lock(long, amount, 208, 0)
        assert escrow.voting_weight(short, 0) == escrow.voting_weight(long, 0)  # exact

    for i in range(100):
        amount = rng.randint(1, 10**24)
        duration = rng.randrange(2, 209, 2)  # even so the midpoint is an epoch
        account = f"d{i}"
        ledger2 = Ledger()
        ledger2.register_token("CRV")
        escrow2 = Escrow(EscrowConfig(token="CRV", max_lock_weeks=208), ledger2)
        ledger2.mint("CRV", account, amount)
        escrow2.create_lock(account, amount, duration, 0)
        initial = escrow2.voting_weight(account, 0)
        assert initial == Fraction(amount * duration, 208 * ONE)
        assert escrow2.voting_weight(account, duration // 2) * 2 == initial  # exact halves
        assert escrow2.voting_weight(account, duration) == 0


def _randomized_scenario(horizon=1000, n_gauges=12, seed=424242) -> dict:
    """A raw scenario of 24 agents over all five strategies and all three
    avenues, for ``scenario_from_dict`` or a scenario file."""
    rng = random.Random(seed // 2)
    rounds = horizon // 2 + 1
    tokens = [{"symbol": s, "transferable": True} for s in ("CRV", "CVX", "cvxCRV", "BRIBE-USD")]
    prices = {s: [[0, 1.0]] for s in ("CRV", "CVX", "cvxCRV", "BRIBE-USD")}
    gauges = [{"name": f"g{i}", "lp_accounts": [[f"lp{i}", 10000]]} for i in range(n_gauges)]

    def gov_sched(amount, start):
        entries = [{"epoch": start, "kind": "gov", "amount": amount, "weeks": 16}]
        entries += [
            {"epoch": e, "kind": "gov", "amount": 0, "weeks": 16}
            for e in range(start + 8, horizon, 8)
        ]
        return entries

    agents, balances = [], []
    for i in range(6):
        account = f"passive-{i}"
        schedule = [
            {"epoch": rng.randint(0, 5), "kind": "base", "amount": 1000 * (i + 1),
             "weeks": rng.randint(1, 208)}
        ]
        if rng.random() < 0.5:
            schedule.append(
                {"epoch": rng.randint(300, 900), "kind": "base", "amount": 500,
                 "weeks": rng.randint(1, 208)}
            )
        if i < 2:
            schedule.append({"epoch": 0, "kind": "deposit", "amount": 20000})
        agents.append({"account": account, "strategy": "PassiveLocker",
                       "params": {"lock_schedule": schedule}})
        balances.append([account, "CRV", 100000])
    for i in range(5):
        account = f"fixed-{i}"
        allocation, left = [], 10000
        for g in sorted(rng.sample(range(n_gauges), 3)):
            bps = rng.randint(0, left)
            allocation.append([g, bps])
            left -= bps
        agents.append({"account": account, "strategy": "FixedAllocator",
                       "params": {"allocation": allocation,
                                  "lock_schedule": gov_sched(rng.randint(100, 5000), rng.randint(0, 4))}})
        balances.append([account, "CVX", 100000])
    for i in range(4):
        account = f"greedy-{i}"
        agents.append({"account": account, "strategy": "BribeFollowerGreedy",
                       "params": {"noise": 0.1,
                                  "lock_schedule": gov_sched(rng.randint(100, 8000), rng.randint(0, 4))}})
        balances.append([account, "CVX", 100000])
    for i in range(4):
        account = f"equil-{i}"
        agents.append({"account": account, "strategy": "BribeFollowerEquilibrium",
                       "params": {"lock_schedule": gov_sched(rng.randint(100, 8000), rng.randint(0, 4))}})
        balances.append([account, "CVX", 100000])
    for i in range(5):
        account = f"promo-{i}"
        own = sorted(rng.sample(range(n_gauges), rng.randint(1, 2)))
        params = {"own_gauges": own,
                  "budget_per_round": [rng.randint(0, 50) for _ in range(rounds)],
                  "bribe_token": "BRIBE-USD"}
        if i < 3:
            params["lock_schedule"] = gov_sched(rng.randint(100, 3000), rng.randint(0, 4))
        agents.append({"account": account, "strategy": "SelfPromoter", "params": params})
        balances.append([account, "BRIBE-USD", 60000])
        balances.append([account, "CVX", 50000])

    return {
        "name": "randomized-conservation",
        "horizon_epochs": horizon,
        "round_length": 2,
        "base_snapshot_cadence": 1,
        "rng_seed": seed,
        "tokens": tokens,
        "price_series": prices,
        "initial_balances": balances,
        "contract_accounts": ["agg"],
        "base_escrow": {"token": "CRV", "max_lock_weeks": 208,
                        "whitelist": ["agg"], "whitelist_enforced": True},
        "gov_escrow": {"token": "CVX", "max_lock_weeks": 16},
        "aggregator": {"protocol_account": "agg", "wrapper_token": "cvxCRV", "gov_token": "CVX"},
        "gauges": gauges,
        "emission_schedule": [{"start": 0, "end": horizon, "per_week": 1000000}],
        "agents": agents,
    }


@criterion("criterion 2: conservation over 1000 randomized epochs", 30.0)
def test_criterion_2_conservation(randomized_run):
    config, trace = randomized_run.config, randomized_run.trace
    assert len(config.agents) >= 20 and len(config.gauges) >= 10
    assert len(trace.rows) == 1000
    for row in trace:
        for token, totals in row["token_totals"].items():
            assert totals["balances"] + totals["escrow_held"] == totals["minted"], (
                f"epoch {row['epoch']}: {token} books do not balance"
            )
        # the escrow buckets themselves match the open locks, exactly
        lock_sums = {"CRV": 0, "CVX": 0}
        for account, lock in row["locks"]["base"].items():
            lock_sums["CRV"] += lock["amount"]
        for account, lock in row["locks"]["governance"].items():
            lock_sums["CVX"] += lock["amount"]
        assert lock_sums["CRV"] == row["token_totals"]["CRV"]["escrow_held"]
        assert lock_sums["CVX"] == row["token_totals"]["CVX"]["escrow_held"]
    return randomized_run.run_seconds


@criterion("criterion 3: votes follow bribes in the mature phase", 10.0)
def test_criterion_3_mature_votes_follow_bribes():
    trace = packaged_trace("paper-mature")
    table = metrics.share_table(trace)
    bribed = [r for r in table.rows if r.bribe_share > 0]
    assert len({r.round_id for r in bribed}) == 26
    for row in bribed:
        assert abs(row.vote_share - row.bribe_share) <= 1e-6, row
    assert metrics.pearson(table.pairs()) >= 0.99
    matrix = metrics.diff_matrix(table)
    cells = [cell for line in matrix.cells for cell in line if cell is not None]
    assert min(cells) >= -6.0 and max(cells) <= 2.0

    # independent proportionality check straight off the raw trace rows,
    # bypassing the share-table code path entirely
    checked = 0
    for trace_row in trace:
        settlement = trace_row.get("settlement")
        done = trace_row.get("round_finalized")
        if not settlement or not done:
            continue
        bribe_usd = {g: gs["bribe_usd"] for g, gs in settlement["gauges"].items()}
        votes = {g: Fraction(w) for g, w in done["tally"].items()}
        usd_total = sum(bribe_usd.values())
        vote_total = sum(votes.values(), Fraction(0))
        for gauge, usd in bribe_usd.items():
            lhs = usd / usd_total
            rhs = float(votes.get(gauge, Fraction(0)) / vote_total)
            assert abs(lhs - rhs) <= 1e-6
            checked += 1
    assert checked == len(bribed)


@criterion("criterion 4: bootstrap-phase correlation brackets the target", 10.0)
def test_criterion_4_bootstrap_correlation():
    # qualitative, tunable target: greedy herding plus 15% noise lands the
    # correlation between the bootstrapping and mature regime levels
    trace = packaged_trace("paper-bootstrap")
    table = metrics.share_table(trace)
    assert len({r.round_id for r in table.rows}) == 8
    r = metrics.pearson(table.pairs())
    assert 0.75 <= r <= 0.95, f"bootstrap pearson {r:.4f} outside [0.75, 0.95]"


@criterion("criterion 5: cost-per-vote arithmetic matches the reference quotients", 10.0)
def test_criterion_5_cost_per_vote_arithmetic():
    # aggregator avenue: 64.74e6 USD of governance locks, 2.88e9 votes
    rows = []
    first = epoch_row(0)
    first["lock_events"] = [
        {"account": "frax", "escrow": "governance", "amount": 1, "unlock_epoch": 16,
         "usd_cost": 64.74e6}
    ]
    rows.append(first)
    for round_id in range(4):
        row = epoch_row(
            round_id * 2 + 2,
            round_finalized=finalized(
                round_id, {"0": "720000000"}, voters=("frax",),
                voter_mass={"frax": "720000000"},
            ),
        )
        row["escrow_weights"]["base"]["agg"] = "720000000"
        rows.append(row)
    series = metrics.cost_per_vote_series(make_trace(rows), "frax", "aggregator-lock")
    assert abs(series.final_usd_per_vote() - 0.0225) <= 0.0005

    # bribe avenue: 103.69e6 USD of bribes, 6.72e9 voter weight units
    rows = [
        epoch_row(
            round_id * 2 + 2,
            round_finalized=finalized(round_id, {"0": "1680000000"}),
            settlement=settlement_of(round_id, {0: 103.69e6 / 4}, {0: "1680000000"}, briber="frax"),
        )
        for round_id in range(4)
    ]
    series = metrics.cost_per_vote_series(make_trace(rows), "frax", "bribe")
    assert abs(series.final_usd_per_vote() - 0.0154) <= 0.0005


@criterion("criterion 6: cost per vote amortizes (non-increasing) per avenue", 10.0)
def test_criterion_6_amortization_shape():
    trace = packaged_trace("frax-three-avenues")
    for avenue in metrics.AVENUES:
        series = metrics.cost_per_vote_series(trace, "frax", avenue)
        values = [upv for _, _, _, upv in series.rows if upv is not None]
        assert values, avenue
        for earlier, later in zip(values, values[1:]):
            # tiny relative slack only for float evaluation noise
            assert later <= earlier * (1 + 1e-12), avenue


def _oracle_waterfill(bribes, weight, exo):
    """Grid-search water-filling: refine a grid over the common level."""

    def demand(level):
        return sum(max(0.0, b / level - exo.get(g, 0.0)) for g, b in bribes.items())

    hi = sum(bribes.values()) / weight
    lo = hi
    while demand(lo) < weight:
        lo /= 2.0
    for _ in range(9):
        step = (hi - lo) / 160
        if step == 0.0:
            break
        best = lo
        for i in range(161):
            level = lo + step * i
            if demand(level) >= weight:
                best = level
            else:
                break
        lo, hi = best, min(hi, best + step)
    return {g: max(0.0, b / lo - exo.get(g, 0.0)) for g, b in bribes.items()}


@criterion("criterion 7: oracle equivalence (water-filling and settlement)", 60.0)
def test_criterion_7_oracle_equivalence():
    rng = random.Random(50505)
    for _ in range(50):
        n = rng.randint(2, 5)
        bribes = {g: rng.uniform(1.0, 100.0) for g in range(n)}
        exo = {g: rng.uniform(0.0, 50.0) if rng.random() < 0.6 else 0.0 for g in range(n)}
        weight = rng.uniform(1.0, 100.0)
        result = equilibrium_allocation(bribes, weight, exo)
        oracle = _oracle_waterfill(bribes, weight, exo)
        scale = max(1.0, weight)
        for g in bribes:
            assert abs(result.get(g, 0.0) - oracle.get(g, 0.0)) <= 1e-6 * scale, (bribes, exo, weight)
        # equalization: supported gauges pay one common rate, others at most it
        rates = {g: bribes[g] / (exo.get(g, 0.0) + x) for g, x in result.items() if x > 0}
        level = max(rates.values())
        assert level - min(rates.values()) <= 1e-6 * level
        for g in bribes:
            if g not in result and exo.get(g, 0.0) > 0:
                assert bribes[g] / exo[g] <= level * (1 + 1e-9)

    # settlement against brute-force enumeration of every (voter, gauge) pair
    for _ in range(50):
        n_gauges = rng.randint(1, 4)
        ledger = Ledger()
        for symbol in ("CRV", "CVX", "cvxCRV", "BRIBE-USD"):
            ledger.register_token(symbol)
        prices = PriceSeries()
        for symbol in ("CRV", "CVX", "cvxCRV", "BRIBE-USD"):
            prices.add_point(symbol, 0, 1.0)
        base_escrow = Escrow(EscrowConfig(token="CRV", max_lock_weeks=208), ledger)
        controller = GaugeController(base_escrow, ledger, EmissionSchedule(), "CRV")
        for g in range(n_gauges):
            controller.add_gauge([(f"lp{g}", 10000)])
        agg = Aggregator(
            ledger=ledger, base_escrow=base_escrow, controller=controller,
            protocol_account="agg", wrapper_token="cvxCRV",
            gov_escrow_config=EscrowConfig(token="CVX", max_lock_weeks=16),
        )
        market = BribeMarket(ledger, agg, prices)
        voters = {}
        for i in range(rng.randint(1, 6)):
            account = f"v{i}"
            units = rng.randint(1, 10**9)
            ledger.mint("CVX", account, units)
            agg.gov_escrow.lock(account, units, rng.randint(1, 16), 0)
            voters[account] = [rng.randint(0, 3000) for _ in range(n_gauges)]
        agg.ensure_round(0)
        deposits = {}
        for g in range(n_gauges):
            if rng.random() < 0.8:
                units = rng.randint(1, 10**12)
                deposits[g] = units
                ledger.mint("BRIBE-USD", f"briber{g}", units)
                market.post_bribe(0, g, f"briber{g}", "BRIBE-USD", units, 0)
        for account, splits in voters.items():
            if sum(splits) and agg.gov_escrow.voting_weight(account, 2) > 0:
                agg.cast_meta_vote(account, 0, list(enumerate(splits)), 1)
        agg.finalize_round(0, 2)
        rnd = agg.rounds[0]
        settlement = market.settle_round(0)
        for g, total in deposits.items():
            weights = {
                v: Fraction(per[g], rnd.cut_den) for v, per in rnd.voter_gauge_num.items()
                if per.get(g, 0) > 0
            }
            gs = settlement.gauges[g]
            if not weights:
                assert gs.refunds[f"briber{g}"]["BRIBE-USD"] == total
                continue
            grand = sum(weights.values(), Fraction(0))
            exact = {v: Fraction(total) * w / grand for v, w in weights.items()}
            floors = {v: int(q) for v, q in exact.items()}
            leftover = total - sum(floors.values())
            order = sorted(weights, key=lambda v: (-(exact[v] - floors[v]), v))
            for v in order[:leftover]:
                floors[v] += 1
            expected = {v: cut for v, cut in floors.items() if cut}
            actual = {v: tokens["BRIBE-USD"] for v, tokens in gs.payouts.items()}
            assert actual == expected
            assert sum(actual.values()) == total
        ledger.assert_conservation()


@criterion("criterion 8: packaged scenarios are byte-deterministic", 60.0)
def test_criterion_8_determinism(tmp_path):
    for name in ("paper-mature", "paper-bootstrap", "frax-three-avenues"):
        config = load_scenario(name)
        first = run_scenario(config)
        second = run_scenario(config)
        paths = []
        for label, trace in (("a", first), ("b", second)):
            trace_path = tmp_path / f"{name}-{label}.ndjson"
            trace.write_ndjson(str(trace_path))
            export_path = tmp_path / f"{name}-{label}-shares.csv"
            metrics.export(metrics.share_table(trace), "csv", str(export_path))
            paths.append((trace_path, export_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes(), name
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes(), name
