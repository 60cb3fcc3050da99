"""Seeded scenario generators for the benchmark workloads.

Each generator returns a plain scenario dict (the JSON the CLI reads); the
program under test only ever sees the file written from it.  The same seed
and parameters always give the same dict.
"""

from __future__ import annotations

import hashlib
import json
import random

TOKENS = ("CRV", "CVX", "cvxCRV", "BRIBE-USD")

_PROTOCOL = {
    "contract_accounts": ["agg"],
    "base_escrow": {"token": "CRV", "max_lock_weeks": 208,
                    "whitelist": ["agg"], "whitelist_enforced": True},
    "gov_escrow": {"token": "CVX", "max_lock_weeks": 16},
    "aggregator": {"protocol_account": "agg", "wrapper_token": "cvxCRV", "gov_token": "CVX"},
}


def _split(total: int, weights) -> list[int]:
    """Apportion ``total`` by ``weights`` (largest remainder, earlier entries win ties)."""
    scale = sum(weights)
    exact = [total * w / scale for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(weights)), key=lambda i: (-(exact[i] - counts[i]), i))
    for i in order[: total - sum(counts)]:
        counts[i] += 1
    return counts


def _gov_schedule(amount: int, start: int, horizon: int) -> list[dict]:
    """A 16-week governance lock re-extended every 8 epochs until the horizon."""
    entries = [{"epoch": start, "kind": "gov", "amount": amount, "weeks": 16}]
    entries += [
        {"epoch": e, "kind": "gov", "amount": 0, "weeks": 16}
        for e in range(start + 8, horizon, 8)
    ]
    return entries


def mixed(seed: int, agents: int, gauges: int, horizon: int) -> dict:
    """All five strategies at once: the randomized conservation scenario.

    At 24 agents, 12 gauges and 1000 epochs it reproduces the acceptance
    suite's randomized config draw for draw (6 passive, 5 fixed, 4 greedy,
    4 equilibrium and 5 self-promoting agents), so its trace carries the
    pinned digest.
    """
    rng = random.Random(seed // 2)
    rounds = horizon // 2 + 1
    n_passive, n_fixed, n_greedy, n_equil, n_promo = _split(agents, (6, 5, 4, 4, 5))

    agent_list, balances = [], []
    for i in range(n_passive):
        account = f"passive-{i}"
        schedule = [
            {"epoch": rng.randint(0, 5), "kind": "base", "amount": 1000 * (i + 1),
             "weeks": rng.randint(1, 208)}
        ]
        if rng.random() < 0.5:
            schedule.append(
                {"epoch": rng.randint(horizon * 3 // 10, horizon * 9 // 10), "kind": "base",
                 "amount": 500, "weeks": rng.randint(1, 208)}
            )
        if i < n_passive // 3:
            schedule.append({"epoch": 0, "kind": "deposit", "amount": 20000})
        agent_list.append({"account": account, "strategy": "PassiveLocker",
                           "params": {"lock_schedule": schedule}})
        balances.append([account, "CRV", 100000])
    for i in range(n_fixed):
        account = f"fixed-{i}"
        allocation, left = [], 10000
        for g in sorted(rng.sample(range(gauges), 3)):
            bps = rng.randint(0, left)
            allocation.append([g, bps])
            left -= bps
        agent_list.append({"account": account, "strategy": "FixedAllocator",
                           "params": {"allocation": allocation,
                                      "lock_schedule": _gov_schedule(rng.randint(100, 5000),
                                                                     rng.randint(0, 4), horizon)}})
        balances.append([account, "CVX", 100000])
    for i in range(n_greedy):
        account = f"greedy-{i}"
        agent_list.append({"account": account, "strategy": "BribeFollowerGreedy",
                           "params": {"noise": 0.1,
                                      "lock_schedule": _gov_schedule(rng.randint(100, 8000),
                                                                     rng.randint(0, 4), horizon)}})
        balances.append([account, "CVX", 100000])
    for i in range(n_equil):
        account = f"equil-{i}"
        agent_list.append({"account": account, "strategy": "BribeFollowerEquilibrium",
                           "params": {"lock_schedule": _gov_schedule(rng.randint(100, 8000),
                                                                     rng.randint(0, 4), horizon)}})
        balances.append([account, "CVX", 100000])
    for i in range(n_promo):
        account = f"promo-{i}"
        own = sorted(rng.sample(range(gauges), rng.randint(1, 2)))
        params = {"own_gauges": own,
                  "budget_per_round": [rng.randint(0, 50) for _ in range(rounds)],
                  "bribe_token": "BRIBE-USD"}
        if i < n_promo * 3 // 5:
            params["lock_schedule"] = _gov_schedule(rng.randint(100, 3000), rng.randint(0, 4), horizon)
        agent_list.append({"account": account, "strategy": "SelfPromoter", "params": params})
        balances.append([account, "BRIBE-USD", 60000])
        balances.append([account, "CVX", 50000])

    return {
        "name": "randomized-conservation",
        "horizon_epochs": horizon,
        "round_length": 2,
        "base_snapshot_cadence": 1,
        "rng_seed": seed,
        "tokens": [{"symbol": s, "transferable": True} for s in TOKENS],
        "price_series": {s: [[0, 1.0]] for s in TOKENS},
        "initial_balances": balances,
        **_PROTOCOL,
        "gauges": [{"name": f"g{i}", "lp_accounts": [[f"lp{i}", 10000]]} for i in range(gauges)],
        "emission_schedule": [{"start": 0, "end": horizon, "per_week": 1000000}],
        "agents": agent_list,
    }


def base_lockers(seed: int, lockers: int, gauges: int, horizon: int) -> dict:
    """Direct base-escrow lockers voting at the base tier every epoch.

    No bribes, no governance locks and no aggregator deposits, so the meta
    tier and the bribe market only see empty rounds.  Each locker is a
    zero-budget SelfPromoter: it votes all-in on its lowest own gauge with
    its base weight, and its schedule relocks (top-up or extension) from
    time to time.
    """
    rng = random.Random(seed)
    agent_list, balances = [], []
    for i in range(lockers):
        account = f"locker-{i:03d}"
        start = rng.randint(0, 3)
        schedule = [{"epoch": start, "kind": "base", "amount": rng.randint(100, 10000),
                     "weeks": rng.randint(26, 208)}]
        epoch = start + rng.randint(10, 40)
        while epoch < horizon:
            top_up = rng.randint(0, 2000) if rng.random() < 0.5 else 0
            schedule.append({"epoch": epoch, "kind": "base", "amount": top_up,
                             "weeks": rng.randint(52, 208)})
            epoch += rng.randint(10, 40)
        own = sorted(rng.sample(range(gauges), rng.randint(1, 2)))
        agent_list.append({"account": account, "strategy": "SelfPromoter",
                           "params": {"own_gauges": own, "lock_schedule": schedule}})
        balances.append([account, "CRV", sum(entry["amount"] for entry in schedule)])

    gauge_list = []
    for g in range(gauges):
        first = rng.randint(1000, 9000)
        gauge_list.append({"name": f"pool-{g}",
                           "lp_accounts": [[f"lp-{g}-a", first], [f"lp-{g}-b", 10000 - first]]})
    half = horizon // 2
    return {
        "name": "base-lockers",
        "horizon_epochs": horizon,
        "round_length": 2,
        "base_snapshot_cadence": 1,
        "rng_seed": seed,
        "tokens": [{"symbol": s, "transferable": True} for s in TOKENS],
        "price_series": {
            "CRV": [[0, round(rng.uniform(0.5, 2.0), 4)], [half, round(rng.uniform(0.5, 2.0), 4)]],
            "CVX": [[0, 3.0]],
            "cvxCRV": [[0, 0.9]],
            "BRIBE-USD": [[0, 1.0]],
        },
        "initial_balances": balances,
        **_PROTOCOL,
        "gauges": gauge_list,
        "emission_schedule": [
            {"start": 0, "end": half, "per_week": 1000000},
            {"start": half, "end": horizon, "per_week": 750000},
        ],
        "agents": agent_list,
    }


def bribe_market(seed: int, gauges: int, followers: int, bribers: int, horizon: int) -> dict:
    """A busy voting market: many bribed gauges and meta-voting followers.

    Half the followers split their weight by the water-filling equilibrium,
    half go all-in greedily with noise.  Bribers are zero-weight
    SelfPromoters that post a positive budget every round on two own gauges,
    fixed so that every gauge is bribed whatever the seed: the seed moves
    budgets, lock sizes and noise, not how much work a round is.  One
    depositor gives the aggregator base weight, so each finalized round
    recasts the pooled base-tier vote.
    """
    rng = random.Random(seed)
    rounds = horizon // 2 + 1
    agent_list, balances = [], []
    n_equil, n_greedy = _split(followers, (1, 1))
    for kind, count in (("equil", n_equil), ("greedy", n_greedy)):
        for i in range(count):
            account = f"{kind}-{i:02d}"
            params = {"lock_schedule": _gov_schedule(rng.randint(100, 8000), rng.randint(0, 4), horizon)}
            if kind == "greedy":
                strategy = "BribeFollowerGreedy"
                params["noise"] = round(rng.uniform(0.05, 0.25), 2)
            else:
                strategy = "BribeFollowerEquilibrium"
            agent_list.append({"account": account, "strategy": strategy, "params": params})
            balances.append([account, "CVX", 10000])
    for i in range(bribers):
        account = f"briber-{i:02d}"
        budgets = [rng.randint(1, 100) for _ in range(rounds)]
        own = sorted({i % gauges, (i + bribers) % gauges})
        agent_list.append({"account": account, "strategy": "SelfPromoter",
                           "params": {"own_gauges": own, "budget_per_round": budgets,
                                      "bribe_token": "BRIBE-USD"}})
        balances.append([account, "BRIBE-USD", sum(budgets)])
    agent_list.append({"account": "depositor", "strategy": "PassiveLocker",
                       "params": {"lock_schedule": [{"epoch": 0, "kind": "deposit", "amount": 50000}]}})
    balances.append(["depositor", "CRV", 50000])

    return {
        "name": "bribe-market",
        "horizon_epochs": horizon,
        "round_length": 2,
        "base_snapshot_cadence": 1,
        "rng_seed": seed,
        "tokens": [{"symbol": s, "transferable": True} for s in TOKENS],
        "price_series": {s: [[0, 1.0]] for s in TOKENS},
        "initial_balances": balances,
        **_PROTOCOL,
        "gauges": [{"name": f"g{i}", "lp_accounts": [[f"lp{i}", 10000]]} for i in range(gauges)],
        "emission_schedule": [{"start": 0, "end": horizon, "per_week": 1000000}],
        "agents": agent_list,
    }


# Workload name -> (generator, sizes).  Sizes keep one rep (run plus report
# list) near 1 s, so a run takes its median over many reps: on a shared host
# the speed of identical work drifts by tens of percent, for seconds to
# minutes at a time.
WORKLOADS = {
    "mixed-250": (mixed, {"agents": 24, "gauges": 12, "horizon": 250}),
    "base-lockers": (base_lockers, {"lockers": 200, "gauges": 6, "horizon": 64}),
    "bribe-market": (bribe_market, {"gauges": 40, "followers": 40, "bribers": 20, "horizon": 30}),
}

# Seed at which each workload's trace and export digests are pinned.
DEFAULT_SEED = 424242

# Scenarios generated from one --seed and measured in one run.  A metric is
# the mean of the per-scenario medians, so one seed's draw (say, how many
# gauges the mixed workload's self-promoters own) moves it less.
SCENARIOS_PER_RUN = 4


def scenario_seeds(seed: int) -> list[int]:
    """``seed`` itself, then 64-bit seeds derived from it."""
    return [seed] + [
        int.from_bytes(hashlib.sha256(f"{seed}:{i}".encode()).digest()[:8], "big")
        for i in range(1, SCENARIOS_PER_RUN)
    ]

# Sizes for the tests and the warm-up rep; every report in the list still exits 0.
TINY = {
    "mixed-250": {"agents": 5, "gauges": 4, "horizon": 12},
    "base-lockers": {"lockers": 6, "gauges": 3, "horizon": 12},
    "bribe-market": {"gauges": 4, "followers": 4, "bribers": 2, "horizon": 12},
}

_SHARE_METRICS = ["participation", "share_table", "pearson", "outliers", "diff_matrix",
                  "snapshots", "round_results", "settlements"]

# Every ``vetokensim report`` call that exits 0 on the workload's trace, with
# one cost_per_vote actor per avenue the workload has.  A nonzero exit of any
# of them is a failed operation.  base-lockers has no meta votes, so its
# share table is empty and pearson, outliers and diff_matrix exit 2 there.
REPORTS = {
    "mixed-250": [[m] for m in _SHARE_METRICS] + [
        ["cost_per_vote", "passive-0", "direct-lock"],
        ["cost_per_vote", "fixed-0", "aggregator-lock"],
        ["cost_per_vote", "promo-0", "bribe"],
    ],
    "base-lockers": [["participation"], ["share_table"], ["snapshots"], ["round_results"],
                     ["settlements"], ["cost_per_vote", "locker-000", "direct-lock"]],
    "bribe-market": [[m] for m in _SHARE_METRICS] + [
        ["cost_per_vote", "equil-00", "aggregator-lock"],
        ["cost_per_vote", "briber-00", "bribe"],
    ],
}


def report_args(report: list[str], trace: str, out_dir: str) -> tuple[str, list[str]]:
    """(export file name, ``vetokensim`` argv) for one entry of ``REPORTS``."""
    metric, *who = report
    name = "-".join([metric, *who]) + ".csv"
    argv = ["report", trace, "--metric", metric, "--out", f"{out_dir}/{name}"]
    if who:
        argv += ["--actor", who[0], "--avenue", who[1]]
    return name, argv


def write_scenario(path: str, workload: str, seed: int, params: dict) -> dict:
    """Generate ``workload`` at ``seed`` and write it to ``path``; return the dict."""
    raw = WORKLOADS[workload][0](seed, **params)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(raw, handle, sort_keys=True)
    return raw
