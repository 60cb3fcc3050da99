"""In-memory span and counter recording around the program's layer calls.

Wrappers are installed at the name each caller looks up (a module attribute
or a class attribute) and removed afterwards, so the program's own code is
untouched.  A span is (name, start, end, parent index, run id); spans stay in
memory until the benchmark writes them out.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter

# Report functions the CLI and its run summary call through ``vetokensim.metrics``.
METRIC_FUNCTIONS = (
    "participation_stats", "share_table", "pearson", "outlier_table", "diff_matrix",
    "gauge_snapshots", "round_results", "settlements", "cost_per_vote_series", "export",
)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.run_counts: dict[int, Counter] = {}
        self.run_id = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, parent, self.run_id)

    def _spanned(self, name: str, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.counts[name + ".calls"] += 1
            if after is not None:
                after(self.counts, result, args)
            return result

        return wrapper

    def _counted(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def installed(self, program):
        """Patch every layer boundary of ``program`` (the imported package modules)."""
        sim, cli = program.sim, program.cli
        Escrow, Ledger = program.escrow.Escrow, program.ledger.Ledger
        Gauges = program.gauges.GaugeController
        Aggregator, Market = program.aggregator.Aggregator, program.bribemarket.BribeMarket

        def after_decide(counts, actions, args):
            counts["agents.actions"] += len(actions)

        def after_finalize(counts, result, args):
            aggregator, round_id = args[0], args[1]
            counts["aggregator.counted_voters"] += len(aggregator.rounds[round_id].counted_weight)

        def after_settle(counts, settlement, args):
            for gs in settlement.gauges.values():
                counts["bribemarket.payout_transfers"] += sum(len(t) for t in gs.payouts.values())
                counts["bribemarket.deposited"] += sum(gs.deposits.values())
                counts["bribemarket.refunded"] += sum(sum(t.values()) for t in gs.refunds.values())

        spanned = [
            (cli, "run_scenario", "sim.run_scenario", None),
            (cli, "load_scenario", "sim.load_scenario", None),
            (cli, "_summarize", "cli.summarize", None),
            (sim.World, "step", "sim.step", None),
            (sim.World, "_observation", "sim.observe", None),
            (sim.World, "_apply", "sim.apply", None),
            (sim.World, "_row", "sim.row_build", None),
            (sim.World, "_finalized_row", "sim.row_build", None),
            (sim.World, "_settlement_row", "sim.row_build", None),
            (sim.SimTrace, "write_ndjson", "sim.write_ndjson", None),
            (sim, "decide", "agents.decide", after_decide),
            (program.agents, "equilibrium_allocation", "agents.equilibrium_allocation", None),
            (Gauges, "take_snapshot", "gauges.take_snapshot", None),
            (Gauges, "distribute_emissions", "gauges.distribute_emissions", None),
            (Aggregator, "finalize_round", "aggregator.finalize_round", after_finalize),
            (Aggregator, "cast_meta_vote", "aggregator.cast_meta_vote", None),
            (Market, "settle_round", "bribemarket.settle_round", after_settle),
            (Ledger, "digest", "ledger.digest", None),
            (Ledger, "token_totals", "ledger.token_totals", None),
            (Ledger, "assert_conservation", "ledger.assert_conservation", None),
        ] + [(program.metrics, fn, f"metrics.{fn}", None) for fn in METRIC_FUNCTIONS]
        counted = [
            (Escrow, "voting_weight", "escrow.voting_weight.calls"),
            (Escrow, "total_voting_weight", "escrow.total_voting_weight.calls"),
            (Escrow, "create_lock", "escrow.lock_ops"),
            (Escrow, "modify_lock", "escrow.lock_ops"),
            (Escrow, "withdraw", "escrow.lock_ops"),
            (Gauges, "vote_for_gauge_weights", "gauges.vote_for_gauge_weights.calls"),
            (Market, "post_bribe", "bribemarket.post_bribe.calls"),
            (Ledger, "transfer", "ledger.transfer.calls"),
            (Ledger, "mint", "ledger.mint.calls"),
        ]
        # read_ndjson is a classmethod: wrap the function, rebind as classmethod
        read_ndjson = sim.SimTrace.__dict__["read_ndjson"]
        originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, *_ in spanned + counted]
        originals.append((sim.SimTrace, "read_ndjson", read_ndjson))
        try:
            for owner, attr, name, after in spanned:
                setattr(owner, attr, self._spanned(name, getattr(owner, attr), after))
            for owner, attr, name in counted:
                setattr(owner, attr, self._counted(name, getattr(owner, attr)))
            sim.SimTrace.read_ndjson = classmethod(self._spanned("sim.read_ndjson", read_ndjson.__func__))
            yield self
        finally:
            for owner, attr, original in originals:
                setattr(owner, attr, original)

    def begin(self, run_id: int) -> None:
        """Start a new run: later spans and counts are attributed to ``run_id``."""
        self.run_id = run_id
        self.counts = self.run_counts[run_id] = Counter()

    def layer_metrics(self, run_id: int) -> dict[str, float]:
        """Per-layer figures for one run: ``<span>.s`` inclusive seconds, the
        counters, ``sim.step.self_s`` and step-time percentiles."""
        totals: Counter = Counter()
        child_time: Counter = Counter()
        for name, start, end, parent, rid in self.spans:
            if rid == run_id:
                totals[name] += end - start
                if parent >= 0:
                    child_time[parent] += end - start
        step_ms, step_self = [], 0.0
        for i, (name, start, end, _, rid) in enumerate(self.spans):
            if rid == run_id and name == "sim.step":
                step_ms.append((end - start) * 1000.0)
                step_self += (end - start) - child_time[i]
        out = {f"{name}.s": value for name, value in totals.items()}
        counts = dict(self.run_counts.get(run_id, {}))
        deposited, refunded = counts.pop("bribemarket.deposited", 0), counts.pop("bribemarket.refunded", 0)
        out.update(counts)
        out["bribemarket.refund_share"] = refunded / deposited if deposited else 0.0
        if step_ms:
            out["sim.step_ms.p50"] = statistics.median(step_ms)
            out["sim.step_ms.p99"] = statistics.quantiles(step_ms, n=100, method="inclusive")[98]
            out["sim.step.self_s"] = step_self
        return out

    def write(self, path: str, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(header, sort_keys=True) + "\n")
            for name, start, end, parent, run_id in self.spans:
                handle.write(json.dumps({"name": name, "start": start, "end": end,
                                         "parent": parent, "run": run_id}) + "\n")
