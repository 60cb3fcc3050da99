"""Command-line front door: validate scenarios, run simulations, export metrics.

Exit codes: 0 success, 1 usage/validation error, 2 runtime error.  Output is
plain text (no colour, so NO_COLOR needs no special handling).

Each command loads only the modules it runs: ``validate`` and ``scenarios``
stop at ``scenario``, ``report`` adds ``trace`` and ``metrics``, and only
``run`` loads the epoch loop (``sim``) and the protocol modules under it.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

from .errors import ScenarioError, SimulationError, VeTokenSimError
from .scenario import AVENUES, MAX_SEED, load_scenario, packaged_scenarios


def run_scenario(config):
    """``sim.run_scenario``, loading the epoch loop on the first call: only
    ``run`` needs it.  ``_cmd_run`` looks this name up when it runs, so a
    wrapper set here (a timer, say) sees the call."""
    from .sim import run_scenario

    return run_scenario(config)


def _metrics():
    """The ``metrics`` module, loaded on first use: only ``run`` and ``report`` read a trace."""
    from . import metrics

    return metrics


def _shares(trace, args):
    return _metrics().share_table(trace)


# --metric -> (round-keyed, source, derive).  ``source(trace, args)`` builds a
# metrics table; with --round, a round-keyed table keeps only the rows whose
# round_id is in range, and ``derive``, if any, maps what is kept.  Entries
# look ``metrics.<fn>`` up when called, so a wrapper installed on the module
# sees every call.  The order is the order of the --metric choices.
REPORTS = {
    "participation": (False, lambda trace, args: _metrics().participation_stats(trace), None),
    "share_table": (True, _shares, None),
    "pearson": (True, _shares, lambda table: _metrics().Correlation(_metrics().pearson(table.pairs()))),
    "outliers": (True, _shares, lambda table: _metrics().outlier_table(table)),
    "diff_matrix": (True, _shares, lambda table: _metrics().diff_matrix(table)),
    "cost_per_vote": (
        False,
        lambda trace, args: _metrics().cost_per_vote_series(trace, args.actor, args.avenue),
        None,
    ),
    "snapshots": (False, lambda trace, args: _metrics().gauge_snapshots(trace), None),
    "round_results": (True, lambda trace, args: _metrics().round_results(trace), None),
    "settlements": (True, lambda trace, args: _metrics().settlements(trace), None),
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise _UsageError(message)


@functools.cache
def _parser() -> _Parser:
    """The command-line parser, built on the first ``main`` call and kept:
    ``parse_args`` returns a new namespace each call and keeps no parsed state."""
    parser = _Parser(prog="vetokensim", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    validate = sub.add_parser("validate", help="check a scenario file and exit")
    validate.add_argument("scenario", help="scenario path or packaged name")

    run = sub.add_parser("run", help="run a scenario and write trace plus summary")
    run.add_argument("scenario", help="scenario path or packaged name")
    run.add_argument("--out", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None, help="override the scenario rng seed")

    report = sub.add_parser("report", help="compute a metric from a trace file")
    report.add_argument("trace", help="path to a trace.ndjson file")
    report.add_argument("--metric", required=True, choices=list(REPORTS))
    report.add_argument("--round", default=None, metavar="A..B", help="restrict to rounds A..B inclusive")
    report.add_argument("--actor", default=None, help="account for cost_per_vote")
    report.add_argument("--avenue", default=None, choices=AVENUES, help="avenue for cost_per_vote")
    report.add_argument("--out", required=True, help="output file")
    report.add_argument("--format", default="csv", choices=("csv", "json"))

    sub.add_parser("scenarios", help="list packaged scenarios")
    return parser


def _parse_round_range(text: str) -> tuple[int, int]:
    start, _, end = text.partition("..")
    # ASCII digits only: ``int`` would also take "1_0", " 1", "+1" and "١"
    try:
        if not all(side.isascii() and side.isdigit() for side in (start, end)):
            raise ValueError
        lo, hi = int(start), int(end)  # fails past the digits ``int`` converts
    except ValueError:
        raise _UsageError(f"--round expects A..B, got {text!r}") from None
    if hi < lo:
        raise _UsageError(f"--round range {text!r} is empty")
    return lo, hi


def _phase_pearson(table, bootstrap_rounds: int) -> dict:
    metrics = _metrics()

    def safe(rows):
        try:
            return metrics.pearson([(r.bribe_share, r.vote_share) for r in rows])
        except VeTokenSimError:
            return None

    out = {"overall": safe(table.rows)}
    if bootstrap_rounds > 0:
        out["bootstrap"] = safe([r for r in table.rows if r.round_id < bootstrap_rounds])
        out["mature"] = safe([r for r in table.rows if r.round_id >= bootstrap_rounds])
    return out


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def _summarize(config, trace) -> dict:
    # one pass over the trace feeds every fold; cost per vote follows every
    # agent account in each avenue
    metrics = _metrics()
    accounts = [spec.account for spec in config.agents]
    participation, shares = metrics.Participation(), metrics.Shares()
    costs = [metrics.CostFold(trace.header, avenue, accounts) for avenue in AVENUES]
    metrics.fold(trace, participation, shares, *costs)
    summary: dict = {
        "scenario": config.name,
        "epochs": participation.epochs,
        "rounds_settled": shares.settled,
        "pearson": {"overall": None},
        "participation": vars(participation.stats()),
    }
    if shares.settled:
        summary["pearson"] = _phase_pearson(shares.table(), config.bootstrap_rounds)
    # account -> avenue -> final USD per vote
    final: dict[str, dict] = {account: {} for account in accounts}
    for cost in costs:
        for account, usd_per_vote in cost.final().items():
            final[account][cost.avenue] = usd_per_vote
    summary["cost_per_vote"] = {account: per_avenue for account, per_avenue in final.items() if per_avenue}
    return summary


def _print_summary(summary: dict) -> None:
    print(
        f"scenario {summary['scenario']}: {summary['epochs']} epochs, "
        f"{summary['rounds_settled']} rounds settled"
    )
    pear = summary["pearson"]
    print(f"pearson(bribe share, vote share): overall {_fmt(pear.get('overall'))}")
    if "bootstrap" in pear:
        print(f"  bootstrap phase: {_fmt(pear.get('bootstrap'))}")
        print(f"  mature phase: {_fmt(pear.get('mature'))}")
    part = summary["participation"]
    print(
        f"participation: {part['unique_voters']}/{part['unique_lockers']} lockers ever vote "
        f"(fraction {part['voter_fraction']:.4f}), weight-voting fraction "
        f"{part['weight_voting_fraction']:.4f}"
    )
    if summary["cost_per_vote"]:
        print("cost per vote (final USD per weight unit):")
        for account, per_avenue in summary["cost_per_vote"].items():
            joined = ", ".join(f"{avenue} {_fmt(value)}" for avenue, value in per_avenue.items())
            print(f"  {account}: {joined}")


def _cmd_validate(args) -> int:
    load_scenario(args.scenario)
    print("OK")
    return 0


def _cmd_run(args) -> int:
    config = load_scenario(args.scenario)
    if args.seed is not None:
        if not 0 <= args.seed <= MAX_SEED:
            raise _UsageError(f"--seed must be a 64-bit unsigned integer, got {args.seed}")
        config = config._replace(rng_seed=args.seed)
    trace = run_scenario(config)
    try:
        summary = _summarize(config, trace)
    except ScenarioError as exc:
        # the run's own rows are not input: a total they cannot hold is a
        # runtime error, found before anything is written
        raise SimulationError(str(exc)) from None
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.ndjson")
    summary_path = os.path.join(args.out, "summary.json")
    trace.write_ndjson(trace_path)
    with open(summary_path, "w", encoding="utf-8") as handle:
        json.dump(summary, handle, sort_keys=True, indent=2)
        handle.write("\n")
    _print_summary(summary)
    print(f"wrote {trace_path} and {summary_path}")
    return 0


def _cmd_report(args) -> int:
    round_range = _parse_round_range(args.round) if args.round else None
    round_keyed, source, derive = REPORTS[args.metric]
    if args.metric == "cost_per_vote" and not (args.actor and args.avenue):
        raise _UsageError("cost_per_vote needs --actor and --avenue")
    for flag, value in (("--actor", args.actor), ("--avenue", args.avenue)):
        if args.metric != "cost_per_vote" and value is not None:
            raise _UsageError(f"{flag} does not apply to {args.metric}")
    if round_range and not round_keyed:
        note = " (epoch-keyed)" if args.metric == "snapshots" else ""
        raise _UsageError(f"--round does not apply to {args.metric}{note}")
    from .trace import SimTrace

    table = source(SimTrace.read_ndjson(args.trace), args)
    if round_range:
        table = table.in_rounds(*round_range)
    if derive:
        table = derive(table)
    _metrics().export(table, args.format, args.out)
    print(f"wrote {args.out}")
    return 0


def _cmd_scenarios(args) -> int:
    for name, description in packaged_scenarios().items():
        print(f"{name}: {description}" if description else name)
    return 0


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except _UsageError:
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    handlers = {
        "validate": _cmd_validate,
        "run": _cmd_run,
        "report": _cmd_report,
        "scenarios": _cmd_scenarios,
    }
    try:
        return handlers[args.command](args)
    except (_UsageError, ScenarioError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (VeTokenSimError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
