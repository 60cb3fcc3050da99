"""Deterministic discrete-time simulator of vote-escrowed token governance.

The stack has three tiers: a base escrow/gauge protocol (lock a token for
time-decaying voting weight that steers weekly emissions), a pooling
aggregator whose own short-lock token governs the pooled weight through
fortnightly meta-rounds, and a bribe market that pays the meta-voters who
direct weight to bribed gauges.  Agent strategies generate the lock, vote and
bribe flow; a metrics engine reads the resulting trace.
"""

from .errors import VeTokenSimError
from .scenario import ScenarioConfig, load_scenario, packaged_scenarios

__version__ = "0.1.0"

__all__ = [
    "ScenarioConfig",
    "SimTrace",
    "VeTokenSimError",
    "World",
    "load_scenario",
    "packaged_scenarios",
    "run_scenario",
    "__version__",
]


def __getattr__(name: str):
    # the epoch loop and the trace reader load on first use (PEP 562), so a
    # command that runs neither never loads them
    if name in ("World", "run_scenario"):
        from .sim import World, run_scenario

        return World if name == "World" else run_scenario
    if name == "SimTrace":
        from .trace import SimTrace

        return SimTrace
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
