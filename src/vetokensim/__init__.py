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
from .sim import World, run_scenario
from .trace import SimTrace

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
