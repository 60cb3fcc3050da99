"""Call counts as a regression guard for the direct-locker path.

Each direct locker's epoch costs an observation, a ``decide``, the apply of
its actions, weight reads, and the run summary's ratio reads.  Doubling the
lockers must double those calls: a per-locker cost that grows with the
number of lockers would show here as a ratio near 4.  Counts do not drift
with the host as times do, so nothing here is timed."""

import pytest

from vetokensim import cli, escrow, scenario, sim
from vetokensim.scenario import scenario_from_dict

from test_golden import _direct_lockers_scenario

# name -> (owner, attribute): each is wrapped where its callers look it up
COUNTED = {
    "sim.decide": (sim, "decide"),
    "World._observation": (sim.World, "_observation"),
    "World._apply": (sim.World, "_apply"),
    "Escrow.weight_numerator": (escrow.Escrow, "weight_numerator"),
    "Fields.ratio": (scenario.Fields, "ratio"),
}


def call_counts(lockers: int) -> dict[str, int]:
    """Calls of each ``COUNTED`` name in ``run``'s path: the epoch loop and the summary."""
    counts = dict.fromkeys(COUNTED, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name, (owner, attribute) in COUNTED.items():
            def counted(*args, _name=name, _original=getattr(owner, attribute), **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            patch.setattr(owner, attribute, counted)
        config = scenario_from_dict(_direct_lockers_scenario(lockers, horizon=24, seed=2024))
        cli._summarize(config, sim.run_scenario(config))
    return counts


def test_direct_locker_work_doubles_with_the_lockers():
    small, large = call_counts(24), call_counts(48)
    for name in COUNTED:
        assert small[name] > 0, f"{name} is never called"
        assert 1.8 <= large[name] / small[name] <= 2.2, f"{name}: {small[name]} -> {large[name]}"
