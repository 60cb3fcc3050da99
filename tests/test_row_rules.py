"""Two row fields rebuilt from their rules, on every row of the packaged
scenarios and of randomized-1000.

Emissions: each snapshot's ``emissions`` is the schedule's amount for its
epoch split by floor division over the row's ``relative_weights``, with the
flooring leftover on the largest weight (lowest id on ties) and zero amounts
left out; ``emission_total`` is their sum.

Escrow weights: ``escrow_weights[label]`` and ``locks[label]`` name the same
accounts, and each weight is ``amount * max(0, unlock_epoch - epoch)`` over
the escrow's ``max_lock_weeks * ONE``, the maximum taken from the config by
label.  Each lock event names a lock of its labelled escrow that holds at
least the event's amount until at least its unlock epoch."""

from fractions import Fraction

import pytest

from vetokensim.ledger import ONE
from vetokensim.scenario import load_scenario, packaged_scenarios

from test_acceptance import packaged_trace


def expected_emissions(schedule, epoch: int, relative_weights: dict) -> dict:
    amount = sum(per_week for start, end, per_week in schedule if start <= epoch < end)
    weights = {int(gauge): Fraction(weight) for gauge, weight in relative_weights.items()}
    if amount == 0 or not any(weights.values()):
        return {}
    split = {gauge: amount * weight.numerator // weight.denominator for gauge, weight in weights.items()}
    top = min(weights, key=lambda gauge: (-weights[gauge], gauge))
    split[top] += amount - sum(split.values())
    return {str(gauge): cut for gauge, cut in split.items() if cut}


def check_emissions(config, rows) -> int:
    """Check every snapshot row; return how many emitted."""
    emitted = 0
    for row in rows:
        snapshot = row["snapshot"]
        if snapshot is None:
            continue
        where = f"epoch {row['epoch']}"
        expected = expected_emissions(config.emission_schedule, row["epoch"], snapshot["relative_weights"])
        assert snapshot["emissions"] == expected, where
        assert snapshot["emission_total"] == sum(snapshot["emissions"].values()), where
        emitted += bool(expected)
    return emitted


def check_escrow_weights(config, rows) -> int:
    """Check every row; return how many lock events were checked."""
    max_weeks = {"base": config.base_escrow.max_lock_weeks, "governance": config.gov_escrow.max_lock_weeks}
    events = 0
    for row in rows:
        epoch = row["epoch"]
        assert row["escrow_weights"].keys() == row["locks"].keys() == max_weeks.keys(), f"epoch {epoch}"
        for label, weeks in max_weeks.items():
            weights, locks = row["escrow_weights"][label], row["locks"][label]
            where = f"epoch {epoch}: {label}"
            assert weights.keys() == locks.keys(), where
            for account, lock in locks.items():
                remaining = max(0, lock["unlock_epoch"] - epoch)
                assert Fraction(weights[account]) == Fraction(lock["amount"] * remaining, weeks * ONE), where
        for event in row["lock_events"]:
            lock = row["locks"][event["escrow"]].get(event["account"])
            assert lock is not None, f"epoch {epoch}: no lock for {event}"
            assert lock["amount"] >= event["amount"], f"epoch {epoch}: {event}"
            assert lock["unlock_epoch"] >= event["unlock_epoch"], f"epoch {epoch}: {event}"
            events += 1
    return events


@pytest.mark.parametrize("name", sorted(packaged_scenarios()))
def test_packaged_rows_follow_the_emission_and_weight_rules(name):
    trace = packaged_trace(name)
    config = load_scenario(name)
    assert check_emissions(config, trace.rows) > 0
    assert check_escrow_weights(config, trace.rows) > 0


def test_randomized_1000_rows_follow_the_emission_and_weight_rules(randomized_1000):
    config, trace = randomized_1000
    assert check_emissions(config, trace.rows) > 0
    assert check_escrow_weights(config, trace.rows) > 0
