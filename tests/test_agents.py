import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim import agents
from vetokensim.agents import (
    BaseVoteAction,
    BribeAction,
    MetaVoteAction,
    Observation,
    _usd_to_units,
    decide,
    equilibrium_allocation,
)
from vetokensim.errors import AgentError
from vetokensim.gauges import BPS
from vetokensim.ledger import ONE, left_sum
from vetokensim.scenario import (
    STRATEGIES,
    AgentSpec,
    LockEntry,
    load_scenario,
    packaged_scenarios,
    scenario_from_dict,
)
from vetokensim.sim import run_scenario

from conftest import U
from test_acceptance import _randomized_scenario
from test_golden import _exogenous_followers_scenario


def reference_equilibrium_allocation(bribes_usd, follower_weight, exogenous_weight=None, tol: float = 1e-9):
    """``equilibrium_allocation`` as it was when every probe built a dict:
    the oracle that the list-summing probes must match bit for bit."""
    if tol <= 0:
        raise AgentError("tol must be positive")
    if follower_weight <= 0:
        raise AgentError("follower_weight must be positive")
    bribes = {g: float(b) for g, b in bribes_usd.items() if b > 0}
    if not bribes:
        raise AgentError("no positive bribes to follow")
    exo = {g: max(0.0, float(w)) for g, w in (exogenous_weight or {}).items()}

    def allocated(level: float) -> dict[int, float]:
        return {g: max(0.0, b / level - exo.get(g, 0.0)) for g, b in bribes.items()}

    def total(values) -> float:
        # left to right from 0: the built-in ``sum()`` compensates rounding since CPython 3.12
        result = 0
        for value in values:
            result += value
        return result

    # at hi the demand is at most follower_weight; walk lo down until demand covers it
    hi = total(bribes.values()) / follower_weight
    lo = hi
    while total(allocated(lo).values()) < follower_weight:
        lo /= 2.0
    while hi - lo > tol * hi:
        mid = (lo + hi) / 2.0
        if total(allocated(mid).values()) >= follower_weight:
            lo = mid
        else:
            hi = mid
    return {g: amount for g, amount in allocated(lo).items() if amount > 0}


def obs(**overrides) -> Observation:
    defaults = dict(
        epoch=0,
        round_id=0,
        round_open_epoch=0,
        bribes_usd={},
        prev_round_weights={},
        own_gov_weight_at_close=0.0,
        own_base_weight=0.0,
        active_gauges=(0, 1, 2),
        token_prices={"BRIBE-USD": 1.0, "CRV": 1.0, "CVX": 1.0},
        noise_seed=12345,
    )
    defaults.update(overrides)
    return Observation(**defaults)


def ballot_of(actions) -> dict:
    for action in actions:
        if isinstance(action, MetaVoteAction):
            return dict(action.allocation)
    return {}


class TestEquilibriumAllocation:
    def test_pure_proportionality(self):
        split = equilibrium_allocation({0: 75.0, 1: 25.0}, 100.0)
        total = sum(split.values())
        assert split[0] / total == pytest.approx(0.75, abs=1e-9)
        assert split[1] / total == pytest.approx(0.25, abs=1e-9)
        assert total == pytest.approx(100.0, rel=1e-8)

    def test_single_gauge(self):
        split = equilibrium_allocation({0: 100.0}, 40.0)
        assert split == pytest.approx({0: 40.0}, rel=1e-8)
        assert 100.0 / split[0] == pytest.approx(2.5, rel=1e-8)

    def test_water_filling_skips_congested_gauge(self):
        # bribes {g0: 90, g1: 10} with 50 exogenous weight already on g1:
        # level = 90/100 = 0.9 with everything on g0, since even an empty g1
        # pays only 10/50 = 0.2 per vote
        split = equilibrium_allocation({0: 90.0, 1: 10.0}, 100.0, {0: 0.0, 1: 50.0})
        assert split[0] == pytest.approx(100.0, rel=1e-8)
        assert split.get(1, 0.0) == 0.0

    def test_equalization_with_exogenous_weight(self):
        bribes = {0: 60.0, 1: 40.0}
        exo = {0: 10.0, 1: 30.0}
        split = equilibrium_allocation(bribes, 100.0, exo)
        rates = {g: bribes[g] / (exo[g] + split.get(g, 0.0)) for g in bribes if split.get(g, 0.0) > 0}
        values = list(rates.values())
        assert max(values) - min(values) <= 1e-9 * max(values)
        assert sum(split.values()) == pytest.approx(100.0, rel=1e-8)

    def test_no_positive_bribes(self):
        with pytest.raises(AgentError):
            equilibrium_allocation({0: 0.0}, 10.0)

    def test_bad_weight(self):
        with pytest.raises(AgentError):
            equilibrium_allocation({0: 1.0}, 0.0)

    @given(
        bribes=st.lists(st.floats(min_value=0.5, max_value=500.0), min_size=1, max_size=5),
        weight=st.floats(min_value=0.5, max_value=1000.0),
        scale=st.floats(min_value=0.01, max_value=100.0),
    )
    @settings(max_examples=50, deadline=None)
    def test_scale_invariance_of_shares(self, bribes, weight, scale):
        mapping = dict(enumerate(bribes))
        scaled = {g: b * scale for g, b in mapping.items()}
        one = equilibrium_allocation(mapping, weight)
        two = equilibrium_allocation(scaled, weight)
        total_one, total_two = sum(one.values()), sum(two.values())
        for g in one:
            assert one[g] / total_one == pytest.approx(two[g] / total_two, abs=1e-7)

    @given(
        gauges=st.lists(
            st.tuples(
                st.floats(min_value=1e-6, max_value=1e9),
                st.one_of(
                    st.none(),
                    st.just(0.0),
                    st.floats(min_value=-1e6, max_value=-1e-6),
                    st.floats(min_value=1e-6, max_value=1e6),
                ),
            ),
            min_size=1,
            max_size=60,
        ),
        weight=st.floats(min_value=1e-3, max_value=1e7),
        with_exogenous=st.booleans(),
        order=st.randoms(use_true_random=False),
    )
    @settings(max_examples=300, deadline=None)
    # the probe-count cases below, and a wide split whose seed probe answers every midpoint
    @example(gauges=[(0.1, None), (0.2, None)], weight=0.3, with_exogenous=False, order=random.Random(0))
    @example(gauges=[(3.0, None), (5.0, None), (7.0, None)], weight=0.9, with_exogenous=False, order=random.Random(0))
    @example(gauges=[(1.0 + g / 7, None) for g in range(200)], weight=1234.5, with_exogenous=False,
             order=random.Random(1))
    def test_bit_identical_to_reference(self, gauges, weight, with_exogenous, order):
        ids = list(range(len(gauges)))
        order.shuffle(ids)  # gauge order is insertion order, not id order
        bribes = {g: b for g, (b, _) in zip(ids, gauges)}
        exo = {g: w for g, (_, w) in zip(ids, gauges) if w is not None} if with_exogenous else None
        got = equilibrium_allocation(bribes, weight, exo)
        want = reference_equilibrium_allocation(bribes, weight, exo)
        assert list(got) == list(want)
        assert list(got.values()) == list(want.values())

    @pytest.mark.parametrize(
        "bribes, weight",
        [
            ({0: 1e300, 1: 1e300}, 1e-300),  # the start level overflows to inf
            ({0: 5e-324}, 10.0),  # the start level underflows to 0.0
            ({0: 1.0}, float("inf")),
        ],
    )
    def test_level_out_of_float_range(self, bribes, weight):
        with pytest.raises(AgentError, match="out of range"):
            equilibrium_allocation(bribes, weight)

    def test_no_level_above_zero_covers_the_weight(self):
        # even at the smallest positive level the bribe buys less than the exogenous weight
        with pytest.raises(AgentError, match="no positive level covers"):
            equilibrium_allocation({0: 1e-300}, 1.0, {0: 1e30})

    @pytest.mark.parametrize(
        "bribes, weight, rel",
        [
            # LEVEL_WIDTH * level underflows to 0.0; a subnormal level has few
            # significant bits, so the search ends where the midpoint is a bound:
            ({0: 1.24472e-318, 1: 6.19636e-318}, 4049.6339015056997, 1e-2),  # the upper one
            ({0: 1.6e-311, 1: 1.1e-311, 2: 8.5e-311}, 3.1e9, 1e-2),  # the lower one
        ],
    )
    def test_search_ends_when_bounds_meet(self, bribes, weight, rel):
        split = equilibrium_allocation(bribes, weight)
        assert sum(split.values()) == pytest.approx(weight, rel=rel)


def left_sum_calls(monkeypatch) -> list:
    """Count the calls of ``left_sum`` made in ``vetokensim.agents``: the list
    returned grows by one entry per call."""
    calls = []

    def counted(values):
        calls.append(None)
        return left_sum(values)

    monkeypatch.setattr(agents, "left_sum", counted)
    return calls


class TestProbeCount:
    """The probe memo answers most bisection steps: a count of probe sums,
    never a time, guards it.  Probing every level made 32 sums in the first
    two cases."""

    @pytest.mark.parametrize(
        "bribes, weight, most",
        [
            ({0: 0.1, 1: 0.2}, 0.3, 4),
            ({0: 3.0, 1: 5.0, 2: 7.0}, 0.9, 4),
            ({0: 1.0, 1: 2.0, 2: 3.0}, 7.0, 2),  # the start level covers the weight: no search
        ],
    )
    def test_left_sum_calls(self, monkeypatch, bribes, weight, most):
        calls = left_sum_calls(monkeypatch)
        equilibrium_allocation(bribes, weight)
        assert len(calls) <= most

    def test_exogenous_followers_run(self, monkeypatch):
        # two probes around the closed-form level; with none the run made 336 sums
        traffic, sums = kernel_traffic(monkeypatch, scenario_from_dict(_exogenous_followers_scenario()))
        assert len(traffic) == 15
        assert sums <= 100


def kernel_traffic(monkeypatch, config) -> tuple[list, int]:
    """Run ``config`` with the kernel that ``decide`` calls wrapped: each call's
    (arguments, answer), and the number of ``left_sum`` calls inside the kernel."""
    kernel, traffic, sums = equilibrium_allocation, [], 0
    calls = left_sum_calls(monkeypatch)

    def wrapped(*args):
        nonlocal sums
        before = len(calls)
        answer = kernel(*args)
        sums += len(calls) - before
        traffic.append((args, answer))
        return answer

    monkeypatch.setattr(agents, "equilibrium_allocation", wrapped)
    run_scenario(config)
    return traffic, sums


class TestKernelTraffic:
    """Every kernel call of real runs equals the reference bisection bit for
    bit.  The golden digests alone would miss a float difference that
    ``shares_to_bps`` rounds away."""

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param(lambda: scenario_from_dict(_randomized_scenario(horizon=80, seed=2)), id="randomized-80"),
            pytest.param(lambda: scenario_from_dict(_exogenous_followers_scenario()), id="exogenous-followers"),
        ]
        + [pytest.param(lambda name=name: load_scenario(name), id=name) for name in sorted(packaged_scenarios())],
    )
    def test_every_call_matches_the_reference(self, monkeypatch, config):
        config = config()
        traffic, _ = kernel_traffic(monkeypatch, config)
        # each run with an equilibrium follower reaches the kernel through the module global
        assert bool(traffic) == any(spec.strategy == "BribeFollowerEquilibrium" for spec in config.agents)
        for args, answer in traffic:
            want = reference_equilibrium_allocation(*args)
            assert list(answer.items()) == list(want.items()), args

    def test_probe_sums_of_a_whole_run(self, monkeypatch):
        # a work count, not a time: probing every level made 1 008 sums here
        traffic, sums = kernel_traffic(monkeypatch, scenario_from_dict(_randomized_scenario(horizon=80, seed=2)))
        assert len(traffic) == 159
        assert sums <= 364


class TestObservation:
    def test_field_order(self):
        # ``World._observation`` builds an observation positionally, in this order
        assert Observation._fields == (
            "epoch", "round_id", "round_open_epoch", "bribes_usd", "prev_round_weights", "own_gov_weight_at_close",
            "own_base_weight", "active_gauges", "token_prices", "noise_seed",
        )

    @pytest.mark.parametrize("name", Observation._fields)
    def test_fields_are_read_only(self, name):
        observation = obs()
        with pytest.raises(AttributeError):
            setattr(observation, name, getattr(observation, name))
        with pytest.raises(AttributeError):
            observation.extra = 1

    def test_noise_seed_defaults_to_zero(self):
        defaults = obs()._asdict()
        del defaults["noise_seed"]
        assert Observation(**defaults).noise_seed == 0


class TestGreedy:
    def test_argmax_expected_dollars_per_vote(self):
        # oracle: enumerate both options
        # g0: 100/(10+1) = 9.09..., g1: 50/(1+1) = 25 -> g1 wins
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy")
        observation = obs(
            bribes_usd={0: 100.0, 1: 50.0},
            prev_round_weights={0: 10.0, 1: 1.0},
            own_gov_weight_at_close=1.0,
        )
        options = {
            g: observation.bribes_usd[g] / (observation.prev_round_weights.get(g, 0.0) + 1.0)
            for g in (0, 1)
        }
        best = max(sorted(options), key=lambda g: options[g])
        assert ballot_of(decide(spec, observation)) == {best: BPS} == {1: BPS}

    def test_tie_breaks_to_lowest_gauge(self):
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy")
        observation = obs(bribes_usd={0: 10.0, 2: 10.0}, own_gov_weight_at_close=5.0)
        assert ballot_of(decide(spec, observation)) == {0: BPS}

    def test_no_bribes_no_ballot(self):
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy")
        assert decide(spec, obs(own_gov_weight_at_close=5.0)) == []

    def test_zero_weight_no_ballot(self):
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy")
        assert decide(spec, obs(bribes_usd={0: 10.0})) == []


class TestEquilibriumStrategy:
    def test_population_splits_like_bribes(self):
        spec = AgentSpec(account="e", strategy="BribeFollowerEquilibrium")
        observation = obs(bribes_usd={0: 75.0, 1: 25.0}, own_gov_weight_at_close=100.0)
        assert ballot_of(decide(spec, observation)) == {0: 7500, 1: 2500}


class TestSelfPromoter:
    def test_zero_budget_still_votes_own_gauge(self):
        spec = AgentSpec(account="s", strategy="SelfPromoter", own_gauges=(1,))
        actions = decide(spec, obs(own_gov_weight_at_close=10.0))
        assert not any(isinstance(a, BribeAction) for a in actions)
        assert ballot_of(actions) == {1: BPS}

    def test_budget_split_evenly_across_own_gauges(self):
        spec = AgentSpec(
            account="s", strategy="SelfPromoter", own_gauges=(0, 1), budget_per_round=1000.0
        )
        actions = decide(spec, obs(own_gov_weight_at_close=1.0))
        bribes = [a for a in actions if isinstance(a, BribeAction)]
        assert [(b.gauge_id, b.amount) for b in bribes] == [(0, U(500)), (1, U(500))]

    def test_votes_highest_bribed_own_gauge_even_if_outbid_elsewhere(self):
        spec = AgentSpec(
            account="s", strategy="SelfPromoter", own_gauges=(0, 1), budget_per_round=100.0
        )
        observation = obs(
            bribes_usd={1: 30.0, 2: 10_000.0},  # external money on g2 is ignored
            own_gov_weight_at_close=5.0,
        )
        actions = decide(spec, observation)
        # own posts add 50 to each own gauge: g1 carries 80, g0 carries 50
        assert ballot_of(actions) == {1: BPS}

    def test_posts_only_on_round_open_epoch(self):
        spec = AgentSpec(
            account="s", strategy="SelfPromoter", own_gauges=(0,), budget_per_round=100.0
        )
        late = obs(epoch=1, own_gov_weight_at_close=5.0)
        assert not any(isinstance(a, BribeAction) for a in decide(spec, late))

    def test_base_vote_with_base_weight(self):
        spec = AgentSpec(account="s", strategy="SelfPromoter", own_gauges=(0,))
        actions = decide(spec, obs(own_base_weight=3.0))
        base_votes = [a for a in actions if isinstance(a, BaseVoteAction)]
        assert base_votes == [BaseVoteAction(((0, BPS),))]

    def test_budget_below_one_unit_per_gauge_posts_no_zero_bribe(self):
        # 2e-18 USD buys two base units: one each for gauges 0 and 1, none for gauge 2
        spec = AgentSpec(account="s", strategy="SelfPromoter", own_gauges=(2, 0, 1), budget_per_round=2e-18)
        assert decide(spec, obs()) == [BribeAction(0, "BRIBE-USD", 1), BribeAction(1, "BRIBE-USD", 1)]


# spec fields, observation fields -> decide's exact actions, where a voting
# strategy casts no meta vote; the noise must not make a ballot out of none
NO_META_VOTE = {
    "FixedAllocator without governance weight": (
        {"strategy": "FixedAllocator", "allocation": ((0, 6000), (2, 4000))}, {}, [],
    ),
    "FixedAllocator with an empty allocation": ({"strategy": "FixedAllocator"}, {"own_gov_weight_at_close": 5.0}, []),
    **{
        f"{strategy} {title}": ({"strategy": strategy}, observed, [])
        for strategy in ("BribeFollowerGreedy", "BribeFollowerEquilibrium")
        for title, observed in (
            ("without governance weight", {"bribes_usd": {0: 10.0, 1: 5.0}}),
            ("without a positive bribe", {"bribes_usd": {0: 0.0}, "own_gov_weight_at_close": 5.0}),
        )
    },
    "SelfPromoter with base weight only": (
        {"strategy": "SelfPromoter", "own_gauges": (1, 2)},
        {"bribes_usd": {2: 5.0}, "own_base_weight": 3.0},
        [BaseVoteAction(((2, BPS),))],
    ),
}


@pytest.mark.parametrize("case", sorted(NO_META_VOTE))
def test_no_meta_vote(case):
    spec_fields, observed, expected = NO_META_VOTE[case]
    spec = AgentSpec(account="v", noise=0.5, **spec_fields)
    assert decide(spec, obs(**observed)) == expected


def reference_usd_to_units(usd: float, price: float) -> int:
    """``_usd_to_units`` as it was when it divided Fractions: the oracle that
    the integer-ratio floor must match exactly."""
    return int(Fraction(repr(float(usd))) / Fraction(repr(float(price))) * ONE)


# any positive finite float, and decimal-exponent ones whose repr reads like 1e-05 or 1.5e+20
POSITIVE_FLOATS = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_nan=False, allow_infinity=False),
    st.builds(lambda digits, exponent: float(f"{digits}e{exponent}"),
              st.integers(1, 10**17), st.integers(-323, 290)),
)


class TestUsdToUnits:
    @settings(max_examples=500, deadline=None)
    @given(usd=POSITIVE_FLOATS, price=POSITIVE_FLOATS)
    @example(usd=1e-05, price=1.5e20)
    @example(usd=1.5e20, price=1e-05)
    @example(usd=0.1, price=0.3)
    @example(usd=1.7976931348623157e308, price=5e-324)
    def test_matches_the_fraction_floor(self, usd, price):
        units = _usd_to_units(usd, price)
        assert type(units) is int
        assert units == reference_usd_to_units(usd, price)

    @pytest.mark.parametrize("price", [0.0, -1.0])
    def test_non_positive_price_is_an_agent_error(self, price):
        with pytest.raises(AgentError, match="non-positive price"):
            _usd_to_units(100.0, price)


class TestSchedulesAndNoise:
    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_decide_does_not_read_the_schedule(self, strategy):
        # ``World`` applies the schedule; ``decide`` sees it only through the observed weights
        plain = AgentSpec(account="s", strategy=strategy, own_gauges=(0,), allocation=((0, BPS),))
        scheduled = AgentSpec(
            account="s", strategy=strategy, own_gauges=(0,), allocation=((0, BPS),),
            lock_schedule=(LockEntry(epoch=0, kind="gov", amount=U(100), weeks=16),
                           LockEntry(epoch=0, kind="deposit", amount=U(7))),
        )
        for observation in (obs(), obs(bribes_usd={0: 5.0}, own_gov_weight_at_close=2.0, own_base_weight=1.0)):
            assert decide(scheduled, observation) == decide(plain, observation)

    def test_noise_diverts_exact_fraction(self):
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy", noise=0.15)
        observation = obs(bribes_usd={0: 10.0}, own_gov_weight_at_close=5.0)
        ballot = ballot_of(decide(spec, observation))
        assert sum(ballot.values()) == BPS
        import random as _random

        target = _random.Random(observation.noise_seed).choice([0, 1, 2])
        if target == 0:
            assert ballot == {0: BPS}
        else:
            assert ballot == {0: 8500, target: 1500}

    def test_determinism(self):
        spec = AgentSpec(account="g", strategy="BribeFollowerGreedy", noise=0.4)
        observation = obs(bribes_usd={0: 9.0, 1: 3.0}, own_gov_weight_at_close=2.0)
        assert decide(spec, observation) == decide(spec, observation)

