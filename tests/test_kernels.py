"""Property tests: the integer weight kernels agree exactly with Fraction
reference implementations of the same rules, and the trace-weight reader with
the pattern it replaced."""

import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vetokensim.bribemarket import _prorata
from vetokensim.errors import ScenarioError
from vetokensim.metrics import ZERO, _add, _quotient
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.gauges import BPS, EmissionSchedule, GaugeController, shares_to_bps
from vetokensim.ledger import Ledger
from vetokensim.scenario import Fields, _parse_ratio
from vetokensim.trace import _ratio_str

from conftest import reference_ratio


def reference_shares_to_bps(shares, total_bps=BPS):
    exact = {g: Fraction(s) for g, s in shares.items() if s > 0}
    total = sum(exact.values(), Fraction(0))
    if total == 0 or total_bps <= 0:
        return {}
    quotas = {g: s / total * total_bps for g, s in exact.items()}
    floors = {g: int(q) for g, q in quotas.items()}
    leftover = total_bps - sum(floors.values())
    order = sorted(quotas, key=lambda g: (-(quotas[g] - floors[g]), -quotas[g], g))
    for g in order[:leftover]:
        floors[g] += 1
    return {g: bps for g, bps in floors.items() if bps > 0}


def reference_prorata(total, weights):
    grand = sum((Fraction(w) for w in weights.values()), Fraction(0))
    floors, remainders = {}, []
    for who in sorted(weights):
        quota = total * Fraction(weights[who]) / grand
        floors[who] = int(quota)
        remainders.append((quota - floors[who], who))
    leftover = total - sum(floors.values())
    for _, who in sorted(remainders, key=lambda item: (-item[0], item[1]))[:leftover]:
        floors[who] += 1
    return floors


@st.composite
def tied(draw, values, min_size=1, max_size=12):
    """A mapping whose values come from a pool of at most three, forcing ties,
    under shuffled integer keys."""
    pool = draw(st.lists(values, min_size=1, max_size=3))
    picks = draw(st.lists(st.sampled_from(pool), min_size=min_size, max_size=max_size))
    keys = draw(st.permutations(range(len(picks))))
    return dict(zip(keys, picks))


SHARE_VALUES = st.one_of(
    st.integers(min_value=0, max_value=10**6),
    st.fractions(min_value=0, max_value=100, max_denominator=1000),
    st.floats(min_value=0, max_value=1e6, allow_nan=False, allow_infinity=False),
)


class TestSharesToBps:
    @given(shares=tied(SHARE_VALUES), total_bps=st.sampled_from([BPS, 8500, 7, 0, -3]))
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, shares, total_bps):
        assert shares_to_bps(shares, total_bps) == reference_shares_to_bps(shares, total_bps)

    @given(shares=tied(st.floats(min_value=1e-12, max_value=1.0)))
    @settings(max_examples=100, deadline=None)
    def test_normalised_floats(self, shares):
        # the equilibrium strategy passes amount / total floats
        total = sum(shares.values())
        normalised = {g: s / total for g, s in shares.items()}
        bps = shares_to_bps(normalised)
        assert bps == reference_shares_to_bps(normalised)
        assert sum(bps.values()) == BPS

    def test_equal_remainders_break_by_share_then_id(self):
        # equal shares: quotas 10/3 each, the leftover point goes to the lowest id
        assert shares_to_bps({2: 1, 0: 1, 1: 1}, 10) == {0: 4, 1: 3, 2: 3}
        # quotas 1/2 and 3/2 leave equal remainders: the larger share wins
        assert shares_to_bps({0: 1, 1: 3}, 2) == {1: 2}


class TestProrata:
    @given(
        total=st.integers(min_value=0, max_value=10**24),
        weights=tied(st.integers(min_value=1, max_value=10**30), max_size=8),
    )
    @settings(max_examples=300, deadline=None)
    def test_matches_reference(self, total, weights):
        named = {f"v{k}": w for k, w in weights.items()}
        cuts = _prorata(total, named)
        assert cuts == reference_prorata(total, named)
        assert sum(cuts.values()) == total

    @given(total=st.integers(min_value=0, max_value=50), copies=st.integers(min_value=2, max_value=7))
    @settings(max_examples=100, deadline=None)
    def test_equal_remainder_ties_go_to_lower_id(self, total, copies):
        weights = {f"v{i}": 3 for i in range(copies)}
        cuts = _prorata(total, weights)
        assert cuts == reference_prorata(total, weights)
        base, extra = divmod(total, copies)
        assert cuts == {f"v{i}": base + (1 if i < extra else 0) for i in range(copies)}


LOCK = st.tuples(
    st.integers(min_value=1, max_value=10**24),  # amount in base units
    st.integers(min_value=1, max_value=52),  # lock weeks
    st.lists(st.integers(min_value=0, max_value=BPS // 4), min_size=4, max_size=4),  # bps per gauge
)


class TestRelativeWeights:
    @given(locks=st.lists(LOCK, min_size=1, max_size=8), now=st.integers(min_value=0, max_value=60))
    @settings(max_examples=150, deadline=None)
    def test_matches_reference(self, locks, now):
        ledger = Ledger()
        ledger.register_token("CRV")
        escrow = Escrow(EscrowConfig(token="CRV", max_lock_weeks=52), ledger)
        controller = GaugeController(escrow, ledger, EmissionSchedule(), "CRV")
        for g in range(4):
            controller.add_gauge([(f"lp{g}", BPS)])
        for i, (amount, weeks, splits) in enumerate(locks):
            ledger.mint("CRV", f"a{i}", amount)
            escrow.create_lock(f"a{i}", amount, weeks, 0)
            controller.vote_for_gauge_weights(f"a{i}", list(enumerate(splits)), 0)

        raw = {g: Fraction(0) for g in range(4)}
        for i, (_, _, splits) in enumerate(locks):
            weight = escrow.voting_weight(f"a{i}", now)
            for g, bps in enumerate(splits):
                raw[g] += weight * Fraction(bps, BPS)
        total = sum(raw.values(), Fraction(0))
        expected = {g: w / total for g, w in raw.items()} if total else raw

        weights = controller.relative_weights(now)
        assert all(isinstance(num, int) for num in weights.values())
        denominator = sum(weights.values())
        assert (denominator > 0) == (total > 0)
        assert {g: Fraction(num, denominator or 1) for g, num in weights.items()} == expected


class TestRatioWriter:
    @given(
        num=st.integers(min_value=0, max_value=10**40),
        den=st.integers(min_value=1, max_value=10**40),
        scale=st.integers(min_value=1, max_value=10**6),
    )
    @example(num=0, den=1, scale=1)
    @example(num=0, den=208 * 10**22, scale=1)
    @settings(max_examples=300, deadline=None)
    def test_matches_fraction_str(self, num, den, scale):
        # every trace ratio goes through this one writer; it must print exactly
        # what str(Fraction) prints, reduced or not, zero included
        assert _ratio_str(num, den) == str(Fraction(num, den))
        assert _ratio_str(num * scale, den * scale) == str(Fraction(num, den))


# trace weight strings: reduced as the simulator writes them, or unreduced
RATIO_PARTS = st.tuples(st.integers(min_value=0, max_value=10**40), st.integers(min_value=1, max_value=10**40))
RATIO_TEXT = st.one_of(
    RATIO_PARTS.map(lambda nd: str(Fraction(*nd))),
    RATIO_PARTS.map(lambda nd: f"{nd[0]}/{nd[1]}"),
)


def _ratio(text):
    return Fields({"w": text}, "trace epoch 7: ").ratio("w")


class TestTraceRatios:
    @given(text=RATIO_TEXT)
    @settings(max_examples=300, deadline=None)
    def test_division_matches_fraction_float(self, text):
        num, den = _ratio(text)
        assert Fraction(num, den) == Fraction(text)
        assert num / den == float(Fraction(text))

    @given(texts=st.lists(RATIO_TEXT, max_size=30), divisor=RATIO_TEXT)
    @settings(max_examples=200, deadline=None)
    def test_running_sum_matches_fraction_sum(self, texts, divisor):
        total = ZERO
        for text in texts:
            total = _add(total, _ratio(text))
        reference = sum((Fraction(text) for text in texts), Fraction(0))
        assert Fraction(*total) == reference
        assert total[0] / total[1] == float(reference)
        divisor_value = Fraction(divisor)
        expected = float(reference / divisor_value) if divisor_value else 0.0
        assert _quotient(total, _ratio(divisor)) == expected

    @given(num=st.integers(min_value=0, max_value=10**30), den=st.integers(min_value=1, max_value=10**6),
           copies=st.integers(min_value=1, max_value=20))
    @settings(max_examples=100, deadline=None)
    def test_shared_denominator_stays(self, num, den, copies):
        # the common case: every weight over one escrow denominator
        total = ZERO
        for _ in range(copies):
            total = _add(total, (num, den))
        assert total == (num * copies, den)

    @pytest.mark.parametrize("text", ["x", "1/0", "-1", "1/-2", "", "1/", "/2", "1.5", "1/2/3", None, 5,
                                      # what ``int`` alone takes, and a line end that ``$`` would let through
                                      "+1", " 1", "1_0", "\u0661", "1\n", "1/2\n"])
    def test_malformed_ratio_names_the_field(self, text):
        with pytest.raises(ScenarioError) as caught:
            fields = Fields({"round_finalized": {"tally": {"3": text}}}, "trace epoch 7: ")
            fields.ratio("round_finalized", "tally", "3")
        assert str(caught.value) == f"trace epoch 7: round_finalized.tally.3: expected a ratio n or n/d, got {text!r}"


class LyingText(str):
    """A ``str`` whose methods lie about its characters, which alone decide a read."""

    def partition(self, sep):
        return "1", "", ""

    def isdigit(self):
        return True

    def isascii(self):
        return True

    def __int__(self):
        return 7

    def __str__(self):
        return "1"


LIMIT = sys.get_int_max_str_digits()
FLOAT_MAX = int(sys.float_info.max)
# the characters that matter to the reader, and some that only look like them
RATIO_CHARS = st.text(st.sampled_from(list("0123456789/+-_. \n\u0661\u00b2x")), max_size=8)
READER_INPUTS = st.one_of(
    RATIO_CHARS, RATIO_CHARS, st.text(max_size=6), RATIO_TEXT,
    # digit strings about the limit of ``int``, and values about the largest float
    st.builds("{}{}{}".format, st.sampled_from(["1" * LIMIT, "1" * (LIMIT + 1), "0" * (LIMIT + 1), "1"]),
              st.sampled_from(["", "/"]), st.sampled_from(["", "1", "1" * (LIMIT + 1), "3"])),
    st.integers(FLOAT_MAX - 2**971, FLOAT_MAX + 2**972).map(str),
    st.builds("{}/{}".format, st.integers(2**1020, 2**1100), st.integers(1, 2**80)),
    st.none(), st.booleans(), st.integers(), st.binary(max_size=3), st.floats(),
    st.builds(LyingText, RATIO_CHARS),
)


@given(text=READER_INPUTS)
@example(text="\u0661")
@example(text="\u00b2")
@example(text="+1")
@example(text=" 1")
@example(text="1_0")
@example(text="")
@example(text="/")
@example(text="1/")
@example(text="/1")
@example(text="1/0")
@example(text="1/2/3")
@example(text="1\n")
@example(text="1" * (LIMIT + 1))
@example(text="1/" + "1" * (LIMIT + 1))
@example(text=str(2**1024))
@example(text=str(2**1024 - 2**970))  # rounds up to 2**1024
@example(text=f"{2**1024}/2")
@example(text=b"1")
@example(text=1)
@example(text=True)
@example(text=None)
@example(text=LyingText("x"))
@example(text=LyingText("5/3"))
@settings(max_examples=500, deadline=None)
def test_the_reader_takes_what_the_pattern_takes(text):
    for bounded in (True, False):
        assert _parse_ratio(text, bounded) == reference_ratio(text, bounded)
