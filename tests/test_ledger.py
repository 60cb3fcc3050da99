import hashlib
import json
import sys
from decimal import Decimal

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim.errors import LedgerError, PriceError
from vetokensim.ledger import DECIMALS, ONE, Ledger, PriceSeries, base_units, left_sum

from conftest import U


class TestBaseUnits:
    def test_whole_tokens(self):
        assert base_units(1) == ONE
        assert base_units("2.5") == 25 * 10 ** (DECIMALS - 1)
        assert base_units(0) == 0

    def test_exact_past_28_significant_digits(self):
        # Decimal's default context keeps 28 digits; no digit may be rounded away
        assert base_units("589735030408322.123456789012345678") == 589735030408322123456789012345678
        assert base_units(12345678901234567890123456789) == 12345678901234567890123456789 * ONE

    def test_float_goes_through_repr(self):
        assert base_units(0.5) == ONE // 2

    def test_too_many_decimals(self):
        with pytest.raises(LedgerError):
            base_units("0.0000000000000000001")  # 19 fractional digits

    def test_negative(self):
        with pytest.raises(LedgerError):
            base_units(-1)

    def test_garbage(self):
        with pytest.raises(LedgerError):
            base_units("not-a-number")

    @settings(max_examples=200, deadline=None)
    @given(tokens=st.integers(min_value=0, max_value=10**40))
    def test_int_path_matches_the_decimal_path(self, tokens):
        # an int is multiplied out; its Decimal and its text take the Decimal path
        assert base_units(tokens) == base_units(Decimal(tokens)) == base_units(str(tokens))

    def test_negative_int_and_bool_messages(self):
        with pytest.raises(LedgerError, match=r"^token amounts are unsigned, got -5$"):
            base_units(-5)
        with pytest.raises(LedgerError, match=r"^unparseable token amount: True$"):
            base_units(True)

    def test_int_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        message = f"^token amount of more than {limit} digits in base units$"
        largest = 10 ** (limit - DECIMALS) - 1  # base units of exactly ``limit`` digits
        assert base_units(largest) == base_units(Decimal(largest)) == largest * ONE
        # one digit too many, and an int that ``str`` itself refuses
        for tokens in (largest + 1, 10 ** (limit + 1000)):
            with pytest.raises(LedgerError, match=message):
                base_units(tokens)
        with pytest.raises(LedgerError, match=message):
            base_units(Decimal(largest + 1))


class TestMint:
    def test_mint_on_empty_ledger(self, ledger):
        ledger.mint("CRV", "A", U(100))
        assert ledger.balance("A", "CRV") == U(100)
        assert ledger.total_minted["CRV"] == U(100)

    def test_zero_mint_is_a_noop_entry(self, ledger):
        before = ledger.token_totals()
        ledger.mint("CRV", "A", 0)
        assert ledger.token_totals() == before
        ledger.assert_conservation()

    def test_two_mints_match_independent_summation(self, ledger):
        # oracle: replay the op log and sum balances account by account
        op_log = [("A", U(50)), ("B", U(50))]
        for account, amount in op_log:
            ledger.mint("CRV", account, amount)
        expected_total = sum(amount for _, amount in op_log)
        independent_sum = sum(ledger.balance(acct, "CRV") for acct in ("A", "B"))
        assert ledger.total_minted["CRV"] == expected_total == independent_sum

    def test_unknown_token(self, ledger):
        with pytest.raises(LedgerError):
            ledger.mint("NOPE", "A", U(1))


class TestTransfer:
    def test_plain_transfer(self, ledger):
        ledger.mint("CRV", "A", U(100))
        ledger.transfer("CRV", "A", "B", U(30))
        assert ledger.balance("A", "CRV") == U(70)
        assert ledger.balance("B", "CRV") == U(30)
        assert ledger.total_minted["CRV"] == U(100)

    def test_insufficient_balance(self, ledger):
        ledger.mint("CRV", "A", U(100))
        with pytest.raises(LedgerError):
            ledger.transfer("CRV", "A", "B", U(101))

    def test_self_transfer_is_identity(self, ledger):
        ledger.mint("CRV", "A", U(100))
        digest = ledger.digest()
        ledger.transfer("CRV", "A", "A", U(50))
        assert ledger.digest() == digest

    def test_digest_is_the_sha256_of_the_sorted_compact_book(self, ledger):
        ledger.mint("CRV", "B", U(7))
        ledger.mint("CRV", "A", U(100))
        ledger.move_to_escrow("CRV", "A", U(40))
        payload = {"balances": ledger.balances, "minted": ledger.total_minted, "escrow_held": ledger.escrow_held}
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        assert ledger.digest() == hashlib.sha256(blob.encode()).hexdigest()

    def test_non_transferable_token(self, ledger):
        ledger.mint("SBT", "A", U(10))
        with pytest.raises(LedgerError):
            ledger.transfer("SBT", "A", "B", U(1))

    def test_transfer_antisymmetry(self, ledger):
        ledger.mint("CRV", "A", U(100))
        ledger.mint("CRV", "B", U(40))
        before = {a: ledger.balance(a, "CRV") for a in ("A", "B")}
        ledger.transfer("CRV", "A", "B", U(25))
        ledger.transfer("CRV", "B", "A", U(25))
        assert {a: ledger.balance(a, "CRV") for a in ("A", "B")} == before


class TestEscrowBuckets:
    def test_move_and_release(self, ledger):
        ledger.mint("CRV", "A", U(10))
        ledger.move_to_escrow("CRV", "A", U(4))
        assert ledger.balance("A", "CRV") == U(6)
        assert ledger.escrow_held["CRV"] == U(4)
        ledger.assert_conservation()
        ledger.release_from_escrow("CRV", "A", U(4))
        assert ledger.balance("A", "CRV") == U(10)
        ledger.assert_conservation()

    def test_move_more_than_balance(self, ledger):
        ledger.mint("CRV", "A", U(1))
        with pytest.raises(LedgerError):
            ledger.move_to_escrow("CRV", "A", U(2))


class TestUsdValue:
    def test_flat_price(self):
        series = PriceSeries()
        series.add_point("CRV", 0, 1.0)
        assert series.usd_value("CRV", U(250), 7) == 250.0

    def test_step_boundary_takes_new_point(self):
        series = PriceSeries()
        series.add_point("CRV", 0, 1.0)
        series.add_point("CRV", 10, 2.0)
        assert series.usd_value("CRV", U(100), 10) == 200.0
        assert series.usd_value("CRV", U(100), 9) == 100.0

    def test_before_first_point(self):
        series = PriceSeries()
        series.add_point("CRV", 5, 1.0)
        with pytest.raises(PriceError):
            series.usd_value("CRV", U(1), 4)

    @given(epoch=st.integers(min_value=10, max_value=19))
    def test_price_constant_within_segment(self, epoch):
        series = PriceSeries()
        series.add_point("CRV", 0, 3.0)
        series.add_point("CRV", 10, 4.0)
        series.add_point("CRV", 20, 5.0)
        assert series.usd_price("CRV", epoch) == 4.0


class TestLeftSum:
    def test_adds_left_to_right_without_compensation(self):
        # 1e16 + 1.0 rounds back to 1e16; a compensated sum (CPython 3.12's ``sum()``) gives 1.0
        assert left_sum([1e16, 1.0, -1e16]) == 0.0

    def test_empty_sum_is_int_zero(self):
        total = left_sum([])
        assert total == 0 and type(total) is int

    def test_generator_input_sums_like_the_list(self):
        values = [0.1, 0.2, 0.3, 1e16, 1.0, -1e16, 2.5]
        assert left_sum(value for value in values) == left_sum(values)


@settings(max_examples=60, deadline=None)
@given(
    ops=st.lists(
        st.tuples(
            st.sampled_from(["mint", "transfer", "escrow", "release"]),
            st.sampled_from(["A", "B", "C"]),
            st.sampled_from(["A", "B", "C"]),
            st.integers(min_value=0, max_value=10**21),
        ),
        max_size=40,
    )
)
def test_conservation_over_random_op_sequences(ops):
    ledger = Ledger()
    ledger.register_token("CRV")
    for op, source, target, amount in ops:
        try:
            if op == "mint":
                ledger.mint("CRV", target, amount)
            elif op == "transfer":
                ledger.transfer("CRV", source, target, amount)
            elif op == "escrow":
                ledger.move_to_escrow("CRV", source, amount)
            else:
                ledger.release_from_escrow("CRV", source, amount)
        except LedgerError:
            pass  # rejected ops must leave the books consistent too
        ledger.assert_conservation()
