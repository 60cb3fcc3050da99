import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vetokensim.errors import EscrowError, VeTokenSimError
from vetokensim.escrow import Escrow, EscrowConfig
from vetokensim.ledger import ONE, Ledger

from conftest import U


def fresh(max_weeks=208, whitelist=(), enforced=False, contracts=()):
    ledger = Ledger()
    ledger.register_token("CRV")
    config = EscrowConfig(
        token="CRV",
        max_lock_weeks=max_weeks,
        whitelist=tuple(whitelist),
        whitelist_enforced=enforced,
    )
    return ledger, Escrow(config, ledger, frozenset(contracts))


class TestCreateLock:
    def test_short_big_lock_equals_long_small_lock(self):
        # a one-week lock needs 208x the tokens of a 208-week lock
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(208))
        ledger.mint("CRV", "B", U(1))
        escrow.create_lock("A", U(208), 1, 0)
        escrow.create_lock("B", U(1), 208, 0)
        assert escrow.voting_weight("A", 0) == escrow.voting_weight("B", 0) == Fraction(1)

    def test_duration_above_max(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        with pytest.raises(EscrowError):
            escrow.create_lock("A", U(100), 209, 0)

    def test_duration_below_min(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        with pytest.raises(EscrowError):
            escrow.create_lock("A", U(100), 0, 0)

    def test_whitelist_gate_for_contract_accounts(self):
        ledger, escrow = fresh(whitelist=["ConvexLike"], enforced=True, contracts=["ConvexLike"])
        ledger.mint("CRV", "ConvexLike", U(1000))
        escrow.create_lock("ConvexLike", U(1000), 208, 0)
        assert escrow.voting_weight("ConvexLike", 0) == Fraction(1000)

        ledger2, escrow2 = fresh(whitelist=[], enforced=True, contracts=["ConvexLike"])
        ledger2.mint("CRV", "ConvexLike", U(1000))
        with pytest.raises(EscrowError):
            escrow2.create_lock("ConvexLike", U(1000), 208, 0)

    def test_whitelist_only_gates_contract_accounts(self):
        # a plain account locks freely even when the whitelist is enforced
        ledger, escrow = fresh(whitelist=[], enforced=True, contracts=["ConvexLike"])
        ledger.mint("CRV", "retail", U(10))
        escrow.create_lock("retail", U(10), 52, 0)
        assert escrow.voting_weight("retail", 0) > 0

    def test_second_lock_rejected(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(10))
        escrow.create_lock("A", U(5), 52, 0)
        with pytest.raises(EscrowError):
            escrow.create_lock("A", U(5), 52, 0)

    def test_insufficient_balance(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(1))
        with pytest.raises(VeTokenSimError):
            escrow.create_lock("A", U(2), 52, 0)


class TestModifyLock:
    def test_extension_jumps_weight(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        escrow.create_lock("A", U(100), 100, 0)
        assert escrow.voting_weight("A", 0) == Fraction(100 * 100, 208)
        escrow.modify_lock("A", 0, 208, 0)
        assert escrow.voting_weight("A", 0) == Fraction(100)

    def test_adding_amount_scales_linearly(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        escrow.create_lock("A", U(50), 104, 0)
        before = escrow.voting_weight("A", 0)
        escrow.modify_lock("A", U(50), 104, 0)
        assert escrow.voting_weight("A", 0) == 2 * before

    def test_shortening_rejected(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(10))
        escrow.create_lock("A", U(10), 100, 0)
        with pytest.raises(EscrowError):
            escrow.modify_lock("A", 0, 99, 0)

    def test_expired_lock_cannot_be_modified(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(10))
        escrow.create_lock("A", U(10), 10, 0)
        with pytest.raises(EscrowError):
            escrow.modify_lock("A", 0, 30, 10)


class TestWithdraw:
    def test_roundtrip_restores_balance(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(77))
        escrow.create_lock("A", U(77), 10, 0)
        assert ledger.balance("A", "CRV") == 0
        escrow.withdraw("A", 10)
        assert ledger.balance("A", "CRV") == U(77)
        assert escrow.voting_weight("A", 10) == 0

    def test_early_withdraw_rejected(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(1))
        escrow.create_lock("A", U(1), 10, 0)
        with pytest.raises(EscrowError):
            escrow.withdraw("A", 9)

    def test_create_withdraw_create_with_conservation_replay(self):
        # oracle: replay the op log asserting the ledger invariant at each step
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(5))
        op_log = [
            ("create", U(5), 10, 0),
            ("withdraw", None, None, 10),
            ("create", U(5), 30, 11),
        ]
        for op, amount, unlock, now in op_log:
            if op == "create":
                escrow.create_lock("A", amount, unlock, now)
            else:
                escrow.withdraw("A", now)
            ledger.assert_conservation()
            assert sum(lock.amount for lock in escrow.locks.values()) == ledger.escrow_held["CRV"]
        assert escrow.voting_weight("A", 11) == Fraction(5 * 19, 208)


class TestLock:
    def test_ended_lock_is_withdrawn_and_relocked(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        escrow.lock("A", U(30), 10, 0)
        lock = escrow.lock("A", U(20), 20, 10)
        assert (lock.amount, lock.unlock_epoch, lock.created_epoch) == (U(20), 20, 10)
        assert escrow.locks["A"] is lock
        assert ledger.balance("A", "CRV") == U(80)
        assert ledger.escrow_held["CRV"] == U(20)

    def test_zero_amount_without_lock_is_nothing(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(5))
        assert escrow.lock("A", 0, 10, 0) is None
        assert escrow.locks == {}
        assert ledger.balance("A", "CRV") == U(5)
        assert ledger.escrow_held["CRV"] == 0

    def test_zero_amount_on_ended_lock_withdraws_it(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(5))
        escrow.lock("A", U(5), 10, 0)
        assert escrow.lock("A", 0, 30, 12) is None
        assert escrow.locks == {}
        assert ledger.balance("A", "CRV") == U(5)
        assert ledger.escrow_held["CRV"] == 0

    def test_earlier_unlock_never_shortens(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(15))
        escrow.lock("A", U(10), 100, 0)
        lock = escrow.lock("A", U(5), 50, 1)
        assert (lock.amount, lock.unlock_epoch, lock.created_epoch) == (U(15), 100, 0)

    def test_open_lock_is_extended(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(10))
        escrow.lock("A", U(10), 100, 0)
        assert escrow.lock("A", 0, 150, 1).unlock_epoch == 150


@settings(max_examples=60, deadline=None)
@given(
    calls=st.lists(
        st.tuples(
            st.sampled_from("AB"),
            st.integers(min_value=0, max_value=3),  # epochs since the previous call
            st.integers(min_value=0, max_value=50),  # tokens
            st.integers(min_value=1, max_value=8),  # weeks
        ),
        max_size=30,
    )
)
def test_lock_keeps_escrow_held_and_never_shortens(calls):
    ledger, escrow = fresh(max_weeks=8)
    for account in "AB":
        ledger.mint("CRV", account, U(50 * 30))
    now = 0
    for account, step, tokens, weeks in calls:
        now += step
        before = escrow.locks.get(account)
        open_unlock = before.unlock_epoch if before is not None and now < before.unlock_epoch else None
        lock = escrow.lock(account, U(tokens), now + weeks, now)
        assert lock is escrow.locks.get(account)
        assert ledger.escrow_held["CRV"] == sum(held.amount for held in escrow.locks.values())
        if open_unlock is not None:
            assert lock.unlock_epoch >= open_unlock
        ledger.assert_conservation()


class TestVotingWeight:
    def test_full_half_zero(self):
        ledger, escrow = fresh()
        ledger.mint("CRV", "A", U(100))
        escrow.create_lock("A", U(100), 208, 0)
        assert escrow.voting_weight("A", 0) == Fraction(100)
        assert escrow.voting_weight("A", 104) == Fraction(50)
        assert escrow.voting_weight("A", 208) == 0
        assert escrow.voting_weight("A", 300) == 0

    def test_absent_lock_is_zero(self):
        _, escrow = fresh()
        assert escrow.voting_weight("nobody", 0) == 0

    def test_total_weight_empty(self):
        _, escrow = fresh()
        assert escrow.total_voting_weight(5) == 0

    def test_total_weight_two_equal_locks(self):
        ledger, escrow = fresh()
        for account in ("A", "B"):
            ledger.mint("CRV", account, U(50))
            escrow.create_lock(account, U(50), 208, 0)
        assert escrow.total_voting_weight(0) == Fraction(100)

    def test_total_weight_matches_brute_force(self):
        # oracle: independent per-account summation over a random population
        rng = random.Random(13)
        ledger, escrow = fresh()
        accounts = [f"acct-{i}" for i in range(17)]
        for account in accounts:
            amount = U(rng.randint(1, 10_000))
            duration = rng.randint(1, 208)
            ledger.mint("CRV", account, amount)
            escrow.create_lock(account, amount, duration, 0)
        for now in (0, 5, 50, 300):
            brute = sum((escrow.voting_weight(a, now) for a in accounts), Fraction(0))
            assert escrow.total_voting_weight(now) == brute


@settings(max_examples=60, deadline=None)
@given(
    amount=st.integers(min_value=1, max_value=10**9),
    duration=st.integers(min_value=1, max_value=208),
    start=st.integers(min_value=0, max_value=1000),
)
def test_weight_decay_is_linear_and_hits_zero(amount, duration, start):
    ledger, escrow = fresh()
    units = amount * ONE
    ledger.mint("CRV", "A", units)
    escrow.create_lock("A", units, start + duration, start)
    previous = None
    for now in range(start, start + duration + 2):
        weight = escrow.voting_weight("A", now)
        remaining = max(0, start + duration - now)
        assert weight == Fraction(units * remaining, 208 * ONE)
        if previous is not None:
            assert weight <= previous
        previous = weight
    assert escrow.voting_weight("A", start + duration) == 0


@settings(max_examples=60, deadline=None)
@given(amount=st.integers(min_value=1, max_value=10**27))
def test_208_to_1_equivalence_exact(amount):
    ledger, escrow = fresh()
    ledger.mint("CRV", "A", amount * 208)
    ledger.mint("CRV", "B", amount)
    escrow.create_lock("A", amount * 208, 1, 0)
    escrow.create_lock("B", amount, 208, 0)
    assert escrow.voting_weight("A", 0) == escrow.voting_weight("B", 0)
