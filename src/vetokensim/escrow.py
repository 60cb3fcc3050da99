"""Vote-escrow: lock tokens for a bounded period in exchange for decaying weight.

A lock of ``amount`` base units with ``r`` weeks remaining is worth
``amount * r / (max_lock_weeks * ONE)`` weight units, so one token locked for
the full period equals exactly one weight unit.  Weights decay linearly as the
unlock epoch approaches and reach zero there.  There is no operation that
moves weight between accounts.

Every weight of one escrow shares the denominator ``max_lock_weeks * ONE``
(``weight_denominator``), so the simulator carries weight as the integer
numerator ``amount * r`` (``weight_numerator``, ``total_weight_numerator``)
and sums, compares and splits it with integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import EscrowError
from .ledger import ONE, Ledger, check_amount


@dataclass(frozen=True)
class EscrowConfig:
    token: str
    max_lock_weeks: int
    min_lock_weeks: int = 1
    whitelist: tuple[str, ...] = ()
    whitelist_enforced: bool = False

    def __post_init__(self):
        if not 1 <= self.min_lock_weeks <= self.max_lock_weeks:
            raise EscrowError(
                f"need 1 <= min_lock_weeks <= max_lock_weeks, got "
                f"[{self.min_lock_weeks}, {self.max_lock_weeks}]"
            )


@dataclass
class Lock:
    owner: str
    amount: int
    unlock_epoch: int
    created_epoch: int


class Escrow:
    """One escrow instance: at most one lock per account, weights pure reads.

    ``contract_accounts`` flags scenario accounts that are contract-style; when
    the config enforces a whitelist, only whitelisted contract accounts may lock.
    """

    def __init__(self, config: EscrowConfig, ledger: Ledger, contract_accounts=frozenset()):
        self.config = config
        self.ledger = ledger
        self.contract_accounts = frozenset(contract_accounts)
        self.locks: dict[str, Lock] = {}
        # the denominator shared by every weight of this escrow
        self.weight_denominator = config.max_lock_weeks * ONE

    def _check_whitelist(self, account: str) -> None:
        if (
            self.config.whitelist_enforced
            and account in self.contract_accounts
            and account not in self.config.whitelist
        ):
            raise EscrowError(f"contract account {account} is not whitelisted to lock")

    def _require_lock(self, account: str) -> Lock:
        lock = self.locks.get(account)
        if lock is None:
            raise EscrowError(f"no lock for account {account}")
        return lock

    def create_lock(self, account: str, amount: int, unlock_epoch: int, now: int) -> Lock:
        check_amount(amount)
        if amount == 0:
            raise EscrowError("cannot lock a zero amount")
        if account in self.locks:
            raise EscrowError(f"{account} already has a lock; use modify_lock")
        duration = unlock_epoch - now
        if not self.config.min_lock_weeks <= duration <= self.config.max_lock_weeks:
            raise EscrowError(
                f"lock duration {duration} weeks outside "
                f"[{self.config.min_lock_weeks}, {self.config.max_lock_weeks}]"
            )
        self._check_whitelist(account)
        self.ledger.move_to_escrow(self.config.token, account, amount)
        lock = Lock(account, amount, unlock_epoch, now)
        self.locks[account] = lock
        return lock

    def modify_lock(self, account: str, add_amount: int, new_unlock_epoch, now: int) -> Lock:
        lock = self._require_lock(account)
        if now >= lock.unlock_epoch:
            raise EscrowError(f"lock for {account} expired at epoch {lock.unlock_epoch}")
        check_amount(add_amount)
        if new_unlock_epoch is None:
            new_unlock_epoch = lock.unlock_epoch
        if new_unlock_epoch < lock.unlock_epoch:
            raise EscrowError("locks cannot be shortened")
        if new_unlock_epoch - now > self.config.max_lock_weeks:
            raise EscrowError(
                f"new unlock epoch {new_unlock_epoch} exceeds the "
                f"{self.config.max_lock_weeks}-week maximum from epoch {now}"
            )
        if add_amount:
            self.ledger.move_to_escrow(self.config.token, account, add_amount)
        lock.amount += add_amount
        lock.unlock_epoch = new_unlock_epoch
        return lock

    def withdraw(self, account: str, now: int) -> int:
        lock = self._require_lock(account)
        if now < lock.unlock_epoch:
            raise EscrowError(f"lock for {account} not withdrawable before epoch {lock.unlock_epoch}")
        self.ledger.release_from_escrow(self.config.token, account, lock.amount)
        del self.locks[account]
        return lock.amount

    def weight_numerator(self, account: str, now: int) -> int:
        """Voting weight of ``account`` at ``now`` over ``weight_denominator``."""
        lock = self.locks.get(account)
        if lock is None:
            return 0
        return lock.amount * max(0, lock.unlock_epoch - now)

    def total_weight_numerator(self, now: int) -> int:
        """Sum of every lock's voting weight at ``now`` over ``weight_denominator``."""
        return sum(self.weight_numerator(account, now) for account in self.locks)

    # Exact-weight views: the benchmark tracer counts calls by these names, so
    # they stay although the simulator itself reads only the numerators.
    def voting_weight(self, account: str, now: int) -> Fraction:
        return Fraction(self.weight_numerator(account, now), self.weight_denominator)

    def total_voting_weight(self, now: int) -> Fraction:
        return Fraction(self.total_weight_numerator(now), self.weight_denominator)
