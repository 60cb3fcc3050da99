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

``lock`` is the one lock rule that the simulator and the aggregator follow: an
ended lock is withdrawn first, a first lock is created, and an open lock is
added to and extended but never shortened.  ``create_lock``, ``modify_lock``
and ``withdraw`` are its steps, each checking its own preconditions.
"""

from __future__ import annotations

from .errors import EscrowError
from .ledger import ONE, Ledger, check_amount
from .scenario import EscrowConfig


class Lock:
    def __init__(self, amount: int, unlock_epoch: int, created_epoch: int):
        self.amount = amount
        self.unlock_epoch = unlock_epoch
        self.created_epoch = created_epoch


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
        lock = Lock(amount, unlock_epoch, now)
        self.locks[account] = lock
        return lock

    def modify_lock(self, account: str, add_amount: int, new_unlock_epoch: int, now: int) -> Lock:
        lock = self._require_lock(account)
        if now >= lock.unlock_epoch:
            raise EscrowError(f"lock for {account} expired at epoch {lock.unlock_epoch}")
        check_amount(add_amount)
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

    def lock(self, account: str, amount: int, unlock_epoch: int, now: int) -> Lock | None:
        """Lock ``amount`` more of ``account``'s tokens until at least ``unlock_epoch``.

        A lock that has ended is withdrawn first, so the new lock holds only
        ``amount``.  An open lock keeps the later of its own and the asked-for
        unlock epoch, since a schedule may lag an earlier extension.  Returns
        the account's lock, or None when it has none and ``amount`` is 0.
        """
        lock = self.locks.get(account)
        if lock is not None and now >= lock.unlock_epoch:
            self.withdraw(account, now)
            lock = None
        if lock is None:
            return self.create_lock(account, amount, unlock_epoch, now) if amount else None
        return self.modify_lock(account, amount, max(lock.unlock_epoch, unlock_epoch), now)

    def weight_numerator(self, account: str, now: int) -> int:
        """Voting weight of ``account`` at ``now`` over ``weight_denominator``."""
        lock = self.locks.get(account)
        if lock is None or lock.unlock_epoch <= now:
            return 0
        return lock.amount * (lock.unlock_epoch - now)

    def total_weight_numerator(self, now: int) -> int:
        """Sum of every lock's voting weight at ``now`` over ``weight_denominator``."""
        return sum(self.weight_numerator(account, now) for account in self.locks)

    # Exact-weight views: the benchmark tracer counts calls by these names, so
    # they stay although the simulator itself reads only the numerators.  Each
    # imports ``fractions`` when called, so importing the package does not.
    def voting_weight(self, account: str, now: int) -> Fraction:
        from fractions import Fraction
        return Fraction(self.weight_numerator(account, now), self.weight_denominator)

    def total_voting_weight(self, now: int) -> Fraction:
        from fractions import Fraction
        return Fraction(self.total_weight_numerator(now), self.weight_denominator)
