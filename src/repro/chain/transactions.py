"""Transactions, the external transaction pool and validity predicates.

Section 2 of the paper assumes that "upon submission, transactions are
immediately added to a transaction pool from which validators can retrieve
and validate them using a specified validity predicate before batching them
into blocks".  The predicate is global, efficiently computable and evaluates
each transaction independently of the log (footnote 4).

:class:`TransactionPool` implements exactly that shared pool.  It also
records submission times so the analysis layer can measure *confirmation
time* — the interval between submission and the decision of a log
containing the transaction (Section 2).
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from operator import attrgetter
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, NamedTuple

if TYPE_CHECKING:  # pragma: no cover - annotation-only (log imports this module)
    from repro.chain.log import Log


@dataclass(frozen=True, order=True)
class Transaction:
    """An opaque transaction submitted by a user.

    Attributes:
        tx_id: Unique identifier assigned by the pool at submission time.
        payload: Application payload; only inspected by validity predicates.
        submitted_at: Simulation time of submission (set by the pool).
    """

    tx_id: int
    payload: str = ""
    submitted_at: int = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Tx({self.tx_id}@{self.submitted_at})"


ValidityPredicate = Callable[[Transaction], bool]


def always_valid(tx: Transaction) -> bool:
    """The trivial validity predicate: every transaction is valid."""

    return True


def bounded_payload_validity(max_len: int) -> ValidityPredicate:
    """A simple non-trivial predicate: payload length is bounded.

    Used by tests and examples to exercise the invalid-transaction path.
    """

    def predicate(tx: Transaction) -> bool:
        return len(tx.payload) <= max_len

    return predicate


class PendingMemo(NamedTuple):
    """What one log knows about one pool state (``Log.pending_memo``).

    Valid for exactly the pool object, pool length and visible count it
    names; :meth:`TransactionPool.pending_for_log` checks all three.
    """

    pool: "TransactionPool"
    pool_len: int
    #: How many pool entries, in ``(submitted_at, tx_id)`` order, were visible.
    visible: int
    #: The visible entries not in the log, in pool-insertion order.  Not
    #: filtered by validity: the predicate runs on every call.
    pending: tuple[Transaction, ...]
    #: Transactions the log carries that were *not* yet visible — only a
    #: hand-built block can hold one; they must not resurface as pending
    #: once a later cut-off makes them visible.
    early: frozenset[Transaction]


_tx_id = attrgetter("tx_id")


class TransactionPool:
    """The global, externally-fed transaction pool of Section 2.

    Honest validators batch into any proposed block every valid pool
    transaction not already present in the log the block extends.  The pool
    is an ever-growing set; confirmed transactions are *not* removed here
    because removal is a per-validator view concern (a validator only stops
    re-batching a transaction once it appears in the candidate log it
    extends).
    """

    def __init__(self, validity: ValidityPredicate = always_valid) -> None:
        self._validity = validity
        self._transactions: list[Transaction] = []
        # (submitted_at, tx_id) of every entry, sorted: the visibility
        # cut-off is a bisect.  tx_id indexes ``_transactions``.
        self._by_time: list[tuple[int, int]] = []
        self._next_id = 0

    def submit(self, payload: str = "", at_time: int = 0) -> Transaction:
        """Submit a new transaction to the pool at ``at_time``.

        Returns the pool-assigned :class:`Transaction` object.  Invalid
        transactions are still recorded (users may submit anything) but are
        never selected by :meth:`valid_transactions`.
        """

        tx = Transaction(tx_id=self._next_id, payload=payload, submitted_at=at_time)
        self._next_id += 1
        self._transactions.append(tx)
        insort(self._by_time, (at_time, tx.tx_id))
        return tx

    def submit_many(self, count: int, at_time: int = 0, prefix: str = "tx") -> list[Transaction]:
        """Submit ``count`` transactions in one call (test/benchmark helper)."""

        return [self.submit(payload=f"{prefix}-{i}", at_time=at_time) for i in range(count)]

    def __len__(self) -> int:
        return len(self._transactions)

    def __iter__(self) -> Iterator[Transaction]:
        return iter(self._transactions)

    def is_valid(self, tx: Transaction) -> bool:
        """Evaluate the global validity predicate on ``tx``."""

        return self._validity(tx)

    def valid_transactions(self, before: int | None = None) -> list[Transaction]:
        """All valid transactions, optionally only those submitted before ``before``.

        ``before`` is exclusive: a transaction submitted exactly at time
        ``before`` is not yet visible, matching the convention that a
        proposer at time ``t`` can batch anything submitted strictly
        earlier.
        """

        return [
            tx
            for tx in self._transactions
            if self._validity(tx) and (before is None or tx.submitted_at < before)
        ]

    def pending_for(self, included: Iterable[Transaction], before: int | None = None) -> list[Transaction]:
        """Valid transactions not in ``included`` — what a proposer batches.

        Args:
            included: Transactions already present in the log being extended.
            before: Visibility cut-off time (exclusive), usually "now".
        """

        seen = set(included)
        return [tx for tx in self.valid_transactions(before) if tx not in seen]

    def pending_for_log(self, log: "Log", before: int | None = None) -> list[Transaction]:
        """Valid transactions not yet in ``log`` — the proposer hot path.

        Exactly ``pending_for(log.transactions(), before)``, but
        independent of history: the cut-off is a bisect over the
        time-sorted index, and "visible entries not in ``log``" is
        memoised on the log and derived from the nearest ancestor's memo
        by looking only at the blocks in between.  The validity predicate
        runs on the surviving candidates, on every call.
        """

        size = len(self._by_time)
        visible = size if before is None else bisect_left(self._by_time, (before,))
        if not visible:
            return []
        memo = log.pending_memo
        if (
            memo is None
            or memo.pool is not self
            or memo.pool_len != size
            or memo.visible != visible
        ):
            memo = log.pending_memo = self._derive_memo(log, size, visible)
        validity = self._validity
        return [tx for tx in memo.pending if validity(tx)]

    def _derive_memo(self, log: "Log", size: int, visible: int) -> PendingMemo:
        """The memo for ``log`` at ``visible`` from the nearest usable one.

        Usable means: about this pool at its current length, with a
        cut-off no later than ours (``log`` itself qualifies when only the
        cut-off moved).  With no such ancestor the base is the empty log
        at cut-off zero, i.e. one scan of the visible entries and the
        whole chain.
        """

        node = log
        while node is not None:
            base = node.pending_memo
            if (
                base is not None
                and base.pool is self
                and base.pool_len == size
                and base.visible <= visible
            ):
                blocks = log.blocks[len(node) :]
                break
            node = node.parent
        else:
            base = PendingMemo(self, size, 0, (), frozenset())
            blocks = log.blocks
        in_log = set(base.early)
        for block in blocks:
            in_log.update(block.transactions)
        pending = [tx for tx in base.pending if tx not in in_log]
        transactions = self._transactions
        fresh = [
            tx
            for _, tx_id in self._by_time[base.visible : visible]
            if (tx := transactions[tx_id]) not in in_log
        ]
        if fresh:
            pending += fresh
            pending.sort(key=_tx_id)  # back to pool-insertion order
        early: frozenset[Transaction] = frozenset()
        if visible < size:
            cutoff = self._by_time[visible]
            early = frozenset(
                tx for tx in in_log if (tx.submitted_at, tx.tx_id) >= cutoff
            )
        return PendingMemo(self, size, visible, tuple(pending), early)


@dataclass
class ConfirmationRecord:
    """Bookkeeping for transaction confirmation-time measurements."""

    transaction: Transaction
    confirmed_at: dict[int, int] = field(default_factory=dict)

    def record(self, validator_id: int, time: int) -> None:
        """Record the first time ``validator_id`` decided a log containing the tx."""

        self.confirmed_at.setdefault(validator_id, time)

    def first_confirmation(self) -> int | None:
        """Earliest confirmation time across validators, or ``None``."""

        if not self.confirmed_at:
            return None
        return min(self.confirmed_at.values())

    def confirmation_time(self) -> int | None:
        """Confirmation time (Section 2): first decision minus submission."""

        first = self.first_confirmation()
        if first is None:
            return None
        return first - self.transaction.submitted_at
