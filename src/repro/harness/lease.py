"""The sweep scheduler: one lease state machine — pure, clockless, lock-free.

Who runs which cell, what happens when its holder dies or goes silent,
how often it is retried and with what backoff, and which result commits
are decided here and nowhere else.  Two drivers translate their events
into calls on a table: the local pool's pipe loop
(:class:`repro.harness.executor.SweepExecutor`) and the fleet
coordinator's TCP connection threads (the ``fleet`` package imports this
module; nothing in ``harness`` imports ``fleet``).

Every cell of a sweep is in exactly one of four states:

* **pending** — unassigned, waiting in the dispatch queue (possibly
  backing off after a failed attempt);
* **leased** — assigned to one runner under a time-limited lease;
* **committed** — its canonical result line was accepted (terminal);
* **failed** — every allowed attempt died or timed out (terminal for
  grants; only reachable with a retry cap, ``retries`` not ``None``).

The table owns no I/O, no threads and no clock: every mutating call
takes ``now`` from the caller, which is what makes the whole state
machine property-testable with synthetic time (see
``tests/property/test_lease_properties.py``).  The coordinator holds a
lock around it; the table itself assumes single-threaded access.

Safety and liveness, as the table enforces them:

* **At-most-once commit (safety).**  :meth:`complete` is
  first-write-wins on ``cell_id``: the first result for a cell commits
  regardless of who currently holds its lease (a late result from a
  runner whose lease already expired is still *correct* — records are
  pure functions of their cells — so it is accepted and the re-dispatch
  lease revoked); every subsequent delivery is reported as a duplicate
  and discarded.  No interleaving of grant / renew / expire / death /
  complete can commit a cell twice.
* **No lost cells (liveness).**  A cell leaves ``pending`` only into a
  lease and leaves a lease only by committing, returning to ``pending``
  (expiry, runner death) or — out of retries — failing.  As long as
  some live runner keeps asking, every cell eventually commits or fails.

The retry policy is on when ``retries`` is a number: a cell is granted at
most ``retries + 1`` times, a failed attempt stamps the cell with a
deterministic :func:`repro.faults.retry_backoff` ``not_before``, and a
retried cell is granted alone so a poisoned cell cannot burn its
batch-mates' attempts.  ``retries=None`` (the fleet) re-dispatches
without bound, delay or isolation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.faults import retry_backoff


@dataclass
class Lease:
    """One cell's current assignment."""

    cell_id: str
    runner_id: str
    expires_at: float
    attempts: int = 1  # grants so far, re-dispatches included


@dataclass
class LeaseCounters:
    """Observability totals the sweep summary reports."""

    runners_registered: int = 0
    runners_dead: int = 0
    leases_granted: int = 0
    leases_renewed: int = 0
    leases_expired: int = 0
    cells_redispatched: int = 0
    results_committed: int = 0
    duplicates_discarded: int = 0
    late_accepted: int = 0
    leases_affinity_matched: int = 0


@dataclass
class LeaseTable:
    """Pending queue + lease map + committed set for one sweep's cells.

    ``items`` maps ``cell_id -> payload`` (the cell's dict form, shipped
    verbatim to runners); insertion order of :meth:`add_cells` defines
    initial dispatch order, so the driver feeds cells in canonical grid
    order and gets deterministic first-pass assignment.

    ``ttl`` is how long a silent holder keeps a lease; with
    ``ttl_per_cell`` a grant of ``k`` cells lives ``k * ttl`` (the local
    pool runs a batch to the end before answering, so its per-cell
    timeout scales with the batch).  ``retries`` caps re-dispatch (see
    the module docstring; ``None`` = unbounded) and ``backoff_base``
    scales the retry delay.
    """

    ttl: float
    retries: int | None = None
    backoff_base: float = 0.05
    ttl_per_cell: bool = False
    items: dict[str, dict] = field(default_factory=dict)
    #: ``cell_id -> frozenset(snapshot ids)`` — every snapshot id that
    #: could serve the cell's warm-up prefix.  Set by the coordinator when
    #: snapshot-aware placement is on; empty means FIFO-only grants.
    affinity: dict = field(default_factory=dict)
    #: ``cell_id -> error`` of the attempt that used up the cell's retries.
    failed: dict[str, str] = field(default_factory=dict)
    _pending: deque = field(default_factory=deque)
    _leases: dict[str, Lease] = field(default_factory=dict)
    _committed: set = field(default_factory=set)
    _runners: set = field(default_factory=set)
    _snapshots: dict = field(default_factory=dict)  # runner_id -> frozenset(ids)
    _attempts: dict = field(default_factory=dict)  # cell_id -> grants so far
    _not_before: dict = field(default_factory=dict)  # cell_id -> backoff stamp
    counters: LeaseCounters = field(default_factory=LeaseCounters)

    def __post_init__(self) -> None:
        if self.ttl <= 0:
            raise ValueError("lease ttl must be positive")
        if self.retries is not None and self.retries < 0:
            raise ValueError("retries must be >= 0 (None = unbounded)")

    # -- population ---------------------------------------------------------

    def add_cells(self, cells) -> None:
        """Queue cells for dispatch.  ``cells`` yields objects with a
        ``cell_id`` and ``to_dict()`` (a :class:`~repro.harness.sweep.Cell`)
        or plain ``{"cell_id": ...}``-bearing dicts; known ids are ignored
        so resume filtering can stay upstream."""

        for cell in cells:
            if isinstance(cell, dict):
                cell_id, payload = cell["cell_id"], cell
            else:
                cell_id, payload = cell.cell_id, cell.to_dict()
            if cell_id in self.items:
                continue
            self.items[cell_id] = payload
            self._pending.append(cell_id)

    # -- runner membership --------------------------------------------------

    def register(self, runner_id: str) -> None:
        if runner_id in self._runners:
            return
        self._runners.add(runner_id)
        self.counters.runners_registered += 1

    def advertise(self, runner_id: str, snapshot_ids) -> None:
        """Record the snapshot ids warm in ``runner_id``'s local store.

        Advertised once, inside the register message — placement is a
        grant-time preference, never an extra protocol round-trip.
        """

        self._snapshots[runner_id] = frozenset(snapshot_ids)

    def runner_dead(
        self, runner_id: str, now: float, error: str = "runner died"
    ) -> list[Lease]:
        """A runner is gone (disconnect, crash): end its leases now rather
        than waiting out their TTLs.  Returns the leases it held."""

        if runner_id in self._runners:
            self._runners.discard(runner_id)
            self.counters.runners_dead += 1
        held = self.leases_of(runner_id)
        for lease in held:
            self._end_lease(lease, now, error)
        return held

    # -- the lease lifecycle ------------------------------------------------

    def expire(self, now: float, error: str = "lease expired") -> list[Lease]:
        """End every lease whose TTL has passed.  Returns those leases —
        they name the silent holders, which the local pool kills."""

        expired = [
            lease for lease in self._leases.values() if now >= lease.expires_at
        ]
        for lease in expired:
            self.counters.leases_expired += 1
            self._end_lease(lease, now, error)
        return expired

    def _end_lease(self, lease: Lease, now: float, error: str) -> None:
        """One attempt failed: requeue the cell, or fail it when out of retries."""

        del self._leases[lease.cell_id]
        if self.retries is not None:
            if lease.attempts > self.retries:
                self.failed[lease.cell_id] = error
                return
            self._not_before[lease.cell_id] = now + retry_backoff(
                lease.cell_id, lease.attempts, self.backoff_base
            )
        self._pending.append(lease.cell_id)
        self.counters.cells_redispatched += 1

    def grant(self, runner_id: str, now: float, max_cells: int) -> list[dict]:
        """Lease up to ``max_cells`` pending cells to ``runner_id``.

        Expired leases are swept first, so a grant request from any live
        runner is also the event that re-dispatches a dead runner's
        cells — the coordinator needs no dedicated timer for progress.

        When ``runner_id`` advertised warm snapshots and the table holds
        an affinity map, cells whose warm-up snapshot the runner already
        has jump to the head of this grant (greedy; FIFO order is kept
        within the matched and unmatched classes, so placement stays
        deterministic given the request order).

        Under the retry policy a cell that was granted before waits out
        its backoff and is then granted alone; cells passed over keep
        their place at the head of the queue.
        """

        self.expire(now)
        preferred = self._affinity_front(runner_id, max_cells)
        granted: list[Lease] = []
        deferred: list[str] = []
        while self._pending and len(granted) < max_cells:
            cell_id = self._pending.popleft()
            if cell_id in self._committed:  # late-accepted while queued
                continue
            attempts = self._attempts.get(cell_id, 0)
            retried = attempts > 0 and self.retries is not None
            if retried and (granted or self._not_before[cell_id] > now):
                deferred.append(cell_id)
                continue
            self._attempts[cell_id] = attempts + 1
            lease = Lease(cell_id, runner_id, now + self.ttl, attempts + 1)
            self._leases[cell_id] = lease
            granted.append(lease)
            self.counters.leases_granted += 1
            if cell_id in preferred:
                self.counters.leases_affinity_matched += 1
            if retried:
                break
        self._pending.extendleft(reversed(deferred))
        if self.ttl_per_cell:
            for lease in granted:
                lease.expires_at = now + self.ttl * len(granted)
        return [self.items[lease.cell_id] for lease in granted]

    def _affinity_front(self, runner_id: str, max_cells: int) -> set:
        """Move up to ``max_cells`` warm-snapshot cells to the queue head.

        Returns the moved ids so :meth:`grant` can count matches.  A
        stable two-class partition of the pending deque: matched cells
        first (FIFO among themselves), everything else after (FIFO),
        so two coordinators fed the same request order place leases
        identically.
        """

        warm = self._snapshots.get(runner_id)
        if not warm or not self.affinity or not self._pending:
            return set()
        matched: deque = deque()
        rest: deque = deque()
        for cell_id in self._pending:
            if (
                len(matched) < max_cells
                and cell_id not in self._committed
                and self.affinity.get(cell_id, frozenset()) & warm
            ):
                matched.append(cell_id)
            else:
                rest.append(cell_id)
        if not matched:
            return set()
        moved = set(matched)
        matched.extend(rest)
        self._pending = matched
        return moved

    def renew(self, runner_id: str, now: float) -> int:
        """Extend every lease ``runner_id`` holds (heartbeat).  Any
        protocol message from a runner renews: a runner that is talking
        is a runner that is alive.  Returns the number extended."""

        held = self.leases_of(runner_id)
        for lease in held:
            lease.expires_at = now + self.ttl
        self.counters.leases_renewed += len(held)
        return len(held)

    def complete(self, cell_id: str, runner_id: str) -> str:
        """Accept one result delivery; first write wins.

        Returns ``"committed"`` for the first delivery of a cell,
        ``"duplicate"`` for every later one, and ``"unknown"`` for a
        cell id that was never part of this sweep (a misbehaving or
        misdirected runner — the coordinator discards the line).
        """

        if cell_id not in self.items:
            return "unknown"
        if cell_id in self._committed:
            self.counters.duplicates_discarded += 1
            return "duplicate"
        self._committed.add(cell_id)
        self.failed.pop(cell_id, None)  # a late real result supersedes failure
        self.counters.results_committed += 1
        lease = self._leases.pop(cell_id, None)
        if lease is None or lease.runner_id != runner_id:
            # The sender's lease expired (or moved to another runner)
            # before its result landed: the result is still a pure
            # function of the cell, so accepting it is safe — and the
            # current holder's eventual delivery becomes the duplicate.
            self.counters.late_accepted += 1
        return "committed"

    # -- queries ------------------------------------------------------------

    @property
    def all_committed(self) -> bool:
        return len(self._committed) == len(self.items)

    @property
    def all_terminal(self) -> bool:
        """Nothing left to dispatch: every cell committed or failed."""

        return len(self._committed) + len(self.failed) == len(self.items)

    @property
    def pending_count(self) -> int:
        return sum(1 for cid in self._pending if cid not in self._committed)

    @property
    def leased_count(self) -> int:
        return len(self._leases)

    @property
    def committed_count(self) -> int:
        return len(self._committed)

    def lease_of(self, cell_id: str) -> Lease | None:
        return self._leases.get(cell_id)

    def leases_of(self, runner_id: str) -> list[Lease]:
        """The leases ``runner_id`` holds, in grant order."""

        return [
            lease for lease in self._leases.values() if lease.runner_id == runner_id
        ]

    def check_invariants(self) -> None:
        """Assert the state partition (test hook; cheap, callable anywhere).

        Committed, failed, leased, and pending are disjoint (modulo
        committed ids still sitting in the pending deque, which
        :meth:`grant` skips lazily), and every tracked id belongs to the
        sweep.
        """

        leased = set(self._leases)
        committed = self._committed
        failed = set(self.failed)
        assert not (leased & committed), "a committed cell still holds a lease"
        assert not (failed & (leased | committed)), "a failed cell is also live"
        live_pending = {cid for cid in self._pending if cid not in committed}
        assert not (live_pending & (leased | failed)), (
            "a leased or failed cell is also pending"
        )
        universe = set(self.items)
        assert live_pending | leased | committed | failed == universe, (
            "cells lost or invented: not pending, leased, committed or failed"
        )
