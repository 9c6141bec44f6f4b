"""Property tests for the sweep scheduler's lease state machine.

Hypothesis drives arbitrary interleavings of the full operation
vocabulary — grant, renew, time advance (expiry), runner death,
result delivery including duplicates and results from stale runners —
over synthetic time, with and without the retry policy, and checks the
theorems the byte-identity contract of both drivers rests on:

* **Safety (at-most-once).**  No interleaving ever produces a second
  ``"committed"`` for the same cell: first-write-wins holds under
  re-dispatch, late delivery, and runner death.
* **Liveness (no lost cells + convergence).**  After any interleaving,
  a simple drain loop (one live runner granting and completing) reaches
  the terminal state — every cell committed, or failed once out of
  retries; no cell is ever stranded outside pending ∪ leased ∪
  committed ∪ failed.
* **The retry policy** (``retries`` set).  A cell is granted at most
  ``retries + 1`` times, never before its keyed backoff stamp, and alone
  once it has failed an attempt; a failed cell is never granted again
  but a late real result for it still commits.
* **No policy, no change** (``retries=None``).  The table is
  step-for-step the plain FIFO re-dispatch queue the fleet has always
  run, checked against a reference model kept in this file.

The state partition itself (:meth:`LeaseTable.check_invariants`) is
asserted after every single operation, so a violation pins the exact
step that broke it.
"""

from __future__ import annotations

from collections import deque

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import retry_backoff
from repro.harness.lease import LeaseTable

RUNNERS = ("r0", "r1", "r2")

# One abstract operation per draw; cell/runner indexes resolve modulo
# the live populations so every drawn op is applicable.
_op = st.one_of(
    st.tuples(st.just("grant"), st.sampled_from(RUNNERS), st.integers(1, 4)),
    st.tuples(st.just("renew"), st.sampled_from(RUNNERS)),
    st.tuples(st.just("advance"), st.floats(0.1, 3.0, allow_nan=False)),
    st.tuples(st.just("death"), st.sampled_from(RUNNERS)),
    # Deliver a result for cell index k, claiming to come from a runner
    # that may or may not hold the lease (stale/duplicate delivery).
    st.tuples(st.just("deliver"), st.integers(0, 9), st.sampled_from(RUNNERS)),
    # Re-deliver a result for an already-committed cell (late duplicate).
    st.tuples(st.just("redeliver"), st.integers(0, 9)),
    # A fresh cell joins the sweep behind whatever is already queued.
    st.tuples(st.just("add")),
)


BACKOFF_BASE = 0.05


class _Harness:
    """Replays drawn ops against a table, tracking commits independently.

    It also keeps its own ledger of the retry policy — how often each
    cell was granted, when it last failed an attempt, which cells ran
    out of retries — from the table's return values alone, and checks
    every grant against it.
    """

    def __init__(self, cells: int, ttl: float, retries: int | None = None) -> None:
        self.retries = retries
        self.table = LeaseTable(ttl=ttl, retries=retries, backoff_base=BACKOFF_BASE)
        self.table.add_cells({"cell_id": f"c{i}"} for i in range(cells))
        self.cells = [f"c{i}" for i in range(cells)]
        self.now = 0.0
        self.commits: dict[str, int] = {}
        self.grants: dict[str, int] = {}
        self.failed_at: dict[str, float] = {}
        self.exhausted: set[str] = set()
        for runner in RUNNERS:
            self.table.register(runner)

    def deliver(self, cell_id: str, runner: str) -> None:
        outcome = self.table.complete(cell_id, runner)
        assert outcome in ("committed", "duplicate")
        if outcome == "committed":
            self.commits[cell_id] = self.commits.get(cell_id, 0) + 1
            self.exhausted.discard(cell_id)  # a late real result supersedes failure

    def attempt_failed(self, leases) -> None:
        for lease in leases:
            assert lease.attempts == self.grants[lease.cell_id]
            self.failed_at[lease.cell_id] = self.now
            if self.retries is not None and lease.attempts > self.retries:
                self.exhausted.add(lease.cell_id)

    def expire(self) -> None:
        self.attempt_failed(self.table.expire(self.now))

    def grant(self, runner: str, max_cells: int) -> list[str]:
        self.expire()  # observed here, so grant's own sweep finds nothing
        batch = [p["cell_id"] for p in self.table.grant(runner, self.now, max_cells)]
        assert len(batch) <= max_cells
        for cell_id in batch:
            assert cell_id not in self.commits and cell_id not in self.exhausted
            failures = self.grants.get(cell_id, 0)
            self.grants[cell_id] = failures + 1
            if self.retries is not None:
                assert self.grants[cell_id] <= self.retries + 1
                if failures:
                    assert batch == [cell_id], "a retried cell must run alone"
                    assert self.now >= self.failed_at[cell_id] + retry_backoff(
                        cell_id, failures, BACKOFF_BASE
                    )
        return batch

    def apply(self, op: tuple) -> None:
        kind = op[0]
        if kind == "grant":
            self.grant(op[1], op[2])
        elif kind == "renew":
            self.table.renew(op[1], self.now)
        elif kind == "advance":
            self.now += op[1]
            self.expire()
        elif kind == "death":
            self.attempt_failed(self.table.runner_dead(op[1], self.now))
            self.table.register(op[1])  # it may come back later
        elif kind == "deliver":
            self.deliver(self.cells[op[1] % len(self.cells)], op[2])
        elif kind == "redeliver":
            cell_id = self.cells[op[1] % len(self.cells)]
            if cell_id in self.commits:
                assert self.table.complete(cell_id, "r0") == "duplicate"
        elif kind == "add":
            self.cells.append(f"c{len(self.cells)}")
            self.table.add_cells([{"cell_id": self.cells[-1]}])
        self.table.check_invariants()
        assert set(self.table.failed) == self.exhausted

    def drain(self) -> None:
        """One surviving runner finishes the sweep: grant + deliver."""

        guard = 0
        while not self.table.all_terminal:
            guard += 1
            assert guard < 10_000, "drain loop did not converge"
            self.now += 0.5
            batch = self.grant("r0", 4)
            if not batch:
                # Everything unsettled is leased to someone else (or
                # backing off); age it out so the drain runner can claim it.
                self.now += self.table.ttl
                continue
            for cell_id in batch:
                self.deliver(cell_id, "r0")
            self.table.check_invariants()


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 10),
    ttl=st.floats(0.5, 5.0, allow_nan=False),
    retries=st.one_of(st.none(), st.integers(0, 3)),
    ops=st.lists(_op, max_size=60),
)
def test_interleavings_never_double_commit_and_always_converge(
    cells, ttl, retries, ops
):
    harness = _Harness(cells, ttl, retries)
    for op in ops:
        harness.apply(op)
    harness.drain()

    # Safety: every cell committed exactly once, ever — or, only under a
    # retry cap, ran out of attempts and failed instead.
    assert set(harness.commits) | harness.exhausted == set(harness.cells)
    assert not set(harness.commits) & harness.exhausted
    assert all(count == 1 for count in harness.commits.values())
    if retries is None:
        assert not harness.exhausted and harness.table.all_committed
    # Terminal state: nothing leased or pending.
    assert harness.table.all_terminal
    assert harness.table.leased_count == 0
    assert harness.table.pending_count == 0
    # The table's own ledger agrees with the independent tally.
    assert harness.table.counters.results_committed == len(harness.commits)
    assert harness.table.counters.leases_granted == sum(harness.grants.values())


class _PlainQueue:
    """The pre-retry-policy table, in miniature: FIFO requeue, flat TTL.

    What ``repro.fleet`` ran before the local pool shared its scheduler —
    kept here as the oracle for ``retries=None``.
    """

    def __init__(self, cells, ttl: float) -> None:
        self.ttl = ttl
        self.pending = deque(cells)
        self.leases: dict[str, tuple[str, float]] = {}
        self.committed: set[str] = set()
        self.redispatched = 0

    def requeue(self, cell_ids) -> list[str]:
        for cell_id in cell_ids:
            del self.leases[cell_id]
            self.pending.append(cell_id)
            self.redispatched += 1
        return cell_ids

    def expire(self, now: float) -> list[str]:
        return self.requeue([c for c, (_, at) in self.leases.items() if now >= at])

    def runner_dead(self, runner: str) -> list[str]:
        return self.requeue([c for c, (r, _) in self.leases.items() if r == runner])

    def grant(self, runner: str, now: float, max_cells: int) -> list[str]:
        self.expire(now)
        batch: list[str] = []
        while self.pending and len(batch) < max_cells:
            cell_id = self.pending.popleft()
            if cell_id not in self.committed:
                self.leases[cell_id] = (runner, now + self.ttl)
                batch.append(cell_id)
        return batch

    def renew(self, runner: str, now: float) -> int:
        held = [c for c, (r, _) in self.leases.items() if r == runner]
        for cell_id in held:
            self.leases[cell_id] = (runner, now + self.ttl)
        return len(held)

    def complete(self, cell_id: str) -> str:
        if cell_id in self.committed:
            return "duplicate"
        self.committed.add(cell_id)
        self.leases.pop(cell_id, None)
        return "committed"


@settings(max_examples=200, deadline=None)
@given(
    cells=st.integers(1, 10),
    ttl=st.floats(0.5, 5.0, allow_nan=False),
    ops=st.lists(_op, max_size=80),
)
def test_without_a_retry_cap_the_table_is_the_plain_fifo_queue(cells, ttl, ops):
    """``retries=None`` reproduces the fleet's historical traces exactly."""

    names = [f"c{i}" for i in range(cells)]
    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": name} for name in names)
    oracle = _PlainQueue(names, ttl)
    now = 0.0
    for op in ops:
        kind = op[0]
        if kind == "grant":
            got = [p["cell_id"] for p in table.grant(op[1], now, op[2])]
            assert got == oracle.grant(op[1], now, op[2])
        elif kind == "renew":
            assert table.renew(op[1], now) == oracle.renew(op[1], now)
        elif kind == "advance":
            now += op[1]
            assert [l.cell_id for l in table.expire(now)] == oracle.expire(now)
        elif kind == "death":
            held = [l.cell_id for l in table.runner_dead(op[1], now)]
            assert held == oracle.runner_dead(op[1])
        elif kind in ("deliver", "redeliver"):
            cell_id = names[op[1] % len(names)]
            assert table.complete(cell_id, "r0") == oracle.complete(cell_id)
        elif kind == "add":
            names.append(f"c{len(names)}")
            table.add_cells([{"cell_id": names[-1]}])
            oracle.pending.append(names[-1])
        assert list(table._pending) == list(oracle.pending)
        assert {
            c: (lease.runner_id, lease.expires_at) for c, lease in table._leases.items()
        } == oracle.leases
    assert table.failed == {}
    assert table.counters.cells_redispatched == oracle.redispatched


@settings(max_examples=100, deadline=None)
@given(
    ttl=st.floats(0.5, 3.0, allow_nan=False),
    deliveries=st.lists(
        st.tuples(st.integers(0, 4), st.sampled_from(RUNNERS)),
        min_size=1,
        max_size=40,
    ),
)
def test_duplicate_and_late_delivery_is_at_most_once(ttl, deliveries):
    """Any delivery sequence — duplicates, wrong senders, no lease at
    all — commits each cell on its first delivery and discards the rest."""

    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": f"c{i}"} for i in range(5))
    first_seen: set[str] = set()
    for index, runner in deliveries:
        cell_id = f"c{index}"
        outcome = table.complete(cell_id, runner)
        if cell_id in first_seen:
            assert outcome == "duplicate"
        else:
            assert outcome == "committed"
            first_seen.add(cell_id)
        table.check_invariants()
    assert table.counters.results_committed == len(first_seen)
    assert table.counters.duplicates_discarded == len(deliveries) - len(first_seen)


@settings(max_examples=100, deadline=None)
@given(
    ttl=st.floats(0.5, 2.0, allow_nan=False),
    kills=st.lists(st.sampled_from(RUNNERS), max_size=6),
)
def test_runner_death_never_loses_cells(ttl, kills):
    """Every death pattern requeues the victim's leases in full."""

    table = LeaseTable(ttl=ttl)
    table.add_cells({"cell_id": f"c{i}"} for i in range(8))
    now = 0.0
    for victim in kills:
        for runner in RUNNERS:
            table.register(runner)
            table.grant(runner, now, 2)
        table.runner_dead(victim, now)
        table.check_invariants()
        now += 0.25
    # Accounting: granted = committed-or-still-leased-or-requeued; no id
    # outside the original population ever appears.
    assert set(table.items) == {f"c{i}" for i in range(8)}
    assert table.committed_count == 0
    assert table.leased_count + table.pending_count == 8
