"""Lease-table units: the concrete transitions both sweep drivers rely on.

Directed versions of the scenarios the property suite explores at
random — each one a transition the scheduler's correctness argument
names explicitly (grant, renew-extends, expire-requeues, death-requeues,
first-write-wins, late acceptance revoking a re-dispatch lease, and the
local pool's retry policy: cap, backoff, solo re-dispatch, terminal
failure).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.faults import retry_backoff
from repro.harness.lease import LeaseTable


def make_table(count: int = 4, ttl: float = 10.0, **policy) -> LeaseTable:
    table = LeaseTable(ttl=ttl, **policy)
    table.add_cells({"cell_id": f"cell-{i}", "i": i} for i in range(count))
    return table


def ids(batch) -> list[str]:
    return [payload["cell_id"] for payload in batch]


class TestGrant:
    def test_grant_respects_batch_size_and_order(self):
        table = make_table(5)
        batch = table.grant("r1", now=0.0, max_cells=3)
        assert [c["cell_id"] for c in batch] == ["cell-0", "cell-1", "cell-2"]
        assert table.leased_count == 3 and table.pending_count == 2

    def test_granted_cells_not_regranted_while_leased(self):
        table = make_table(2)
        table.grant("r1", now=0.0, max_cells=2)
        assert table.grant("r2", now=1.0, max_cells=2) == []

    def test_duplicate_add_cells_ignored(self):
        table = make_table(2)
        table.add_cells([{"cell_id": "cell-0"}])
        assert len(table.items) == 2

    def test_ttl_must_be_positive(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=0.0)


class TestExpiry:
    def test_expiry_requeues_for_the_next_grant(self):
        table = make_table(1, ttl=5.0)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.grant("r2", now=4.9, max_cells=1) == []  # still live
        batch = table.grant("r2", now=5.0, max_cells=1)  # TTL hit: re-dispatch
        assert [c["cell_id"] for c in batch] == ["cell-0"]
        assert table.counters.leases_expired == 1
        assert table.counters.cells_redispatched == 1
        assert table.lease_of("cell-0").runner_id == "r2"
        assert table.lease_of("cell-0").attempts == 2

    def test_renew_extends_the_deadline(self):
        table = make_table(1, ttl=5.0)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.renew("r1", now=4.0) == 1
        assert table.expire(now=5.0) == []  # deadline moved to 9.0
        (expired,) = table.expire(now=9.0)
        assert (expired.cell_id, expired.runner_id) == ("cell-0", "r1")

    def test_runner_death_requeues_immediately(self):
        table = make_table(3, ttl=100.0)
        table.register("r1")
        table.grant("r1", now=0.0, max_cells=2)
        requeued = table.runner_dead("r1", now=1.0)
        assert sorted(lease.cell_id for lease in requeued) == ["cell-0", "cell-1"]
        assert table.pending_count == 3 and table.leased_count == 0
        assert table.counters.runners_dead == 1


class TestFirstWriteWins:
    def test_first_result_commits_second_is_duplicate(self):
        table = make_table(1)
        table.grant("r1", now=0.0, max_cells=1)
        assert table.complete("cell-0", "r1") == "committed"
        assert table.complete("cell-0", "r1") == "duplicate"
        assert table.counters.results_committed == 1
        assert table.counters.duplicates_discarded == 1

    def test_unknown_cell_rejected(self):
        table = make_table(1)
        assert table.complete("not-a-cell", "r1") == "unknown"

    def test_late_result_after_redispatch_wins_and_revokes(self):
        # r1 leases the cell, goes silent past the TTL, the cell is
        # re-dispatched to r2 — then r1's result finally lands.  The
        # record is a pure function of the cell, so it commits; r2's
        # lease is revoked and r2's eventual delivery is the duplicate.
        table = make_table(1, ttl=1.0)
        table.grant("r1", now=0.0, max_cells=1)
        table.grant("r2", now=2.0, max_cells=1)
        assert table.lease_of("cell-0").runner_id == "r2"
        assert table.complete("cell-0", "r1") == "committed"
        assert table.counters.late_accepted == 1
        assert table.lease_of("cell-0") is None
        assert table.complete("cell-0", "r2") == "duplicate"
        assert table.all_committed

    def test_late_result_while_requeued_pending(self):
        # Lease expired and the cell sits in the pending queue un-granted
        # when the original runner's result arrives: commit, and the
        # queue entry must never produce another lease.
        table = make_table(1, ttl=1.0)
        table.grant("r1", now=0.0, max_cells=1)
        table.expire(now=2.0)
        assert table.complete("cell-0", "r1") == "committed"
        assert table.grant("r2", now=3.0, max_cells=5) == []
        assert table.all_committed

    def test_commit_terminal_states(self):
        table = make_table(2)
        table.grant("r1", now=0.0, max_cells=2)
        table.complete("cell-0", "r1")
        assert not table.all_committed
        table.complete("cell-1", "r1")
        assert table.all_committed
        table.check_invariants()


class TestRetryPolicy:
    """The transitions only the local pool used to know (``retries`` set)."""

    def test_cell_is_granted_at_most_retries_plus_one_times(self):
        table = make_table(1, ttl=1.0, retries=2, backoff_base=0.01)
        now = 0.0
        for attempt in (1, 2, 3):
            assert ids(table.grant("r1", now, 4)) == ["cell-0"]
            assert table.lease_of("cell-0").attempts == attempt
            now += 5.0  # past the TTL
            table.expire(now, error=f"timeout #{attempt}")
            now += 5.0  # past the backoff
        assert table.failed == {"cell-0": "timeout #3"}
        assert table.grant("r1", now + 100.0, 4) == []
        assert table.all_terminal and not table.all_committed
        assert table.counters.leases_granted == 3
        assert table.counters.cells_redispatched == 2  # failing is not a requeue
        table.check_invariants()

    def test_zero_retries_fails_on_the_first_death(self):
        table = make_table(2, retries=0)
        table.grant("r1", 0.0, 2)
        held = table.runner_dead("r1", 1.0, error="worker died (exit code -9)")
        assert [(lease.cell_id, lease.attempts) for lease in held] == [
            ("cell-0", 1), ("cell-1", 1),
        ]
        assert table.failed == {
            "cell-0": "worker died (exit code -9)",
            "cell-1": "worker died (exit code -9)",
        }
        assert table.pending_count == 0 and table.all_terminal

    def test_backing_off_cell_waits_for_its_deterministic_stamp(self):
        table = make_table(1, ttl=100.0, retries=3, backoff_base=0.5)
        table.grant("r1", 0.0, 1)
        table.runner_dead("r1", 10.0)
        ready_at = 10.0 + retry_backoff("cell-0", 1, 0.5)
        assert table.grant("r2", ready_at - 1e-6, 1) == []
        assert table.pending_count == 1  # passed over, not lost
        assert ids(table.grant("r2", ready_at, 1)) == ["cell-0"]
        # The second failure doubles the base (keyed jitter aside).
        table.runner_dead("r2", 20.0)
        ready_at = 20.0 + retry_backoff("cell-0", 2, 0.5)
        assert table.grant("r1", ready_at - 1e-6, 1) == []
        assert ids(table.grant("r1", ready_at, 1)) == ["cell-0"]

    def test_retried_cell_is_granted_alone(self):
        table = make_table(6, ttl=100.0, retries=1, backoff_base=0.01)
        assert ids(table.grant("r1", 0.0, 2)) == ["cell-0", "cell-1"]
        table.runner_dead("r1", 1.0)  # cell-0, cell-1 requeue behind 2..5
        later = 50.0
        # Fresh cells batch together; the retried ones behind them wait.
        assert ids(table.grant("r2", later, 4)) == [
            "cell-2", "cell-3", "cell-4", "cell-5",
        ]
        # Each retried cell then gets a grant to itself, whatever max_cells.
        assert ids(table.grant("r3", later, 4)) == ["cell-0"]
        assert ids(table.grant("r4", later, 4)) == ["cell-1"]
        table.check_invariants()

    def test_retried_cell_behind_fresh_head_keeps_its_queue_place(self):
        table = make_table(3, ttl=100.0, retries=1, backoff_base=0.01)
        table.grant("r1", 0.0, 1)  # cell-0
        table.runner_dead("r1", 1.0)  # queue: cell-1, cell-2, cell-0(retried)
        assert ids(table.grant("r2", 50.0, 1)) == ["cell-1"]
        assert ids(table.grant("r3", 50.0, 4)) == ["cell-2"]  # cell-0 passed over
        assert ids(table.grant("r4", 50.0, 4)) == ["cell-0"]

    def test_retried_cell_ahead_of_fresh_cells_still_runs_alone(self):
        table = make_table(1, ttl=100.0, retries=1, backoff_base=0.01)
        table.grant("r1", 0.0, 1)
        table.runner_dead("r1", 1.0)
        table.add_cells([{"cell_id": "late-1"}, {"cell_id": "late-2"}])
        assert ids(table.grant("r2", 50.0, 4)) == ["cell-0"]
        assert ids(table.grant("r3", 50.0, 4)) == ["late-1", "late-2"]

    def test_failed_is_terminal_for_grants_but_a_late_result_commits(self):
        # Mirrors ResultStore.completed_ids: a quarantine never claims the
        # cell, so a real result that shows up afterwards still wins.
        table = make_table(1, ttl=1.0, retries=0)
        table.grant("r1", 0.0, 1)
        table.expire(2.0)
        assert "cell-0" in table.failed
        assert table.grant("r2", 3.0, 1) == []
        assert table.complete("cell-0", "r1") == "committed"
        assert table.failed == {} and table.all_committed
        assert table.counters.late_accepted == 1
        assert table.complete("cell-0", "r1") == "duplicate"
        table.check_invariants()

    def test_per_cell_ttl_scales_with_the_batch(self):
        table = make_table(4, ttl=2.0, ttl_per_cell=True, retries=1)
        table.grant("r1", 0.0, 3)
        assert table.lease_of("cell-0").expires_at == 6.0
        assert table.expire(5.9) == []
        expired = table.expire(6.0)
        assert {lease.runner_id for lease in expired} == {"r1"}
        assert sorted(lease.cell_id for lease in expired) == [
            "cell-0", "cell-1", "cell-2",
        ]
        # The retried cells run solo, so each gets exactly one ttl.
        table.grant("r2", 100.0, 3)  # fresh cell-3 leads the queue
        table.grant("r3", 100.0, 3)
        assert table.lease_of("cell-0").expires_at == 102.0

    def test_no_retry_cap_means_plain_unbounded_redispatch(self):
        table = make_table(2, ttl=1.0)  # retries=None: the fleet's policy
        now = 0.0
        for attempt in range(1, 26):
            assert ids(table.grant("r1", now, 2)) == ["cell-0", "cell-1"]
            assert table.lease_of("cell-0").attempts == attempt
            now += 1.0  # expiry requeues with no delay and no isolation
        assert table.failed == {} and not table.all_terminal

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError):
            LeaseTable(ttl=1.0, retries=-1)


def test_importing_the_harness_loads_no_fleet_module():
    """The dependency arrow is ``fleet -> harness`` only."""

    probe = (
        "import sys, repro.harness, repro.harness.executor\n"
        "print([m for m in sys.modules if m.startswith('repro.fleet')])"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "[]"
