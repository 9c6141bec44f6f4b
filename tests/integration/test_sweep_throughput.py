"""Sweep-throughput smoke: the warm-pool contract under CI.

Slow-marked (it spins up real worker pools and times them).  Asserts the
two properties the sweep engine promises:

* **Byte identity** — the 32-cell benchmark grid produces the same
  JSONL payload set serially, under a cold chunked pool, and under a
  warm reused pool.
* **A throughput floor** — a warm 2-worker executor clears a
  deliberately conservative cells/sec bar (an order of magnitude below
  what this engine measures on a 1-CPU container), so a reverted fast
  path fails loudly while machine-to-machine noise does not.
"""

from __future__ import annotations

import time

import pytest

from repro.harness.executor import SweepExecutor
from repro.harness.sweep import (
    ExperimentSpec,
    ResultStore,
    canonical_record,
    run_cell,
    run_sweep,
)

pytestmark = pytest.mark.slow


# Small cells (n ∈ {4, 6}, 4 views) so orchestration cost — pool
# lifecycle, dispatch IPC, per-cell scaffolding — is visible next to the
# simulation work, mirroring the paper's many-small-runs grids.
GRID32 = ExperimentSpec(
    name="bench-grid32",
    protocols=("tobsvd",),
    ns=(4, 6),
    fs=(0,),
    deltas=(1, 2),
    participations=("stable", "late-join"),
    seeds=4,
    num_views=4,
    txs_per_cell=2,
)

# Conservative: the warm 2-worker engine measures ~200+ cells/sec on a
# single-CPU container; 20 still catches an order-of-magnitude loss.
CELLS_PER_SEC_FLOOR = 20.0


class TestSweepThroughputSmoke:
    @pytest.fixture(scope="class")
    def serial_lines(self):
        outcome = run_sweep(GRID32)
        assert outcome.executed == outcome.total_cells == 32
        return sorted(canonical_record(record) for record in outcome.records)

    def test_warm_pool_byte_identity_and_floor(self, serial_lines, tmp_path):
        with SweepExecutor(workers=2) as executor:
            executor.warmup()
            # Priming pass: pays worker-cache warm-up, checked for identity.
            primed = ResultStore(str(tmp_path / "primed.jsonl"))
            run_sweep(GRID32, store=primed, executor=executor)
            assert sorted(
                canonical_record(record) for record in primed.load()
            ) == serial_lines

            # Timed warm pass (no store: pure execution throughput).
            started = time.perf_counter()
            outcome = run_sweep(GRID32, executor=executor)
            elapsed = time.perf_counter() - started
            assert outcome.executed == 32
            assert sorted(
                canonical_record(record) for record in outcome.records
            ) == serial_lines

        cells_per_sec = 32 / elapsed
        assert cells_per_sec >= CELLS_PER_SEC_FLOOR, (
            f"warm 2-worker sweep ran at {cells_per_sec:.1f} cells/sec, "
            f"below the {CELLS_PER_SEC_FLOOR} floor"
        )

    def test_cold_chunked_pool_matches_too(self, serial_lines):
        with SweepExecutor(workers=2, chunksize=1) as executor:
            outcome = run_sweep(GRID32, executor=executor)
        assert sorted(
            canonical_record(record) for record in outcome.records
        ) == serial_lines


class TestChaosConvergence:
    """Self-healing under injected worker kills: the tentpole contract.

    A 32-cell sweep with chaos-selected SIGKILLs and per-cell retries
    must converge to a record set byte-identical to the fault-free
    serial run — successful records carry no attempt metadata, so
    recovery is invisible in the output.
    """

    @pytest.fixture(scope="class")
    def serial_lines(self):
        outcome = run_sweep(GRID32)
        return sorted(canonical_record(record) for record in outcome.records)

    def test_chaos_sweep_converges_byte_identical(self, serial_lines):
        from repro.faults import ChaosPlan

        chaos = ChaosPlan(kill_rate=0.25, seed=42)
        cells = GRID32.expand()
        assert any(chaos.kills(c.cell_id, 0) for c in cells)  # chaos is live
        with SweepExecutor(
            workers=2, retries=2, chaos=chaos, retry_backoff_base=0.01
        ) as executor:
            lines = sorted(executor.map_cells(cells))
        assert lines == serial_lines
        assert executor.workers_respawned > 0
        assert executor.retries_attempted > 0
        assert executor.cells_quarantined == 0  # kills are first-attempt-only

    def test_sigkill_mid_chunk_retries_chunk_mates(self, serial_lines):
        from repro.faults import ChaosPlan

        cells = GRID32.expand()
        # Aim the kill at a mid-chunk position: with chunksize=4 the
        # third cell's kill also takes down its unexecuted chunk-mate,
        # which must be retried, not lost.
        victim = cells[2].cell_id
        chaos = ChaosPlan(kill_cells=frozenset({victim}))
        with SweepExecutor(
            workers=2, chunksize=4, retries=1, chaos=chaos,
            retry_backoff_base=0.01,
        ) as executor:
            lines = sorted(executor.map_cells(cells))
        assert lines == serial_lines
        assert executor.workers_respawned == 1

    def test_resume_after_kill_with_quarantined_cells(self, serial_lines, tmp_path):
        from repro.faults import ChaosPlan

        cells = GRID32.expand()
        victims = frozenset(c.cell_id for c in cells[:3])
        chaos = ChaosPlan(kill_cells=frozenset(victims))
        store = ResultStore(str(tmp_path / "chaos.jsonl"))
        # First pass with retries=0: every killed chunk is quarantined.
        with SweepExecutor(
            workers=2, chunksize=1, retries=0, chaos=chaos
        ) as executor:
            run_sweep(GRID32, store=store, executor=executor)
        assert executor.cells_quarantined == len(victims)
        # Resume without chaos: quarantined cells re-run, and the final
        # record set matches the fault-free serial sweep byte for byte.
        resumed = run_sweep(GRID32, store=ResultStore(store.path))
        assert resumed.executed == len(victims)
        assert sorted(
            canonical_record(record) for record in resumed.records
        ) == serial_lines


class TestTimeoutRecovery:
    def test_cell_timeout_fires_and_cell_retries(self, monkeypatch):
        cells = GRID32.expand()[:4]
        victim = cells[0].cell_id
        # The victim's worker hangs on attempt 0 only: the timeout must
        # kill it, and the deterministic retry must then succeed.
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_CELL", victim)
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_ATTEMPTS", "1")
        serial = sorted(canonical_record(run_cell(c)) for c in cells)
        with SweepExecutor(
            workers=2, chunksize=1, retries=1, cell_timeout=2.0,
            retry_backoff_base=0.01,
        ) as executor:
            lines = sorted(executor.map_cells(cells))
        assert lines == serial
        assert executor.retries_attempted == 1
        assert executor.workers_respawned == 1

    def test_exhausted_retries_quarantine_with_timeout_error(self, monkeypatch):
        import json

        cells = GRID32.expand()[:2]
        victim = cells[0].cell_id
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_CELL", victim)
        monkeypatch.setenv("REPRO_SWEEP_TEST_HANG_ATTEMPTS", "99")  # always hang
        with SweepExecutor(
            workers=2, chunksize=1, retries=1, cell_timeout=1.0,
            retry_backoff_base=0.01,
        ) as executor:
            records = [json.loads(line) for line in executor.map_cells(cells)]
        by_id = {r["cell_id"]: r for r in records}
        quarantined = by_id[victim]
        assert quarantined["status"] == "failed"
        assert "timeout" in quarantined["error"]
        assert quarantined["attempts"] == 2
        assert quarantined["metrics"] == {}
        other = next(r for cid, r in by_id.items() if cid != victim)
        assert other["status"] == "ok"
