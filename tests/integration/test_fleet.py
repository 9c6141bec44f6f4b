"""Distributed-chaos suite: the fleet's byte-identity contract, proven.

The strongest promise a distributed sweep fabric can make over a
deterministic substrate: the aggregate output of a coordinator/runner
fleet — JSONL record set and rendered CSV — is **byte-identical** to
the fault-free serial run, including when

* a runner process is SIGKILLed mid-sweep (its leases expire and the
  cells re-dispatch to survivors — the TTL path, with
  ``release_on_disconnect`` off so disconnect cannot shortcut it), and
* a stalled runner comes back from the dead *after* its cells were
  re-dispatched and committed elsewhere, delivering late duplicates
  (first-write-wins discards every one; bytes on disk never change).

This extends PR 6's ``TestChaosConvergence`` (worker kills inside one
process tree) across the process/host boundary.  Slow-marked: it runs a
1000+-cell grid several times across real OS processes on localhost
sockets.
"""

from __future__ import annotations

import os
import signal
import threading
import time

import pytest

from repro.analysis.aggregation import aggregate_sweep, render_sweep_csv
from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator
from repro.fleet.local import _runner_proc_main, run_fleet_local
from repro.fleet.runner import FleetRunner, RunnerStats
from repro.harness.executor import _resolved_start_method
from repro.harness.sweep import (
    ExperimentSpec,
    ResultStore,
    canonical_record,
    pending_cells,
    run_sweep,
)

pytestmark = pytest.mark.slow

#: The acceptance grid: 1024 tiny cells (n=4, 4 views) — enough that a
#: mid-sweep kill always interrupts in-flight leases, small enough that
#: the serial oracle and three fleet runs fit in a CI step.
GRID1024 = ExperimentSpec(
    name="fleet-grid1024",
    ns=(4,),
    deltas=(1,),
    participations=("stable",),
    seeds=1024,
    num_views=4,
    txs_per_cell=2,
)

#: Smaller grid for the duplicate-delivery scenario (the victim replays
#: an entire stalled batch as duplicates — cell count is not the point).
GRID128 = ExperimentSpec(
    name="fleet-grid128",
    ns=(4,),
    deltas=(1,),
    seeds=128,
    num_views=4,
    txs_per_cell=2,
)


def spawn_runners(coordinator, count, prefix="chaos-runner"):
    import multiprocessing

    host, port = coordinator.address
    ctx = multiprocessing.get_context(_resolved_start_method())
    procs = [
        ctx.Process(
            target=_runner_proc_main,
            args=(host, port, f"{prefix}-{index}"),
            daemon=True,
        )
        for index in range(count)
    ]
    for proc in procs:
        proc.start()
    return procs


def sorted_lines(records) -> list[str]:
    return sorted(canonical_record(record) for record in records)


def csv_of(records) -> str:
    return render_sweep_csv(
        aggregate_sweep(sorted(records, key=lambda r: r["cell_id"]))
    )


class TestFleetByteIdentity:
    @pytest.fixture(scope="class")
    def serial(self):
        outcome = run_sweep(GRID1024)
        assert outcome.total_cells == outcome.executed == 1024
        return sorted_lines(outcome.records), csv_of(outcome.records)

    def test_two_runner_fleet_matches_serial(self, serial, tmp_path):
        serial_lines, serial_csv = serial
        store = ResultStore(str(tmp_path / "fleet.jsonl"))
        cells, todo, _ = pending_cells(GRID1024, store)
        assert len(todo) == len(cells) == 1024
        summary = run_fleet_local(
            todo, store=store, runners=2, timeout=300.0, batch_size=16
        )
        assert summary.complete
        assert sorted_lines(store.load()) == serial_lines
        assert csv_of(store.load()) == serial_csv
        counters = summary.counters
        assert counters["runners_registered"] == 2
        assert counters["cells_committed"] == 1024
        # A clean fleet moves every cell across the wire exactly once: a
        # fabric that re-leases, re-sends or drops shows up here as a
        # count, not as a slower run.
        assert counters["leases_granted"] == 1024
        assert counters["results_committed"] == counters["cells_total"] == 1024
        for name in (
            "leases_expired", "cells_redispatched", "duplicates_discarded",
            "late_accepted", "connections_dropped",
        ):
            assert counters[name] == 0, name

    def test_fleet_resumes_a_partial_store(self, serial, tmp_path):
        # Seed the store with a serial prefix, then let the fleet finish
        # only the remainder — resume semantics are driver-independent.
        serial_lines, _ = serial
        store = ResultStore(str(tmp_path / "resume.jsonl"))
        for cell in GRID1024.expand()[:300]:
            store.append_line(serial_lines_by_id(serial_lines)[cell.cell_id])
        cells, todo, _ = pending_cells(GRID1024, store)
        assert len(cells) - len(todo) == 300 and len(todo) == 724
        summary = run_fleet_local(
            todo, store=store, runners=2, timeout=300.0, batch_size=16
        )
        assert summary.cells_total == summary.cells_committed == 724
        assert sorted_lines(store.load()) == serial_lines

    def test_runner_sigkill_mid_sweep_converges_byte_identical(
        self, serial, tmp_path
    ):
        """The acceptance scenario: SIGKILL one of three runners mid-
        sweep; leases expire (disconnect-release disabled), cells
        re-dispatch, and the final aggregates are byte-identical."""

        serial_lines, serial_csv = serial
        store = ResultStore(str(tmp_path / "chaos.jsonl"))
        config = CoordinatorConfig(
            lease_ttl=1.0,
            batch_size=16,
            hold_until_runners=3,
            release_on_disconnect=False,  # recovery must take the TTL path
        )
        coordinator = FleetCoordinator(GRID1024.expand(), store=store, config=config)
        coordinator.start()
        procs = spawn_runners(coordinator, 3)
        victim = procs[0]
        try:
            # Let the fleet make real progress, then freeze the victim
            # while it provably holds leases (SIGSTOP pins it mid-batch
            # with no delivery race), and only then kill it.
            deadline = time.monotonic() + 120.0
            while coordinator.committed_count < 200:
                assert time.monotonic() < deadline, "fleet made no progress"
                time.sleep(0.01)
            held = 0
            while not held:
                assert time.monotonic() < deadline, "victim never froze holding a lease"
                assert coordinator.committed_count < 1024, "sweep finished first"
                os.kill(victim.pid, signal.SIGSTOP)
                time.sleep(0.2)  # in-flight frames settle
                held = coordinator.leases_held_by("chaos-runner-0")
                if not held:
                    # Frozen between committing one batch and being
                    # granted the next: let it run on and try again.
                    os.kill(victim.pid, signal.SIGCONT)
                    time.sleep(0.05)
            os.kill(victim.pid, signal.SIGKILL)

            assert coordinator.wait(timeout=240.0), "fleet did not converge"
            for proc in procs[1:]:
                proc.join(timeout=30.0)
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            coordinator.close()

        counters = coordinator.counters()
        assert counters["leases_expired"] >= held
        assert counters["cells_redispatched"] >= held
        assert counters["results_committed"] == 1024
        records = store.load()
        assert sorted_lines(records) == serial_lines
        assert csv_of(records) == serial_csv


class TestDuplicateDelivery:
    def test_resurrected_runner_delivers_only_duplicates(self, tmp_path):
        """A runner stalls past its TTL, its cells re-dispatch and
        commit elsewhere, then it wakes and replays its whole batch:
        every line is acked ``duplicate`` and the store never changes."""

        serial = run_sweep(GRID128)
        serial_lines = sorted_lines(serial.records)
        store = ResultStore(str(tmp_path / "dup.jsonl"))
        config = CoordinatorConfig(
            lease_ttl=0.5,
            batch_size=16,
            hold_until_runners=2,
            release_on_disconnect=False,
        )
        coordinator = FleetCoordinator(GRID128.expand(), store=store, config=config)
        coordinator.start()
        procs = spawn_runners(coordinator, 2, prefix="dup-runner")
        victim = procs[0]
        try:
            deadline = time.monotonic() + 120.0
            while coordinator.committed_count < 20:
                assert time.monotonic() < deadline
                time.sleep(0.01)
            os.kill(victim.pid, signal.SIGSTOP)
            time.sleep(0.2)
            assert coordinator.leases_held_by("dup-runner-0") > 0
            # The survivor finishes everything, including the victim's
            # expired cells.
            assert coordinator.wait(timeout=240.0)
            bytes_at_done = open(store.path, "rb").read()
            # Resurrect the victim: it replays its stalled batch.
            os.kill(victim.pid, signal.SIGCONT)
            victim.join(timeout=60.0)
            assert victim.exitcode == 0  # clean exit: done after duplicates
            procs[1].join(timeout=30.0)
            assert open(store.path, "rb").read() == bytes_at_done
        finally:
            for proc in procs:
                if proc.is_alive():
                    proc.kill()
                    proc.join()
            coordinator.close()

        counters = coordinator.counters()
        assert counters["duplicates_discarded"] >= 1
        assert counters["results_committed"] == 128
        assert sorted_lines(store.load()) == serial_lines


class TestGracefulClose:
    def test_close_grace_serves_runners_until_they_hear_done(self):
        """``close(grace=)`` stops accepting but keeps serving: the runner
        that delivered the last result and the one still polling both get
        ``done``, say goodbye and return their stats."""

        cells = GRID128.expand()[:8]
        converged = threading.Event()
        commits = []

        def on_commit(line):
            commits.append(line)
            if len(commits) == len(cells):
                converged.set()
                # Hold the final ack back so close() is under way before
                # either runner sends its next request.
                time.sleep(0.1)

        coordinator = FleetCoordinator(
            cells,
            config=CoordinatorConfig(batch_size=len(cells), hold_until_runners=2),
            on_commit=on_commit,
        )
        host, port = coordinator.start()
        outcomes = {}

        def serve(name):
            try:
                outcomes[name] = FleetRunner(host, port, runner_id=name).run()
            except Exception as exc:  # the assertion below names it
                outcomes[name] = exc

        threads = [
            threading.Thread(target=serve, args=(f"grace-runner-{index}",))
            for index in range(2)
        ]
        for thread in threads:
            thread.start()
        try:
            assert converged.wait(timeout=60.0), "fleet did not converge"
        finally:
            coordinator.close(grace=2.0)
            for thread in threads:
                thread.join(timeout=10.0)

        assert coordinator.done
        assert all(isinstance(o, RunnerStats) for o in outcomes.values()), outcomes
        assert sorted(o.cells_executed for o in outcomes.values()) == [0, 8]
        assert coordinator.counters()["connections_dropped"] == 0


def serial_lines_by_id(lines: list[str]) -> dict[str, str]:
    import json

    return {json.loads(line)["cell_id"]: line for line in lines}


class TestFleetCli:
    def test_fleet_local_cli_matches_serial_sweep(self, tmp_path, capsys):
        from repro import cli

        out = tmp_path / "fleet-cli.jsonl"
        csv = tmp_path / "fleet-cli.csv"
        grid = [
            "--name", "fleet-cli", "--protocols", "tobsvd",
            "--n", "4", "--f", "0", "--delta", "1",
            "--participation", "stable",
            "--seeds", "8", "--views", "4", "--txs", "2",
        ]
        code = cli.main([
            "fleet", "local", *grid, "--runners", "2",
            "--timeout", "120", "--out", str(out), "--csv", str(csv),
            "--quiet",
        ])
        captured = capsys.readouterr().out
        assert code == 0
        assert "8 executed on 2 runners" in captured
        assert "2 runners registered" in captured
        spec = ExperimentSpec(
            name="fleet-cli", ns=(4,), deltas=(1,), seeds=8,
            num_views=4, txs_per_cell=2,
        )
        serial = run_sweep(spec)
        assert sorted_lines(ResultStore(str(out)).load()) == sorted_lines(
            serial.records
        )
        assert csv.read_text(encoding="utf-8") == csv_of(serial.records)
        # Re-running resumes to a no-op: everything is already durable.
        assert cli.main([
            "fleet", "local", *grid, "--runners", "2",
            "--timeout", "120", "--out", str(out), "--quiet",
        ]) == 0
        assert "8 resumed-skip" in capsys.readouterr().out
