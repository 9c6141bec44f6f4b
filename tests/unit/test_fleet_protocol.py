"""Fleet coordinator/runner units: protocol semantics on real sockets.

Fast, small-grid checks of the coordinator's message handling — result
validation, duplicate acks, the start barrier, empty sweeps — plus the
``ResultStore`` first-write-wins dedup the coordinator layers on top of
the lease table.  The heavy multi-process convergence and chaos
coverage lives in ``tests/integration/test_fleet.py``.
"""

from __future__ import annotations

import json
import socket
import threading

import pytest

from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator
from repro.fleet.runner import FleetRunner
from repro.harness.sweep import (
    ExperimentSpec,
    ResultStore,
    canonical_record,
    run_cell,
)
from repro.net.framing import FrameConnection

SPEC4 = ExperimentSpec(
    name="fleet-unit", ns=(4,), deltas=(1,), seeds=4, num_views=4, txs_per_cell=2
)
CELLS4 = SPEC4.expand()


def connect(coordinator: FleetCoordinator) -> FrameConnection:
    host, port = coordinator.address
    sock = socket.create_connection((host, port), timeout=5.0)
    sock.settimeout(5.0)  # a protocol bug must fail the test, not hang it
    return FrameConnection(sock)


def rpc(conn: FrameConnection, message: dict) -> dict:
    conn.send(message)
    return conn.recv()


class TestCoordinatorProtocol:
    def test_register_lease_result_done_cycle(self, tmp_path):
        store = ResultStore(str(tmp_path / "out.jsonl"))
        with FleetCoordinator(CELLS4, store=store) as coordinator:
            conn = connect(coordinator)
            welcome = rpc(conn, {"type": "register", "runner": "u1"})
            assert welcome["type"] == "welcome"
            assert welcome["trace_mode"] == "bounded"

            leased = []
            while True:
                reply = rpc(
                    conn, {"type": "lease", "runner": "u1", "max_cells": 2}
                )
                if reply["type"] == "done":
                    break
                assert reply["type"] == "cells"
                assert len(reply["cells"]) <= 2
                for cell_data in reply["cells"]:
                    from repro.harness.sweep import Cell

                    cell = Cell.from_dict(cell_data)
                    leased.append(cell.cell_id)
                    line = canonical_record(run_cell(cell))
                    ack = rpc(
                        conn,
                        {
                            "type": "result",
                            "runner": "u1",
                            "cell_id": cell.cell_id,
                            "line": line,
                        },
                    )
                    assert ack == {"type": "ack", "outcome": "committed"}
            conn.close()
            assert coordinator.done
            assert sorted(leased) == sorted(c.cell_id for c in CELLS4)
        assert len(store.load()) == len(CELLS4)

    def test_duplicate_result_acked_as_duplicate_and_not_stored_twice(
        self, tmp_path
    ):
        store = ResultStore(str(tmp_path / "out.jsonl"))
        cell = CELLS4[0]
        line = canonical_record(run_cell(cell))
        with FleetCoordinator([cell], store=store) as coordinator:
            conn = connect(coordinator)
            rpc(conn, {"type": "register", "runner": "u1"})
            result = {
                "type": "result",
                "runner": "u1",
                "cell_id": cell.cell_id,
                "line": line,
            }
            assert rpc(conn, result)["outcome"] == "committed"
            assert rpc(conn, result)["outcome"] == "duplicate"
            conn.close()
        content = open(store.path, encoding="utf-8").read()
        assert content == line + "\n"

    def test_corrupt_and_mismatched_result_lines_rejected(self):
        cell = CELLS4[0]
        with FleetCoordinator([cell]) as coordinator:
            conn = connect(coordinator)
            rpc(conn, {"type": "register", "runner": "u1"})
            base = {"type": "result", "runner": "u1", "cell_id": cell.cell_id}
            # Not JSON at all.
            assert rpc(conn, dict(base, line="{nope"))["outcome"] == "rejected"
            # Parses, but the embedded cell does not hash to the claimed id.
            forged = json.loads(canonical_record(run_cell(cell)))
            forged["cell"]["seed_index"] += 1
            assert (
                rpc(conn, dict(base, line=canonical_record(forged)))["outcome"]
                == "rejected"
            )
            # Valid record but for a cell outside this sweep.
            other = canonical_record(run_cell(CELLS4[1]))
            assert (
                rpc(
                    conn,
                    {
                        "type": "result",
                        "runner": "u1",
                        "cell_id": CELLS4[1].cell_id,
                        "line": other,
                    },
                )["outcome"]
                == "unknown"
            )
            assert not coordinator.done
            conn.close()

    def test_start_barrier_holds_grants_until_quorum(self):
        config = CoordinatorConfig(hold_until_runners=2)
        with FleetCoordinator(CELLS4, config=config) as coordinator:
            first = connect(coordinator)
            rpc(first, {"type": "register", "runner": "u1"})
            reply = rpc(first, {"type": "lease", "runner": "u1", "max_cells": 1})
            assert reply["type"] == "wait"  # alone: held at the barrier
            second = connect(coordinator)
            rpc(second, {"type": "register", "runner": "u2"})
            reply = rpc(first, {"type": "lease", "runner": "u1", "max_cells": 1})
            assert reply["type"] == "cells"
            first.close()
            second.close()

    def test_message_without_runner_id_is_an_error(self):
        with FleetCoordinator(CELLS4) as coordinator:
            conn = connect(coordinator)
            assert rpc(conn, {"type": "lease"})["type"] == "error"
            conn.close()

    def test_empty_sweep_is_born_done(self):
        with FleetCoordinator([]) as coordinator:
            assert coordinator.done
            conn = connect(coordinator)
            rpc(conn, {"type": "register", "runner": "u1"})
            reply = rpc(conn, {"type": "lease", "runner": "u1", "max_cells": 4})
            assert reply["type"] == "done"
            conn.close()

    def test_disconnect_requeues_leases_immediately_by_default(self):
        with FleetCoordinator(CELLS4) as coordinator:
            conn = connect(coordinator)
            rpc(conn, {"type": "register", "runner": "u1"})
            reply = rpc(conn, {"type": "lease", "runner": "u1", "max_cells": 2})
            assert len(reply["cells"]) == 2
            conn.close()
            # The handler thread notices EOF and releases the leases.
            deadline = threading.Event()
            for _ in range(100):
                if coordinator.table.leased_count == 0:
                    break
                deadline.wait(0.05)
            assert coordinator.table.leased_count == 0
            assert coordinator.counters()["cells_redispatched"] == 2

    def test_connection_dropped_mid_frame_is_counted_then_requeued(self):
        with FleetCoordinator(CELLS4) as coordinator:
            host, port = coordinator.address
            sock = socket.create_connection((host, port), timeout=5.0)
            conn = FrameConnection(sock)
            rpc(conn, {"type": "register", "runner": "u1"})
            rpc(conn, {"type": "lease", "runner": "u1", "max_cells": 2})
            sock.sendall(b"\x00\x00\x00\x10{")  # 16 bytes promised, 1 sent
            conn.close()
            waiter = threading.Event()
            for _ in range(100):
                if coordinator.table.leased_count == 0:
                    break
                waiter.wait(0.05)
            counters = coordinator.counters()
            assert counters["connections_dropped"] == 1
            assert counters["cells_redispatched"] == 2  # still the death path

    def test_config_validation(self):
        with pytest.raises(ValueError):
            CoordinatorConfig(lease_ttl=0)
        with pytest.raises(ValueError):
            CoordinatorConfig(batch_size=0)
        with pytest.raises(ValueError):
            CoordinatorConfig(trace_mode="off")


class TestRunnerClient:
    def test_runner_drains_a_coordinator(self, tmp_path):
        store = ResultStore(str(tmp_path / "out.jsonl"))
        with FleetCoordinator(CELLS4, store=store) as coordinator:
            host, port = coordinator.address
            stats = FleetRunner(host=host, port=port, runner_id="solo").run()
            assert coordinator.done
        assert stats.cells_executed == len(CELLS4)
        assert stats.results_committed == len(CELLS4)
        assert stats.duplicates == 0
        serial = sorted(canonical_record(run_cell(c)) for c in CELLS4)
        stored = sorted(canonical_record(r) for r in store.load())
        assert stored == serial


class TestResultStoreFirstWriteWins:
    """Satellite: concurrent-coordinator appends dedup on ``cell_id``."""

    def test_late_duplicate_line_dropped_bytes_unchanged(self, tmp_path):
        store = ResultStore(str(tmp_path / "out.jsonl"))
        cell = CELLS4[0]
        line = canonical_record(run_cell(cell))
        assert store.append_record_once(cell.cell_id, line) is True
        before = open(store.path, "rb").read()
        # A late re-dispatch duplicate — even with different bytes — is
        # dropped; the store's bytes are exactly as they were.
        late = json.loads(line)
        late["metrics"]["blocks"] = 999
        assert store.append_record_once(cell.cell_id, canonical_record(late)) is False
        assert open(store.path, "rb").read() == before

    def test_dedup_survives_reopening_the_store(self, tmp_path):
        path = str(tmp_path / "out.jsonl")
        cell = CELLS4[0]
        line = canonical_record(run_cell(cell))
        ResultStore(path).append_record_once(cell.cell_id, line)
        reopened = ResultStore(path)
        assert reopened.append_record_once(cell.cell_id, line) is False
        assert open(path, encoding="utf-8").read() == line + "\n"

    def test_failed_records_do_not_claim_the_id(self, tmp_path):
        from repro.harness.sweep import quarantine_record

        store = ResultStore(str(tmp_path / "out.jsonl"))
        cell = CELLS4[0]
        failed = canonical_record(quarantine_record(cell, "worker died", 3))
        store.append_line(failed)
        # A real result later must supersede the quarantine line.
        line = canonical_record(run_cell(cell))
        assert store.append_record_once(cell.cell_id, line) is True
        assert store.append_record_once(cell.cell_id, line) is False

    def test_plain_append_feeds_the_dedup_index(self, tmp_path):
        store = ResultStore(str(tmp_path / "out.jsonl"))
        cell_a, cell_b = CELLS4[0], CELLS4[1]
        line_a = canonical_record(run_cell(cell_a))
        assert store.append_record_once(cell_a.cell_id, line_a)  # index live
        line_b = canonical_record(run_cell(cell_b))
        store.append_line(line_b)  # plain append must register b too
        assert store.append_record_once(cell_b.cell_id, line_b) is False

    def test_interleaved_two_store_instances_on_one_file(self, tmp_path):
        # Two coordinators sharing a store file: instance-level caches
        # are primed at first use, so each instance dedups what it has
        # seen; the lease table upstream guarantees one-committer per
        # cell within a coordinator, and this layer catches re-dispatch
        # races within one process.  Cross-instance appends interleave
        # line-atomically (O_APPEND) — assert nothing corrupts.
        path = str(tmp_path / "out.jsonl")
        first, second = ResultStore(path), ResultStore(path)
        line_a = canonical_record(run_cell(CELLS4[0]))
        line_b = canonical_record(run_cell(CELLS4[1]))
        assert first.append_record_once(CELLS4[0].cell_id, line_a)
        assert second.append_record_once(CELLS4[1].cell_id, line_b) is True
        # The second instance opened before A existed?  It primed lazily
        # at its first append — after A was durable — so A is deduped.
        assert second.append_record_once(CELLS4[0].cell_id, line_a) is False
        records = ResultStore(path).load()
        assert sorted(r["cell_id"] for r in records) == sorted(
            c.cell_id for c in CELLS4[:2]
        )
