"""The fleet runner: lease cells, execute them, stream results back.

A runner is a thin client around the machinery PRs 2-6 already built:
leased cell dicts execute in-process through
:func:`~repro.harness.sweep.run_cell_batch` (sharing the per-process
:mod:`~repro.harness.prebuild` cache across every leased batch), and its
results are already canonical JSONL lines, so the runner ships them
verbatim.

The loop is a straight poll cycle: ``lease`` → execute → ``result`` per
line (each reply acked, so the runner knows whether its line committed
or lost the first-write race) → repeat, until the coordinator answers
``done``.  Every message the runner sends renews its leases on the
coordinator, so no separate heartbeat thread is needed as long as cells
finish inside the lease TTL; between cells of a long batch the results
themselves are the heartbeat.
"""

from __future__ import annotations

import json
import os
import socket
import time
from dataclasses import dataclass, field

from repro.harness.sweep import run_cell_batch
from repro.net.framing import FrameConnection, TruncatedStreamError, WireError
from repro.snapshot import SnapshotStore


class RunnerError(RuntimeError):
    """The coordinator vanished or broke protocol mid-conversation."""


@dataclass
class RunnerStats:
    """What one runner did, as reported by ``FleetRunner.run``."""

    runner_id: str = ""
    batches_leased: int = 0
    cells_executed: int = 0
    results_committed: int = 0
    duplicates: int = 0
    rejected: int = 0
    waits: int = 0


@dataclass
class FleetRunner:
    """One runner process's client logic.

    Leased cells execute in-process, so prebuild caches stay warm across
    batches.  ``max_cells`` overrides the coordinator's advertised batch
    size.
    """

    host: str
    port: int
    runner_id: str = ""
    max_cells: int = 0
    connect_timeout: float = 10.0
    snapshot_dir: str | None = None
    warmup_views: int | None = None
    stats: RunnerStats = field(default_factory=RunnerStats)

    def __post_init__(self) -> None:
        if not self.runner_id:
            # Unique per process, never simulation-visible: runner ids
            # label leases and log lines, nothing derives results from
            # them, so determinism of the sweep output is untouched.
            self.runner_id = f"runner-{os.getpid()}-{os.urandom(3).hex()}"
        self.stats.runner_id = self.runner_id

    # -- the client loop -----------------------------------------------------

    def run(self) -> RunnerStats:
        """Serve the coordinator until it reports the sweep done."""

        sock = socket.create_connection(
            (self.host, self.port), timeout=self.connect_timeout
        )
        sock.settimeout(None)  # blocking from here on; frames are small
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        conn = FrameConnection(sock)
        try:
            register: dict = {"type": "register", "runner": self.runner_id}
            if self.snapshot_dir is not None:
                # Advertise locally cached snapshot ids so the
                # coordinator can lease cells whose warm-up this host
                # already holds (one field in an existing message — no
                # extra protocol round-trips).
                register["snapshots"] = SnapshotStore(self.snapshot_dir).ids()
            welcome = self._exchange(conn, register)
            if welcome.get("type") != "welcome":
                raise RunnerError(f"expected welcome, got {welcome!r}")
            trace_mode = welcome.get("trace_mode", "bounded")
            batch = self.max_cells or int(welcome.get("batch", 8))
            while True:
                reply = self._exchange(
                    conn,
                    {
                        "type": "lease",
                        "runner": self.runner_id,
                        "max_cells": batch,
                    },
                )
                kind = reply.get("type")
                if kind == "done":
                    break
                if kind == "wait":
                    self.stats.waits += 1
                    time.sleep(float(reply.get("retry_after", 0.05)))
                    continue
                if kind != "cells":
                    raise RunnerError(f"unexpected lease reply {reply!r}")
                self.stats.batches_leased += 1
                for line in run_cell_batch(
                    reply["cells"], trace_mode, self.snapshot_dir, self.warmup_views
                ):
                    self.stats.cells_executed += 1
                    ack = self._exchange(
                        conn,
                        {
                            "type": "result",
                            "runner": self.runner_id,
                            "cell_id": json.loads(line)["cell_id"],
                            "line": line,
                        },
                    )
                    outcome = ack.get("outcome")
                    if outcome == "committed":
                        self.stats.results_committed += 1
                    elif outcome == "duplicate":
                        self.stats.duplicates += 1
                    else:
                        self.stats.rejected += 1
            try:
                conn.send({"type": "goodbye", "runner": self.runner_id})
            except WireError:
                pass  # the coordinator may already be gone; we are done
        finally:
            conn.close()
        return self.stats

    def _exchange(self, conn: FrameConnection, message: dict) -> dict:
        """One request/response round trip; coordinator loss is typed."""

        try:
            conn.send(message)
            reply = conn.recv()
        except TruncatedStreamError as exc:
            raise RunnerError(f"lost coordinator: {exc}") from None
        if reply is None:
            raise RunnerError("coordinator closed the connection mid-sweep")
        if reply.get("type") == "error":
            raise RunnerError(f"coordinator rejected message: {reply.get('error')}")
        return reply
