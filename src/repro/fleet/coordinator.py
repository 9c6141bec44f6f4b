"""The fleet coordinator: the TCP server that owns one sweep.

One coordinator owns the cell queue, the lease table and result
acceptance; any number of runners connect over localhost or LAN TCP,
register, lease cell batches and stream canonical result lines back.
The protocol is deliberately poll-based request/response — every frame
a runner sends gets exactly one reply — because that shape needs no
shared epoch, no server push and no reconnect hand-shake to reason
about, and every runner message doubles as a liveness heartbeat
(renewing its leases).

Message vocabulary (all frames are JSON objects, see
:mod:`repro.net.framing`):

==============  ======================================  =========================
runner sends    fields                                  coordinator replies
==============  ======================================  =========================
``register``    ``runner``                              ``welcome`` (trace_mode,
                                                        batch)
``lease``       ``runner``, ``max_cells``               ``cells`` (cell dicts) /
                                                        ``wait`` (retry_after) /
                                                        ``done``
``result``      ``runner``, ``cell_id``, ``line``       ``ack`` (outcome)
``heartbeat``   ``runner``                              ``ack`` (outcome
                                                        ``renewed``)
``goodbye``     ``runner``                              (connection closes)
==============  ======================================  =========================

Safety lives in two independent layers: the
:class:`~repro.harness.lease.LeaseTable` commits each cell at most once
(first-write-wins over any interleaving of grants, expiries, deaths and
late deliveries), and the :class:`~repro.harness.sweep.ResultStore`
dedups on ``cell_id`` again at append time — so even a second
coordinator appending to the same store cannot double-commit a cell.
Result lines are integrity-checked (the embedded cell must hash back to
its claimed id) before they reach the store, exactly like
``ResultStore.recover`` would demand after the fact.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from dataclasses import asdict, dataclass

from repro.harness.lease import LeaseTable
from repro.harness.sweep import ResultStore
from repro.net.framing import FrameConnection, WireError

#: Default seconds a drained runner is told to sleep before re-polling.
DEFAULT_RETRY_AFTER = 0.05


@dataclass(frozen=True)
class CoordinatorConfig:
    """Tunables for one coordinator instance.

    ``lease_ttl`` bounds how long a silent runner can hold cells before
    they re-dispatch; ``batch_size`` is the lease granularity advertised
    to runners; ``hold_until_runners`` delays the first grant until that
    many runners have registered (a start barrier: benchmarks time the
    steady state, tests get deterministic co-start);
    ``release_on_disconnect`` requeues a dropped runner's leases
    immediately instead of waiting out their TTL (chaos tests disable it
    to force recovery through the expiry path).
    """

    host: str = "127.0.0.1"
    port: int = 0
    lease_ttl: float = 5.0
    batch_size: int = 8
    trace_mode: str = "bounded"
    retry_after: float = DEFAULT_RETRY_AFTER
    hold_until_runners: int = 0
    release_on_disconnect: bool = True

    def __post_init__(self) -> None:
        if self.lease_ttl <= 0:
            raise ValueError("lease_ttl must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.trace_mode not in ("full", "bounded"):
            raise ValueError(f"unknown trace_mode {self.trace_mode!r}")


class FleetCoordinator:
    """Serve one sweep's cells to a fleet of runners until all commit.

    Usage::

        coordinator = FleetCoordinator(cells, store=store)
        host, port = coordinator.start()
        ... point runners at (host, port) ...
        coordinator.wait()        # blocks until every cell committed
        summary = coordinator.counters()
        coordinator.close()

    ``cells`` is any iterable of :class:`~repro.harness.sweep.Cell` (or
    their dict form) — *pre-filtered for resume by the caller*, exactly
    like ``run_sweep`` filters before dispatching to an executor.
    ``on_commit`` (if given) is called with each committed canonical
    line, from a connection-handler thread, after the store append.
    """

    def __init__(
        self,
        cells,
        store: ResultStore | None = None,
        config: CoordinatorConfig | None = None,
        on_commit=None,
    ) -> None:
        self.config = config or CoordinatorConfig()
        self.store = store
        self.on_commit = on_commit
        self.table = LeaseTable(ttl=self.config.lease_ttl)
        self.table.add_cells(cells)
        self._affinity_built = False
        self._lock = threading.Lock()
        self._done = threading.Event()
        self._closing = False  # no new connections
        self._serving = True  # live connections still get replies
        self._listener: socket.socket | None = None
        self._threads: list[threading.Thread] = []
        self._conns: list[FrameConnection] = []
        self._connections_dropped = 0
        if self.table.all_committed:  # empty sweep: born finished
            self._done.set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> tuple[str, int]:
        """Bind, listen, and serve on background threads.

        Returns the bound ``(host, port)`` — with ``port=0`` the OS
        picks a free port, which is what every test and the ``fleet
        local`` driver use.
        """

        if self._listener is not None:
            raise RuntimeError("coordinator already started")
        self._listener = socket.create_server(
            (self.config.host, self.config.port), reuse_port=False
        )
        self._listener.settimeout(0.2)  # bounded accept wait: close() is prompt
        accept = threading.Thread(
            target=self._accept_loop, name="fleet-coordinator-accept", daemon=True
        )
        accept.start()
        self._threads.append(accept)
        return self.address

    @property
    def address(self) -> tuple[str, int]:
        if self._listener is None:
            raise RuntimeError("coordinator not started")
        host, port = self._listener.getsockname()[:2]
        return host, port

    def wait(self, timeout: float | None = None) -> bool:
        """Block until every cell is committed (or ``timeout`` passes)."""

        return self._done.wait(timeout)

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def close(self, grace: float = 0.0) -> None:
        """Stop accepting, then stop serving and close every connection.

        With ``grace`` > 0, live connections are served for that long
        first — runners poll once more, receive ``done``, say goodbye
        and hang up — so remote runners exit cleanly instead of seeing
        a connection reset.
        """

        self._closing = True
        if self._listener is not None:
            try:
                self._listener.close()
            except OSError:
                pass
        if grace > 0:
            deadline = time.monotonic() + grace
            for thread in self._threads:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                thread.join(timeout=remaining)
        self._serving = False
        for conn in list(self._conns):
            conn.close()
        for thread in self._threads:
            thread.join(timeout=2.0)

    def __enter__(self) -> "FleetCoordinator":
        self.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- observability -------------------------------------------------------

    def counters(self) -> dict:
        """Lease/registration/re-dispatch totals for the sweep summary."""

        with self._lock:
            counts = asdict(self.table.counters)
            counts["cells_total"] = len(self.table.items)
            counts["cells_committed"] = self.table.committed_count
            counts["connections_dropped"] = self._connections_dropped
        return counts

    def leases_held_by(self, runner_id: str) -> int:
        """How many cells ``runner_id`` currently holds (thread-safe)."""

        with self._lock:
            return len(self.table.leases_of(runner_id))

    @property
    def committed_count(self) -> int:
        with self._lock:
            return self.table.committed_count

    # -- serving -------------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closing:
            try:
                sock, _addr = self._listener.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # listener closed
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            conn = FrameConnection(sock)
            self._conns.append(conn)
            handler = threading.Thread(
                target=self._serve_conn,
                args=(conn,),
                name="fleet-coordinator-conn",
                daemon=True,
            )
            handler.start()
            self._threads.append(handler)

    def _serve_conn(self, conn: FrameConnection) -> None:
        """One connection's request/response loop (one thread each)."""

        runner_id: str | None = None
        try:
            while self._serving:
                message = conn.recv()
                if message is None or message.get("type") == "goodbye":
                    break
                reply = self._handle(message)
                runner_id = message.get("runner", runner_id)
                conn.send(reply)
        except WireError:
            # Dropped peer: counted, then the death path below.
            with self._lock:
                self._connections_dropped += 1
        finally:
            conn.close()
            if runner_id is not None and not self._done.is_set():
                with self._lock:
                    if self.config.release_on_disconnect:
                        self.table.runner_dead(runner_id, time.monotonic())
                    else:
                        # Leave the leases to age out: the chaos tests
                        # prove the TTL path this way, and a flaky link
                        # does not instantly forfeit in-flight work.
                        self.table._runners.discard(runner_id)

    def _handle(self, message: dict) -> dict:
        """Apply one runner message under the lock; build its reply."""

        kind = message.get("type")
        runner = message.get("runner")
        now = time.monotonic()
        if not isinstance(runner, str) or not runner:
            return {"type": "error", "error": f"message {kind!r} missing runner id"}
        with self._lock:
            if kind == "register":
                self.table.register(runner)
                snapshots = message.get("snapshots")
                if snapshots:
                    self._ensure_affinity()
                    self.table.advertise(runner, snapshots)
                return {
                    "type": "welcome",
                    "trace_mode": self.config.trace_mode,
                    "batch": self.config.batch_size,
                }
            if kind == "lease":
                self.table.renew(runner, now)
                if (
                    self.config.hold_until_runners
                    and self.table.counters.runners_registered
                    < self.config.hold_until_runners
                ):
                    return {"type": "wait", "retry_after": self.config.retry_after}
                max_cells = int(message.get("max_cells", self.config.batch_size))
                batch = self.table.grant(runner, now, max(1, max_cells))
                if batch:
                    return {"type": "cells", "cells": batch}
                if self.table.all_committed:
                    return {"type": "done"}
                return {"type": "wait", "retry_after": self.config.retry_after}
            if kind == "result":
                self.table.renew(runner, now)
                return self._accept_result(message, runner)
            if kind == "heartbeat":
                renewed = self.table.renew(runner, now)
                return {"type": "ack", "outcome": "renewed", "leases": renewed}
        return {"type": "error", "error": f"unknown message type {kind!r}"}

    def _ensure_affinity(self) -> None:
        """Build the cell → candidate-snapshot-id map once (caller holds lock).

        A cell's warm-up snapshot can sit at any view boundary, so every
        ``snapshot_id(prefix-scenario, seed, view)`` for views ``1 ..
        num_views`` counts as a match.  Pure hashing over the cell
        coordinates — the coordinator never compiles fault plans or
        touches the protocol stack for placement.
        """

        if self._affinity_built:
            return
        self._affinity_built = True
        from repro.harness.sweep import TOBSVD_NAME, Cell
        from repro.snapshot import snapshot_id

        affinity: dict[str, frozenset] = {}
        for cell_id, payload in self.table.items.items():
            try:
                cell = Cell.from_dict(payload)
            except (TypeError, ValueError, KeyError):
                continue
            if cell.protocol != TOBSVD_NAME:
                continue
            key = f"{cell.prefix_key}|trace={self.config.trace_mode}"
            affinity[cell_id] = frozenset(
                snapshot_id(key, cell.run_seed, view)
                for view in range(1, cell.num_views + 1)
            )
        self.table.affinity = affinity

    def _accept_result(self, message: dict, runner: str) -> dict:
        """Validate + commit one result line (caller holds the lock)."""

        cell_id = message.get("cell_id")
        line = message.get("line")
        if not isinstance(cell_id, str) or not isinstance(line, str):
            return {"type": "ack", "outcome": "rejected"}
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            return {"type": "ack", "outcome": "rejected"}
        if (
            not ResultStore._integrity_ok(record)
            or record.get("cell_id") != cell_id
        ):
            return {"type": "ack", "outcome": "rejected"}
        outcome = self.table.complete(cell_id, runner)
        if outcome == "committed":
            if self.store is not None:
                self.store.append_record_once(cell_id, line)
            if self.on_commit is not None:
                self.on_commit(line)
            if self.table.all_committed:
                self._done.set()
        return {"type": "ack", "outcome": outcome}
