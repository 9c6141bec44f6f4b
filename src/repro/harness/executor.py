"""The persistent, self-healing sweep worker pool.

``run_sweep`` historically spun up a throwaway ``multiprocessing.Pool``
per sweep and shipped cells one at a time (``chunksize=1``).  For grids
of hundreds of small cells the orchestration — pool spin-up, worker
imports, per-cell IPC round-trips, per-cell scaffolding rebuilds —
rivals the simulation work itself.  :class:`SweepExecutor` makes grid
execution the fast path, and (since the fault-injection PR) survives a
hostile world:

* **Warm pool.**  One pool of supervised worker processes, created
  lazily on first dispatch (or eagerly via :meth:`warmup`), reused
  across any number of sweeps.  The worker initializer pre-imports the
  whole protocol stack so the first real cell does not pay import
  latency inside the worker.
* **Spawn start method.**  Workers are started fresh (``spawn``) rather
  than forked: identical behaviour on Linux/macOS/Windows, no
  fork-with-threads hazards, and an honest cold-start cost that the
  warm pool then amortizes away.
* **Adaptive chunked dispatch.**  Cells ship in chunks sized from the
  grid and worker count (``chunksize=0`` picks
  ``clamp(todo / (workers * 4), 1, 16)``), collapsing per-cell IPC
  round-trips while keeping enough chunks in flight for load balance.
* **Worker-side serialization.**  Workers return each record already in
  canonical JSONL form; the parent appends the raw line to the
  ``ResultStore`` instead of re-serializing (one canonical encoder, one
  invocation — byte-identity across serial/parallel is by construction).
* **Self-healing supervision.**  Each worker is an explicit ``Process``
  with a duplex ``Pipe`` (``multiprocessing.Pool`` hangs forever when a
  worker is SIGKILLed mid-task — its result simply never arrives).  The
  parent is a pipe event loop around one
  :class:`repro.harness.lease.LeaseTable`, the scheduler it shares with
  the fleet coordinator: the loop only reports events (worker idle,
  result arrived, worker died, deadline passed) and the table decides
  who runs what, whether a cell is retried, after what deterministic
  backoff, and which result commits.  A cell that exhausts its retries
  becomes a canonical ``status: "failed"`` quarantine record instead of
  killing the sweep.  A worker that dies during start-up raises
  :class:`WorkerPoolError` carrying its exit code — never a silent hang.
* **Chaos mode.**  A :class:`repro.faults.ChaosPlan` SIGKILLs workers
  handed selected cells — on the first attempt only, so a sweep with
  ``retries >= 1`` always converges to the byte-identical record set of
  a fault-free run (successful records are pure functions of their
  cells; attempts leave no trace on them).

Determinism is unaffected by any of this: cells derive all randomness
from their own coordinates, workers share no mutable state, and the
per-worker prebuild caches (:mod:`repro.harness.prebuild`) hold only
artefacts that are pure functions of their cache key.  Completion order
*within* a sweep may vary with chunking and retries — exactly as it
already did under ``imap_unordered`` — which is why consumers read
sorted records.
"""

from __future__ import annotations

import math
import multiprocessing
import os
import signal
import sys
import time
from multiprocessing import connection

from repro.faults import ChaosPlan
from repro.harness.lease import LeaseTable
from repro.harness.sweep import (
    Cell,
    add_cache_counters,
    canonical_record,
    empty_cache_counters,
    quarantine_record,
    run_cell_batch,
)

_READY = "__worker_ready__"

#: Seconds :meth:`SweepExecutor.warmup` waits for the ready handshakes.
_WARMUP_TIMEOUT = 60.0

#: Consecutive init-phase worker deaths tolerated before the supervisor
#: concludes workers cannot start at all and raises WorkerPoolError.
_MAX_INIT_DEATHS = 3

#: Supervision poll interval (seconds): the upper bound on how stale a
#: deadline/death check can be.  connection.wait returns immediately on
#: traffic, so a healthy pool never waits this long for results.
_POLL_INTERVAL = 0.05

#: Test hooks (inherited by spawn workers via the environment): die with
#: the given exit code before initializing; hang for an hour before
#: executing the named cell while its attempt count is below the
#: threshold (default 1: first attempt hangs, retries succeed).
_DIE_ON_INIT_ENV = "REPRO_SWEEP_WORKER_DIE_ON_INIT"
_HANG_CELL_ENV = "REPRO_SWEEP_TEST_HANG_CELL"
_HANG_ATTEMPTS_ENV = "REPRO_SWEEP_TEST_HANG_ATTEMPTS"


class WorkerPoolError(RuntimeError):
    """A sweep worker died outside any cell (start-up / initialization)."""


def _resolved_start_method() -> str:
    """``spawn``, downgraded to ``fork`` when ``spawn`` cannot work.

    ``spawn`` re-imports ``__main__`` from its file path inside every
    worker.  When the parent's ``__main__`` is not a real importable
    file — a heredoc/stdin script, some embedded interpreters — each
    worker would crash during start-up and the pool would respawn
    replacements forever.  Those parents get ``fork`` where the platform
    offers it (the pre-executor behaviour on Linux); real scripts,
    ``python -m repro`` and pytest all keep ``spawn``.
    """

    main_file = getattr(sys.modules.get("__main__"), "__file__", None)
    if main_file is not None and not os.path.exists(main_file):
        if "fork" in multiprocessing.get_all_start_methods():
            return "fork"
    return "spawn"


def _worker_init() -> None:
    """Finish warming a fresh worker process before it reports ready.

    Importing this module (the spawn target) already loaded the sweep
    engine and with it the protocol, the structural baselines, attackers
    and scenario builders; what is left of "everything a cell can touch"
    is the lazily imported streaming analysis and the genesis log.  Under
    ``spawn`` this is the difference between the first dispatched cell
    costing ~an import of the whole package and costing ~a cell.
    """

    import repro.analysis.streaming  # noqa: F401
    from repro.chain.log import Log

    Log.genesis()


def _pool_worker_main(conn) -> None:
    """Worker process main loop: init, handshake, serve chunk tasks.

    Protocol (all over the duplex pipe): the worker sends ``_READY``
    once initialized, then for each received ``(options, items)`` —
    ``options`` being the keyword settings of
    :func:`repro.harness.sweep.run_cell_batch` and ``items`` a list of
    ``(cell_id, cell_dict, attempt, kill)`` — it executes the cells in
    order and replies ``(cell_ids, lines, stats)`` in one message, where
    ``stats`` carries the chunk's prebuild/snapshot counter deltas.  The
    reply names its cells, so the parent needs no in-flight bookkeeping
    and a reply to a dispatch it has abandoned is just a late result.

    A chunk's lines ship together, so a death anywhere in it loses all
    of it; the chaos and hang hooks therefore fire before the chunk
    starts.  A ``kill`` item SIGKILLs the process (chaos mode: the
    parent decides, the worker obeys, determinism lives with the
    :class:`~repro.faults.ChaosPlan`).  ``None`` or a closed pipe shuts
    the worker down.
    """

    die = os.environ.get(_DIE_ON_INIT_ENV)
    if die:
        os._exit(int(die))
    _worker_init()
    try:
        conn.send(_READY)
    except (BrokenPipeError, OSError):
        return
    hang_cell = os.environ.get(_HANG_CELL_ENV)
    hang_attempts = int(os.environ.get(_HANG_ATTEMPTS_ENV, "1"))
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        options, items = task
        for cell_id, _, attempt, kill in items:
            if kill:
                os.kill(os.getpid(), signal.SIGKILL)
            if cell_id == hang_cell and attempt < hang_attempts:
                time.sleep(3600)
        stats = empty_cache_counters()
        lines = list(
            run_cell_batch([item[1] for item in items], cache=stats, **options)
        )
        try:
            conn.send(([item[0] for item in items], lines, stats))
        except (BrokenPipeError, OSError):
            return


def adaptive_chunksize(todo: int, workers: int) -> int:
    """Chunk size balancing IPC amortization against load balance.

    Aim for ~4 chunks per worker (stragglers get rebalanced), capped at
    16 (bound worst-case loss when a chunk lands on a slow worker) and
    floored at 1.
    """

    if todo <= 0 or workers <= 0:
        return 1
    return max(1, min(16, todo // (workers * 4) or 1))


class _Worker:
    """Parent-side handle for one supervised worker process."""

    __slots__ = ("proc", "conn", "ready")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.ready = False


class SweepExecutor:
    """A reusable, context-managed, self-healing worker pool.

    Usage::

        with SweepExecutor(workers=4, retries=2, cell_timeout=30.0) as executor:
            executor.warmup()                      # optional: pay start-up now
            run_sweep(spec_a, store=a, executor=executor)
            run_sweep(spec_b, store=b, executor=executor)  # warm pool reused

    The pool is created lazily on first use, so constructing an executor
    is free.  ``close()`` (or leaving the ``with`` block) terminates the
    workers; a closed executor refuses further dispatch.

    ``retries`` bounds how many times a failed cell (worker death or
    timeout) is re-executed before it is quarantined as a ``status:
    "failed"`` record; retried cells are dispatched solo so one poisoned
    cell cannot burn its chunk-mates' attempts.  ``cell_timeout``
    (seconds) is a per-cell budget — a chunk of ``k`` cells gets ``k *
    cell_timeout`` before its worker is killed and the cells retried.
    ``chaos`` installs a :class:`repro.faults.ChaosPlan` that SIGKILLs
    workers handed selected cells' first attempts.
    """

    def __init__(
        self,
        workers: int = 2,
        chunksize: int = 0,
        retries: int = 0,
        cell_timeout: float | None = None,
        retry_backoff_base: float = 0.05,
        chaos: ChaosPlan | None = None,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if chunksize < 0:
            raise ValueError("chunksize must be >= 0 (0 = adaptive)")
        if retries < 0:
            raise ValueError("retries must be >= 0")
        if cell_timeout is not None and cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (None = no timeout)")
        self.workers = workers
        self.chunksize = chunksize
        self.retries = retries
        self.cell_timeout = cell_timeout
        self.chaos = chaos
        self._backoff_base = retry_backoff_base
        self._ctx = None
        self._workers: list[_Worker] | None = None
        self._closed = False
        self._init_deaths = 0
        self.sweeps_dispatched = 0
        self.cells_dispatched = 0
        self.retries_attempted = 0
        self.cells_quarantined = 0
        self.workers_respawned = 0
        self.pipe_close_errors = 0

    # -- lifecycle -----------------------------------------------------------

    def _ensure_pool(self) -> list[_Worker]:
        if self._closed:
            raise RuntimeError("executor is closed")
        if self._workers is None:
            self._ctx = multiprocessing.get_context(_resolved_start_method())
            self._workers = [self._spawn_worker() for _ in range(self.workers)]
        return self._workers

    def _spawn_worker(self) -> _Worker:
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        proc = self._ctx.Process(
            target=_pool_worker_main, args=(child_conn,), daemon=True
        )
        proc.start()
        child_conn.close()  # the parent's copy; EOF detection needs it gone
        return _Worker(proc, parent_conn)

    def _discard_worker(self, worker: _Worker) -> None:
        try:
            worker.conn.close()
        except OSError:
            self.pipe_close_errors += 1
        if worker.proc.is_alive():
            worker.proc.kill()

    def _replace_worker(self, index: int) -> None:
        worker = self._workers[index]
        self._discard_worker(worker)
        worker.proc.join()
        self.workers_respawned += 1
        self._workers[index] = self._spawn_worker()

    @property
    def started(self) -> bool:
        """Whether the worker pool has been created yet."""

        return self._workers is not None

    def warmup(self) -> None:
        """Start the pool now and wait until every worker is serving.

        Blocks until all workers have completed their initializer and
        sent the ready handshake.  A worker that dies on the way up —
        the ``multiprocessing.Pool`` version of this engine silently
        respawned such workers forever, hanging the caller — raises
        :class:`WorkerPoolError` carrying the dead worker's exit code.
        Calling this before a timed sweep moves pool start-up out of the
        measurement — the ``--warm`` CLI flag and the cells/sec
        benchmarks rely on it.
        """

        workers = self._ensure_pool()
        deadline = time.monotonic() + _WARMUP_TIMEOUT

        def died(worker: _Worker) -> WorkerPoolError:
            worker.proc.join()
            return WorkerPoolError(
                f"sweep worker (pid {worker.proc.pid}) died during "
                f"warmup with exit code {worker.proc.exitcode}"
            )

        for worker in workers:
            while not worker.ready:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise WorkerPoolError(
                        f"sweep worker (pid {worker.proc.pid}) failed to "
                        f"initialize within {_WARMUP_TIMEOUT:.0f}s"
                    )
                if worker.conn.poll(min(remaining, _POLL_INTERVAL)):
                    try:
                        message = worker.conn.recv()
                    except (EOFError, OSError):
                        # A dead peer's pipe stays readable (EOF), so the
                        # recv failure *is* the death signal here.
                        raise died(worker) from None
                    if message == _READY:
                        worker.ready = True
                elif not worker.proc.is_alive():
                    raise died(worker)

    def close(self) -> None:
        """Terminate the workers.  Idempotent."""

        if self._workers is not None:
            for worker in self._workers:
                self._discard_worker(worker)
            for worker in self._workers:
                worker.proc.join()
            self._workers = None
        self._closed = True

    def __enter__(self) -> "SweepExecutor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- dispatch ------------------------------------------------------------

    def map_cells(
        self,
        cells,
        trace_mode: str = "bounded",
        chunksize: int | None = None,
        snapshot_dir: str | None = None,
        warmup_views: int | None = None,
        cache: dict | None = None,
    ):
        """Execute ``cells`` on the pool; yield canonical JSONL lines.

        Lines arrive in completion order, one per cell, each exactly as
        the worker serialized it — except quarantine records (cells that
        exhausted their retries), which the parent serializes with the
        same canonical encoder.  ``chunksize`` overrides the executor
        default for this dispatch; ``0`` (or an executor constructed
        with 0) picks :func:`adaptive_chunksize`.  ``snapshot_dir``
        turns on the worker-side snapshot tier (see
        :func:`repro.harness.sweep.run_cell`); ``warmup_views`` forces a
        snapshot boundary for fault-free cells.  The prebuild/snapshot
        counter deltas every worker reply carries are added into
        ``cache`` (shaped like
        :func:`repro.harness.sweep.empty_cache_counters`).
        """

        cells = list(cells)
        if not cells:
            return iter(())
        self._ensure_pool()
        effective = chunksize if chunksize is not None else self.chunksize
        if effective == 0:
            effective = adaptive_chunksize(len(cells), self.workers)
        self.sweeps_dispatched += 1
        self.cells_dispatched += len(cells)
        table = LeaseTable(
            ttl=self.cell_timeout if self.cell_timeout is not None else math.inf,
            ttl_per_cell=True,
            retries=self.retries,
            backoff_base=self._backoff_base,
        )
        table.add_cells(cells)
        options = {
            "trace_mode": trace_mode,
            "snapshot_dir": snapshot_dir,
            "warmup_views": warmup_views,
        }
        return self._supervise(table, options, effective, cache)

    # -- supervision ---------------------------------------------------------

    def _supervise(
        self, table: LeaseTable, options: dict, chunksize: int, cache: dict | None
    ):
        """The pipe event loop: report events to ``table``, act on its answers.

        Workers are the table's runners, named by pool slot.  A worker
        holding no lease is idle; a reply commits its cells first-write-
        wins, so a reply to an earlier, abandoned dispatch is dropped (or
        harmlessly commits the same bytes) without any staleness check.
        """

        out: list[str] = []

        def handle(index: int, message) -> None:
            """Apply one worker message: ready handshake or chunk result."""

            if message == _READY:
                self._workers[index].ready = True
                self._init_deaths = 0
                return
            cell_ids, lines, stats = message
            if cache is not None:
                add_cache_counters(cache, stats)
            for cell_id, line in zip(cell_ids, lines):
                if table.complete(cell_id, str(index)) == "committed":
                    out.append(line)

        def drain(index: int) -> None:
            """Process any complete messages still buffered on a dead pipe."""

            conn = self._workers[index].conn
            while True:
                try:
                    if not conn.poll():
                        return
                    message = conn.recv()
                except (EOFError, OSError):
                    return
                handle(index, message)

        while not table.all_terminal:
            now = time.monotonic()
            ended = []  # leases whose attempt just failed

            # Dead workers.  The pipe is drained first so a result that
            # raced ahead of the death is honoured rather than re-executed.
            for index, worker in enumerate(self._workers):
                if worker.proc.is_alive():
                    continue
                drain(index)
                held = table.runner_dead(
                    str(index),
                    now,
                    error=f"worker died (exit code {worker.proc.exitcode})",
                )
                if not held and not worker.ready:
                    # Death before the ready handshake means worker
                    # initialization itself is broken; tolerate a bounded
                    # number, then give up loudly instead of respawning
                    # forever (the silent-hang bug).
                    self._init_deaths += 1
                    if self._init_deaths >= _MAX_INIT_DEATHS:
                        raise WorkerPoolError(
                            f"sweep workers keep dying during start-up "
                            f"(last exit code {worker.proc.exitcode}); "
                            f"giving up after {self._init_deaths} attempts"
                        )
                ended += held
                self._replace_worker(index)

            # Silent workers: kill the holder of every expired lease.  The
            # drain after the kill lets a result that raced the deadline
            # still commit (first write wins, even over a failed cell).
            expired = table.expire(
                now, error=f"cell timeout after {table.ttl:.1f}s"
            )
            for index in sorted({int(lease.runner_id) for lease in expired}):
                worker = self._workers[index]
                worker.proc.kill()
                worker.proc.join()
                drain(index)
                self._replace_worker(index)
            ended += expired

            for lease in ended:
                error = table.failed.get(lease.cell_id)
                if error is None:
                    self.retries_attempted += 1
                    continue
                self.cells_quarantined += 1
                cell = Cell.from_dict(table.items[lease.cell_id])
                out.append(
                    canonical_record(quarantine_record(cell, error, lease.attempts))
                )

            # Lease work to idle, ready workers.
            chaos = self.chaos
            for index, worker in enumerate(self._workers):
                runner = str(index)
                if not worker.ready or table.leases_of(runner):
                    continue
                if not table.grant(runner, now, chunksize):
                    break  # everything left is leased or backing off
                items = []
                for lease in table.leases_of(runner):
                    attempt = lease.attempts - 1
                    kill = chaos is not None and chaos.kills(lease.cell_id, attempt)
                    items.append(
                        (lease.cell_id, table.items[lease.cell_id], attempt, kill)
                    )
                try:
                    worker.conn.send((options, items))
                except (BrokenPipeError, OSError):
                    # Unreachable is dead: the next iteration reaps it
                    # and the table re-dispatches what it was just leased.
                    worker.proc.kill()

            # Collect results (and ready handshakes).
            by_conn = {
                worker.conn: index for index, worker in enumerate(self._workers)
            }
            for conn in connection.wait(list(by_conn), timeout=_POLL_INTERVAL):
                try:
                    message = conn.recv()
                except (EOFError, OSError):
                    continue  # death is reaped on the next iteration
                handle(by_conn[conn], message)

            yield from out
            out.clear()
