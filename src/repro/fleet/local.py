"""Single-command fleet driver: coordinator in-process, runners spawned.

``run_fleet_local`` is the glue behind ``repro fleet local``: it hosts a
:class:`~repro.fleet.coordinator.FleetCoordinator` on a localhost socket
with an OS-assigned port, spawns ``runners`` runner *processes* (real
OS processes — they can be SIGKILLed, which is the whole point of the
chaos suite), waits for convergence, and returns a
:class:`FleetSummary`.

A start barrier (``hold_until_runners``) keeps the first grant until
every runner has registered, so the coordinator's steady-state clock
measures the fabric rather than interpreter start-up, and tests get a
deterministic co-start.

Liveness is watched from here, not the coordinator: if every runner
process exits while cells remain uncommitted, or ``timeout`` passes,
the driver raises :class:`FleetError` instead of blocking forever —
partial results are already durable in the store, so a resumed run
picks up exactly where the fleet died.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass, field

from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator
from repro.harness.executor import _resolved_start_method
from repro.harness.sweep import ResultStore


class FleetError(RuntimeError):
    """The local fleet cannot converge (all runners dead, or timeout)."""


@dataclass
class FleetSummary:
    """What a local fleet run produced, beyond the store contents."""

    cells_total: int
    cells_committed: int
    counters: dict = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        return self.cells_committed == self.cells_total


def _runner_proc_main(
    host: str,
    port: int,
    runner_id: str,
    snapshot_dir: str | None = None,
    warmup_views: int | None = None,
) -> None:
    """Entry point of one spawned runner process."""

    from repro.fleet.runner import FleetRunner

    FleetRunner(
        host=host,
        port=port,
        runner_id=runner_id,
        snapshot_dir=snapshot_dir,
        warmup_views=warmup_views,
    ).run()


def run_fleet_local(
    cells,
    store: ResultStore | None = None,
    runners: int = 2,
    lease_ttl: float = 5.0,
    batch_size: int = 8,
    trace_mode: str = "bounded",
    on_commit=None,
    timeout: float | None = None,
    snapshot_dir: str | None = None,
    warmup_views: int | None = None,
) -> FleetSummary:
    """Run ``cells`` to completion on a localhost fleet.

    ``cells`` must already be filtered for resume (see
    :func:`repro.harness.sweep.pending_cells`).  ``runners`` is the
    number of runner processes.  Committed lines land in ``store``
    (first-write-wins) and feed ``on_commit`` as they arrive.

    ``snapshot_dir`` gives every runner the same local snapshot store
    (on one host they share the directory; a real multi-host deployment
    would point each runner at its own disk): runners advertise their
    cached snapshot ids at register, the coordinator prefers leasing
    cells whose warm-up those ids cover, and eligible cells fork instead
    of replaying from genesis.  ``warmup_views`` as in
    :func:`repro.harness.sweep.run_cell`.
    """

    if runners < 1:
        raise ValueError("runners must be >= 1")
    cells = list(cells)
    config = CoordinatorConfig(
        lease_ttl=lease_ttl,
        batch_size=batch_size,
        trace_mode=trace_mode,
        hold_until_runners=runners,
    )
    coordinator = FleetCoordinator(
        cells, store=store, config=config, on_commit=on_commit
    )
    host, port = coordinator.start()
    ctx = multiprocessing.get_context(_resolved_start_method())
    procs = [
        ctx.Process(
            target=_runner_proc_main,
            args=(
                host, port, f"local-runner-{index}", snapshot_dir, warmup_views,
            ),
            daemon=True,
        )
        for index in range(runners)
    ]
    deadline = None if timeout is None else time.monotonic() + timeout
    try:
        for proc in procs:
            proc.start()
        while not coordinator.wait(timeout=0.1):
            if all(not proc.is_alive() for proc in procs):
                raise FleetError(
                    f"all {runners} runners exited with "
                    f"{len(cells) - coordinator.table.committed_count} cells "
                    f"uncommitted (exit codes "
                    f"{[proc.exitcode for proc in procs]}); the store holds "
                    f"the committed prefix — resume to continue"
                )
            if deadline is not None and time.monotonic() >= deadline:
                raise FleetError(
                    f"fleet did not converge within {timeout:.1f}s "
                    f"({coordinator.table.committed_count}/{len(cells)} "
                    f"cells committed)"
                )
        for proc in procs:
            proc.join(timeout=10.0)
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.kill()
                proc.join()
        coordinator.close()
    counters = coordinator.counters()
    return FleetSummary(
        cells_total=len(cells),
        cells_committed=counters["cells_committed"],
        counters=counters,
    )
