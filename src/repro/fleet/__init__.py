"""Multi-host sweep fabric: a coordinator/runner fleet over TCP.

PRs 1-6 made one machine fast and fault-tolerant; this package scales a
sweep past one process tree.  The split mirrors SimBricks' symphony
layout (cli / runner / runtime / orchestration):

* :mod:`repro.fleet.coordinator` — the TCP server that owns the sweep:
  it drives the sweep scheduler
  (:class:`repro.harness.lease.LeaseTable`, the same state machine the
  local pool uses — grant / renew / expire / complete with
  first-write-wins commits) from its connection threads and accepts
  results into the append-only
  :class:`~repro.harness.sweep.ResultStore`;
* :mod:`repro.fleet.runner` — the client that registers, leases cell
  batches, executes them in-process through
  :func:`repro.harness.sweep.run_cell_batch`, and streams canonical
  result lines back;
* :mod:`repro.fleet.local` — the single-command driver behind
  ``repro fleet local``: coordinator in-process, runner subprocesses on
  localhost sockets.

Both sides speak the length-prefixed JSON frames of
:mod:`repro.net.framing` (typed errors for oversized / corrupt /
truncated frames, never a hang).  The dependency arrow points one way:
``fleet`` imports ``harness``, never the reverse.

The fabric's contract is the strongest one the substrate allows: cells
are deterministic, hash-addressed and resumable, so the fleet's
aggregate output is **byte-identical** to the serial run — including
after runner death (lease expiry + re-dispatch) and duplicate or late
result delivery (first-write-wins, discards deterministic).
"""

from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator
from repro.fleet.local import FleetError, FleetSummary, run_fleet_local
from repro.fleet.runner import FleetRunner, RunnerStats
from repro.harness.lease import LeaseTable
from repro.net.framing import (
    CorruptFrameError,
    FrameTooLargeError,
    TruncatedStreamError,
    WireError,
    encode_frame,
    read_frame,
)

__all__ = [
    "CoordinatorConfig",
    "FleetCoordinator",
    "LeaseTable",
    "FleetError",
    "FleetSummary",
    "run_fleet_local",
    "FleetRunner",
    "RunnerStats",
    "WireError",
    "FrameTooLargeError",
    "CorruptFrameError",
    "TruncatedStreamError",
    "encode_frame",
    "read_frame",
]
