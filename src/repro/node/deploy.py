"""Deployments: wiring node runtimes together, with the sim as oracle.

A deployment is a *world builder*: a scenario builder with its
parameters bound, called as ``build(hosted=ids)`` for a
:class:`~repro.core.world.World` that hosts ``ids``.  Each node runtime
runs ``build(hosted={node_id})`` and the oracle runs ``build(hosted=None)``
— every id — so the two cannot drift apart.  :func:`stable_builder` is
the default, the stable family of a config and crash plan; any builder
taking ``hosted`` deploys (churn, late-join, bursty, the structural
baselines).

Three entry points:

* :func:`oracle_decisions` — run the all-hosted world and extract each
  validator's decision records.  This is the byte-comparison baseline.
* :func:`run_memory_cluster` — ``n`` runtimes over one
  :class:`~repro.net.transport.MemoryHub`, driven round-robin in one
  process.  Single-threaded and fully deterministic: the fast
  equivalence tests and the loopback benchmark live here.
* :func:`run_local_deployment` — ``n`` OS processes over loopback TCP
  (:class:`~repro.net.transport.TcpTransport`), one per node, monitored
  by the parent.  Supports real process chaos: in ``chaos="kill"`` mode a
  node with crash windows SIGKILLs itself at the start of its earliest
  one and the parent respawns it with ``resumed=True`` (resync + replay,
  see :mod:`repro.node.runtime`).

A fault plan with message faults is refused
(:class:`~repro.node.runtime.UndeployablePlanError`) before anything runs.

Decision sequences are compared as canonical JSON bytes — the same
encoding the result store and the wire use — so "byte-identical to the
simulator" is literal.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import signal
import socket
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

from repro.core.tobsvd import TobSvdConfig
from repro.core.world import World
from repro.faults import FaultPlan, FaultSpec
from repro.harness.scenarios import stable_scenario
from repro.net.transport import MemoryHub, TcpTransport
from repro.node.failure import FailureDetector
from repro.node.runtime import NodeRuntime, decisions_as_records, require_deployable

#: ``build(hosted=ids)`` -> a world hosting ``ids`` (None: every id).
WorldBuilder = Callable[..., World]

#: Parent-side ceiling on one deployment; generous (CI runners are slow)
#: but finite, so a wedged fleet fails loudly instead of hanging the job.
DEPLOY_TIMEOUT = 300.0


def canonical_decision_bytes(records: list[dict]) -> bytes:
    """Decision records as canonical JSON — the byte-identity unit."""

    return json.dumps(records, sort_keys=True, separators=(",", ":")).encode("utf-8")


def stable_builder(config: TobSvdConfig, fault_plan: FaultPlan | None = None) -> WorldBuilder:
    """The stable family of ``config`` under ``fault_plan``, as a world builder."""

    return partial(
        stable_scenario,
        n=config.n,
        num_views=config.num_views,
        delta=config.delta,
        seed=config.seed,
        trace_mode="off",
        fault_plan=fault_plan,
    )


def oracle_decisions(build: WorldBuilder) -> dict[int, list[dict]]:
    """Per-validator decision records of the all-hosted world."""

    world = build(hosted=None)
    world.run()
    return {
        vid: decisions_as_records(validator.decided)
        for vid, validator in world.validators.items()
    }


def compare_to_oracle(
    config: TobSvdConfig,
    node_results: dict[int, dict],
    fault_plan: FaultPlan | None = None,
    *,
    build: WorldBuilder | None = None,
) -> dict:
    """Byte-compare deployment decisions against the sim oracle.

    ``build`` is the deployment's builder (default: the stable family of
    ``config`` under ``fault_plan``).
    """

    oracle = oracle_decisions(build or stable_builder(config, fault_plan))
    per_node = {
        vid: canonical_decision_bytes(node_results[vid]["decided"])
        == canonical_decision_bytes(oracle[vid])
        for vid in sorted(oracle)
        if vid in node_results
    }
    return {
        "identical": bool(per_node) and all(per_node.values()),
        "per_node": per_node,
        "oracle": oracle,
    }


def compile_deployment_plan(
    spec: FaultSpec, config: TobSvdConfig
) -> FaultPlan:
    """Compile a fault spec against a deployment's run dimensions.

    Same dimensions the sim oracle uses, so both sides interpret one
    shared crash schedule.  Raises
    :class:`~repro.node.runtime.UndeployablePlanError` for a spec with
    message faults.
    """

    plan = spec.compile(
        n=config.n,
        delta=config.delta,
        horizon=config.horizon,
        view_ticks=config.time.view_ticks,
    )
    require_deployable(plan)
    return plan


# ---------------------------------------------------------------------------
# In-process cluster (MemoryTransport)


def run_memory_cluster(
    config: TobSvdConfig,
    fault_plan: FaultPlan | None = None,
    *,
    build: WorldBuilder | None = None,
    max_rounds: int = 1_000_000,
) -> dict[int, dict]:
    """Run ``n`` runtimes round-robin over one in-process hub.

    Node ``i`` runs ``build(hosted={i})`` (default: the stable family of
    ``config`` under ``fault_plan``).  Deterministic: no threads, no wall
    clock.  ``max_rounds`` bounds the driver against a (buggy) barrier
    deadlock — with every node in one process there is no legitimate way
    to stall.
    """

    build = build or stable_builder(config, fault_plan)
    hub = MemoryHub(range(config.n))
    runtimes = [
        NodeRuntime(build(hosted=frozenset({vid})), hub.transport(vid))
        for vid in range(config.n)
    ]
    for runtime in runtimes:
        runtime.start()
    for _ in range(max_rounds):
        progressed = False
        for runtime in runtimes:
            if not runtime.finished and runtime.step():
                progressed = True
        if all(runtime.finished for runtime in runtimes):
            return {runtime.node_id: runtime.result() for runtime in runtimes}
        if not progressed:
            stuck = {r.node_id: (r.tick, dict(r.done)) for r in runtimes if not r.finished}
            raise RuntimeError(f"memory cluster deadlocked: {stuck}")
    raise RuntimeError("memory cluster exceeded max_rounds")


# ---------------------------------------------------------------------------
# Loopback TCP deployment (one OS process per node)


def allocate_loopback_ports(n: int) -> dict[int, tuple[str, int]]:
    """Reserve ``n`` distinct loopback ports via bind-to-zero probing."""

    probes = []
    addresses: dict[int, tuple[str, int]] = {}
    try:
        for vid in range(n):
            probe = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
            probe.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            probe.bind(("127.0.0.1", 0))
            probes.append(probe)
            addresses[vid] = ("127.0.0.1", probe.getsockname()[1])
    finally:
        for probe in probes:
            probe.close()
    return addresses


def _node_process_main(
    node_id: int,
    config: TobSvdConfig,
    addresses: dict[int, tuple[str, int]],
    out_dir: str,
    build: WorldBuilder,
    chaos: str,
    resumed: bool,
    suspicion_timeout: float,
    progress_timeout: float,
) -> None:
    """Entry point of one node process; writes its result as JSON."""

    detector = FailureDetector(
        (peer for peer in addresses if peer != node_id), timeout=suspicion_timeout
    )
    transport = TcpTransport(node_id, addresses, on_heard=detector.heard)
    runtime = NodeRuntime(
        build(hosted=frozenset({node_id})),
        transport,
        chaos=chaos,
        resumed=resumed,
        detector=detector,
        progress_timeout=progress_timeout,
    )
    try:
        result = runtime.run()
        # Let peers still at the barrier collect our final done frames
        # (and any resync they asked for) before the listener vanishes.
        transport.flush(timeout=10.0)
        result["link_stats"] = transport.link_stats()
        result["suspicions"] = detector.suspicions
        path = os.path.join(out_dir, f"node-{node_id}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(result, handle, sort_keys=True)
        os.replace(path + ".tmp", path)
        _linger_for_peers(out_dir, config.n, node_id)
    finally:
        transport.close()


def _linger_for_peers(out_dir: str, n: int, node_id: int, timeout: float = 30.0) -> None:
    """Keep the transport alive until every peer has written its result.

    A node that finishes first must keep serving done-frames/resyncs to
    slower peers; exiting early would close sockets peers are still
    reading.  Polling the result directory is the simplest fleet-wide
    completion signal — no extra wire traffic.
    """

    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        written = [
            vid
            for vid in range(n)
            if os.path.exists(os.path.join(out_dir, f"node-{vid}.json"))
        ]
        if len(written) == n:
            return
        time.sleep(0.05)


@dataclass
class DeploymentResult:
    """What one loopback deployment produced."""

    config: TobSvdConfig
    nodes: dict[int, dict]
    elapsed: float
    restarts: dict[int, int] = field(default_factory=dict)

    @property
    def total_decisions(self) -> int:
        return sum(len(result["decided"]) for result in self.nodes.values())

    def decisions_per_sec(self) -> float:
        return self.total_decisions / self.elapsed if self.elapsed > 0 else 0.0


def run_local_deployment(
    config: TobSvdConfig,
    *,
    fault_spec: FaultSpec | None = None,
    build: WorldBuilder | None = None,
    chaos: str = "sleep",
    suspicion_timeout: float = 10.0,
    progress_timeout: float = 120.0,
    deploy_timeout: float = DEPLOY_TIMEOUT,
    out_dir: str | None = None,
) -> DeploymentResult:
    """Run ``config.n`` node processes over loopback TCP to the horizon.

    With ``chaos="kill"`` every fault-plan crash window becomes real
    process chaos: the victim SIGKILLs itself at the kill tick and is
    respawned (``resumed=True``) to resync and re-enter the quorum.  The
    parent only monitors and respawns — all pacing is peer-to-peer.
    ``build`` replaces the default stable family of ``config`` under the
    compiled ``fault_spec``; the processes are forked, so it need not pickle.
    """

    import tempfile

    if out_dir is None:
        scratch = tempfile.TemporaryDirectory(prefix="repro-deploy-")
        out_dir = scratch.name
    else:
        scratch = None
        os.makedirs(out_dir, exist_ok=True)
    plan = compile_deployment_plan(fault_spec, config) if fault_spec else None
    build = build or stable_builder(config, plan)
    kill_schedule = plan.kill_schedule() if (plan and chaos == "kill") else {}
    addresses = allocate_loopback_ports(config.n)
    ctx = multiprocessing.get_context("fork")

    def spawn(vid: int, resumed: bool):
        process = ctx.Process(
            target=_node_process_main,
            args=(
                vid,
                config,
                addresses,
                out_dir,
                build,
                chaos,
                resumed,
                suspicion_timeout,
                progress_timeout,
            ),
            name=f"repro-node-{vid}",
        )
        process.start()
        return process

    started = time.monotonic()
    processes = {vid: spawn(vid, False) for vid in range(config.n)}
    restarts: dict[int, int] = {}
    try:
        deadline = started + deploy_timeout
        while True:
            alive = {vid: p for vid, p in processes.items() if p.is_alive()}
            done = all(
                os.path.exists(os.path.join(out_dir, f"node-{vid}.json"))
                for vid in range(config.n)
            )
            if done:
                break
            if time.monotonic() > deadline:
                raise TimeoutError(
                    f"deployment did not finish within {deploy_timeout}s "
                    f"(alive={sorted(alive)})"
                )
            for vid, process in list(processes.items()):
                if process.is_alive():
                    continue
                code = process.exitcode
                expected_kill = (
                    vid in kill_schedule
                    and restarts.get(vid, 0) == 0
                    and code == -signal.SIGKILL
                )
                if expected_kill:
                    restarts[vid] = restarts.get(vid, 0) + 1
                    processes[vid] = spawn(vid, True)
                elif code not in (0, None) and not os.path.exists(
                    os.path.join(out_dir, f"node-{vid}.json")
                ):
                    raise RuntimeError(
                        f"node {vid} exited with {code} before writing a result"
                    )
            time.sleep(0.02)
        elapsed = time.monotonic() - started
        nodes: dict[int, dict] = {}
        for vid in range(config.n):
            with open(os.path.join(out_dir, f"node-{vid}.json"), encoding="utf-8") as handle:
                nodes[vid] = json.load(handle)
        return DeploymentResult(
            config=config, nodes=nodes, elapsed=elapsed, restarts=restarts
        )
    finally:
        for process in processes.values():
            if process.is_alive():
                process.terminate()
        for process in processes.values():
            process.join(timeout=5.0)
        if scratch is not None:
            scratch.cleanup()
