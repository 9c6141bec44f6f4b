"""The five benchmark workloads.

Every workload is a closed loop with one client: the rig starts the next
iteration when the previous one returns.  Message delay is the
simulator's ``UniformDelay(Δ)`` — every delivery takes exactly Δ ticks —
so host-time numbers are processor time only and simulated-time numbers
are exact.  Inputs are a pure function of ``--seed``.

One iteration is split in two so the timer covers the program and not the
rig: :meth:`iterate` makes the public calls (inside driver spans) and
:meth:`check` turns what came back into an :class:`Outcome` — digests,
constants, simulated statistics and the list of failed operations.

``smoke`` shrinks every size for the test suite; smoke numbers mean
nothing and are never compared with ``expected.json``.
"""

from __future__ import annotations

import hashlib
import os
import statistics
from dataclasses import dataclass, field

from repro.chain.transactions import TransactionPool
from repro.core.tobsvd import PROTOCOL_NAME, TobSvdConfig
from repro.faults import FaultSpec
from repro.harness import (
    ExperimentSpec,
    ResultStore,
    SweepExecutor,
    equivocating_scenario,
    run_sweep,
    stable_scenario,
)
from repro.harness.scenarios import compile_checked_fault_plan
from repro.harness.sweep import canonical_record
from repro.node.deploy import (
    canonical_decision_bytes,
    compare_to_oracle,
    run_memory_cluster,
)
from repro.node.runtime import decisions_as_records
from repro.sleepy.corruption import CorruptionPlan

@dataclass
class Outcome:
    """What one checked iteration reports."""

    attempted: int
    failures: list[str]
    digest: str
    constants: dict[str, int]
    sim_stats: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)

    def identity(self) -> dict:
        """Everything that must repeat exactly from iteration to iteration."""

        return {"digest": self.digest, **self.constants, **self.sim_stats}


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


class Workload:
    """What the worker loop needs; the defaults suit an in-process workload."""

    name: str
    views_per_iter: int
    #: ``None``: the iterations run in this process, so profiling them is
    #: the layer split.  The sweep overrides it (its cells run in a pool).
    run_cells_in_process = None

    def setup(self) -> None:
        """Anything that outlives one iteration (pools, directories)."""

    def finish(self, spans) -> list[str]:
        """Verification after the timed phase; returns failure notes."""

        return []

    def close(self) -> None:
        """Release what :meth:`setup` acquired."""


# ---------------------------------------------------------------------------
# sim-* : one simulated run per iteration
# ---------------------------------------------------------------------------


class SimWorkload(Workload):
    """A single ``TobSvdProtocol`` run under bounded retention."""

    n: int
    num_views: int
    delta = 2
    trace_mode = "bounded"

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.views_per_iter = self.num_views

    def scenario(self, pool: TransactionPool, trace_mode: str):
        """Everyone honest and always awake, unless a subclass says otherwise."""

        return stable_scenario(
            n=self.n, delta=self.delta, num_views=self.num_views, seed=self.seed,
            pool=pool, trace_mode=trace_mode,
        )

    def build(self, trace_mode: str | None = None):
        """A ready protocol plus its anchored transactions.

        One transaction is submitted one tick before each of views
        ``1 .. num_views - 4`` (at least view 1), so every submission has
        room to confirm inside the run.
        """

        pool = TransactionPool()
        protocol = self.scenario(pool, trace_mode or self.trace_mode)
        view_ticks = protocol.config.time.view_ticks
        txs = [
            pool.submit(payload=f"rig-{self.seed}-{view}", at_time=view * view_ticks - 1)
            for view in range(1, max(1, self.num_views - 4) + 1)
        ]
        return protocol, txs

    def iterate(self, spans):
        with spans.span("harness.build"):
            protocol, txs = self.build()
        with spans.span("core.start"):
            protocol.start()
        with spans.span("sim.advance"):
            protocol.advance(protocol.config.horizon)
        result = protocol.finish()
        with spans.span("analysis.metrics"):
            analysis = result.analysis
            confirm = analysis.confirmation_times_deltas(txs, self.delta)
            measured = {
                "confirm": confirm,
                "phases": analysis.voting_phases_per_block(PROTOCOL_NAME),
                "blocks": analysis.new_blocks,
                "weighted": result.network.stats.weighted_deliveries,
                "safe": result.all_decisions_compatible(),
            }
        return result, txs, measured

    def check(self, raw) -> Outcome:
        result, txs, measured = raw
        failures = []
        if not measured["safe"]:
            failures.append("all_decisions_compatible() is false")
        confirm = measured["confirm"]
        if not confirm or not measured["blocks"]:
            failures.append("no transaction confirmed")
        records = {
            str(vid): decisions_as_records(validator.decided)
            for vid, validator in sorted(result.validators.items())
        }
        stats = result.network.stats
        views = self.num_views
        return Outcome(
            attempted=1,
            failures=failures,
            digest=_sha256(canonical_decision_bytes(records)),
            constants={
                "views": views,
                "decisions": result.analysis.decision_count,
                "events": result.simulator.events_processed,
                "confirmed": len(confirm),
                "submitted": len(txs),
            },
            sim_stats={
                "analysis.confirm_deltas_p50": statistics.median(confirm) if confirm else 0.0,
                "analysis.confirm_deltas_max": max(confirm) if confirm else 0.0,
                "analysis.phases_per_block": measured["phases"] or 0.0,
                "net.weighted_deliveries_per_block": (
                    measured["weighted"] / measured["blocks"] if measured["blocks"] else 0.0
                ),
            },
            counts={
                "sim.events_per_view": result.simulator.events_processed / views,
                "net.sends_per_view": stats.sends / views,
                "net.deliveries_per_view": stats.deliveries / views,
                "analysis.state_entries": result.analysis.state_entries(),
            },
        )


class SimLong(SimWorkload):
    """Long horizon at small n: chain length and heap growth matter here only."""

    name = "sim-long-n8"
    n = 8

    def __init__(self, seed, smoke, workdir):
        self.num_views = 24 if smoke else 512
        super().__init__(seed, smoke, workdir)


class SimWide(SimWorkload):
    """Few views at large n: fan-out bound, the shared-fanout fast path."""

    name = "sim-wide-n64"
    num_views = 4

    def __init__(self, seed, smoke, workdir):
        self.n = 16 if smoke else 64
        super().__init__(seed, smoke, workdir)


class SimAdverse(SimWorkload):
    """Equivocating proposers plus crashes, drops, duplicates and delay spikes.

    The same ``net`` layer the other way round: per-recipient fault hooks
    instead of the shared-fanout fast path, plus ``adversary``,
    crash/recover and sleep buffers.
    """

    name = "sim-adverse-n16"
    n = 16
    f = 5

    def __init__(self, seed, smoke, workdir):
        self.num_views = 12 if smoke else 32
        self.crash_view = 4 if smoke else 8
        super().__init__(seed, smoke, workdir)
        self.config = TobSvdConfig(
            n=self.n, num_views=self.num_views, delta=self.delta, seed=seed
        )
        self.corruption = CorruptionPlan.static(frozenset(range(self.n - self.f, self.n)))
        self.fault_spec = FaultSpec(
            seed=seed, crash_count=2, crash_view=self.crash_view, crash_deltas=8,
            drop_rate=0.05, duplicate_rate=0.02, delay_spike_rate=0.05,
        )

    def fault_plan(self):
        """The compliance-checked plan (raises when it leaves the sleepy model)."""

        return compile_checked_fault_plan(
            self.fault_spec, self.config, self.corruption, None, self.name
        )

    def scenario(self, pool, trace_mode):
        return equivocating_scenario(
            n=self.n, f=self.f, delta=self.delta, num_views=self.num_views,
            seed=self.seed, pool=pool, trace_mode=trace_mode,
            fault_plan=self.fault_plan(),
        )


# ---------------------------------------------------------------------------
# sweep-grid-w2 : a grid of small cells through a warm two-worker pool
# ---------------------------------------------------------------------------


class SweepGrid(Workload):
    """192 small cells through ``SweepExecutor(workers=2)`` into a JSONL store.

    Cells are a few milliseconds each, so dispatch, IPC, canonical
    serialisation, prebuild and the store are visible next to the
    simulation.  Each iteration writes a fresh store and then resumes
    over it (reads beside writes).  Two workers plus a mostly-blocked
    parent is the most a 2-core machine can carry.
    """

    name = "sweep-grid-w2"
    workers = 2

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.workdir = workdir
        self.spec = ExperimentSpec(
            name=f"rig-grid-s{seed}",
            protocols=(PROTOCOL_NAME, "mr"),
            ns=(4, 6),
            fs=(0, 1),
            deltas=(1, 2),
            participations=("stable", "late-join"),
            seeds=1 if smoke else 8,
            num_views=4,
            txs_per_cell=2,
        )
        self.cells = self.spec.expand()
        self.views_per_iter = len(self.cells) * self.spec.num_views
        self.executor: SweepExecutor | None = None
        self._stores = 0
        self.last_lines: list[str] = []

    def setup(self) -> None:
        os.makedirs(self.workdir, exist_ok=True)
        self.executor = SweepExecutor(workers=self.workers)
        self.executor.warmup()

    def iterate(self, spans):
        with spans.span("harness.expand"):
            cells = self.spec.expand()
        self._stores += 1
        path = os.path.join(self.workdir, f"store-{self._stores}.jsonl")
        with spans.span("harness.run_sweep"):
            first = run_sweep(self.spec, store=ResultStore(path), executor=self.executor)
        with spans.span("harness.resume"):
            again = run_sweep(self.spec, store=ResultStore(path), executor=self.executor)
        return cells, first, again, path

    def check(self, raw) -> Outcome:
        cells, first, again, path = raw
        os.unlink(path)
        failures = [
            f"cell {record['cell_id']}: status {record['status']} ({record['error']})"
            for record in first.records
            if record["status"] != "ok"
        ]
        if len(first.records) != len(cells):
            failures.append(f"{len(cells) - len(first.records)} cells have no record")
        if again.executed:
            failures.append(f"resume pass executed {again.executed} cells, expected 0")
        self.last_lines = sorted(canonical_record(r) for r in first.records)
        prebuild = (first.cache or {}).get("prebuild", {})
        lookups = prebuild.get("hits", 0) + prebuild.get("misses", 0)
        return Outcome(
            attempted=len(cells),
            failures=failures,
            digest=_sha256("\n".join(self.last_lines).encode()),
            constants={
                "views": self.views_per_iter,
                "cells": len(cells),
                "decisions": sum(r["metrics"].get("blocks", 0) for r in first.records),
            },
            counts={
                "harness.cells_executed": first.executed,
                "harness.cells_resumed": again.skipped,
                "harness.prebuild_hit_ratio": (
                    prebuild.get("hits", 0) / lookups if lookups else 0.0
                ),
            },
        )

    def finish(self, spans) -> list[str]:
        """Serial in-process reference: the pool's record set must equal it."""

        with spans.span("harness.serial"):
            reference = run_sweep(self.spec)
        lines = sorted(canonical_record(r) for r in reference.records)
        if lines == self.last_lines:
            return []
        for want, got in zip(lines, self.last_lines):
            if want != got:
                return [f"pool record differs from serial run_sweep: {got[:120]}"]
        return [f"pool wrote {len(self.last_lines)} records, serial {len(lines)}"]

    def run_cells_in_process(self) -> None:
        """The same grid, serially, here: what the traced run profiles."""

        run_sweep(self.spec)

    def close(self) -> None:
        if self.executor is not None:
            self.executor.close()
            self.executor = None


# ---------------------------------------------------------------------------
# node-mem-n4 : the node runtime in one process
# ---------------------------------------------------------------------------


class NodeMem(Workload):
    """Four node runtimes over one ``MemoryHub``, compared to the sim oracle.

    Codec, holdback, lockstep barrier and transport hub without OS
    processes or sockets, so the number is the runtime's own cost.
    """

    name = "node-mem-n4"
    n = 4

    def __init__(self, seed: int, smoke: bool, workdir: str) -> None:
        self.seed = seed
        self.smoke = smoke
        self.config = TobSvdConfig(
            n=self.n, num_views=4 if smoke else 32, delta=1, seed=seed
        )
        self.views_per_iter = self.config.num_views

    def iterate(self, spans):
        with spans.span("node.cluster"):
            results = run_memory_cluster(self.config)
        with spans.span("node.oracle"):
            comparison = compare_to_oracle(self.config, results)
        return results, comparison

    def check(self, raw) -> Outcome:
        results, comparison = raw
        failures = [
            f"node {vid}: decisions differ from the sim oracle"
            for vid in range(self.n)
            if not comparison["per_node"].get(vid, False)
        ]
        records = {str(vid): results[vid]["decided"] for vid in sorted(results)}
        views = self.config.num_views
        return Outcome(
            attempted=self.n,
            failures=failures,
            digest=_sha256(canonical_decision_bytes(records)),
            constants={
                "views": views,
                "decisions": sum(len(r["decided"]) for r in results.values()),
            },
            counts={
                "node.sends_per_view": sum(r["sends"] for r in results.values()) / views,
                "node.holdback_duplicates": sum(
                    r["holdback_duplicates"] for r in results.values()
                ),
                "node.codec_rejects": sum(r["codec_rejects"] for r in results.values()),
            },
        )


WORKLOADS = {
    cls.name: cls for cls in (SimLong, SimWide, SimAdverse, SweepGrid, NodeMem)
}
