"""The benchmark's declared metrics: one table, read by everything.

``BENCHMARK.json`` may carry only ``name``/``unit``/``better`` (plus
``bound`` end to end), so what else the rig needs to know about a metric
lives here: on which workloads it is defined, and — for per-layer
metrics — which end-to-end metric on which workload it should move
(``moves``), written down before anything was measured.  ``test_rig.py``
checks that ``BENCHMARK.json`` and this table agree.
"""

from __future__ import annotations

from dataclasses import dataclass

from riglayers import LAYERS

SIM = ("sim-long-n8", "sim-wide-n64", "sim-adverse-n16")
LONG, WIDE, ADVERSE = SIM
SWEEP = "sweep-grid-w2"
NODE = "node-mem-n4"
WORKLOADS = {
    LONG: "512 views at n=8: the only workload where chain length and heap growth matter",
    WIDE: "4 views at n=64: fan-out bound, the shared-fanout fast path; a chain change moves nothing here",
    ADVERSE: "equivocators, crashes, drops, duplicates and spikes at n=16: the per-recipient fault-hook path",
    SWEEP: "192 cells of ~6 ms through a warm 2-worker pool and a JSONL store: dispatch, IPC, store visible",
    NODE: "4 node runtimes over an in-process hub vs the sim oracle: codec, holdback, barrier; crypto-heavy",
}
ALL = tuple(WORKLOADS)

RUN_SECONDS = 15
#: Fresh subprocesses per run; each sets up, so ``setup_s`` is a median of this many.
SEGMENTS = 3


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class PerLayer:
    name: str
    unit: str
    better: str
    defined_on: tuple[str, ...]
    moves: str  # the end-to-end metric this should move …
    on: tuple[str, ...]  # … and the workloads on which it should


END_TO_END = (
    # simulated views per host second, from the median iteration time
    EndToEnd("views_per_s", "1/s", "higher", 0.10),
    # ru_maxrss of the workload's subprocess (and waited pool workers) after the timed phase
    EndToEnd("peak_rss_mib", "MiB", "lower", 0.08),
    # interpreter start to first timed iteration: imports, inputs, pool spawn, one warm-up iteration
    EndToEnd("setup_s", "s", "lower", 0.25),
)

#: Which end-to-end metric each layer's in-situ time should move, and where
#: (the interaction table of the README).  ``snapshot`` is declared unobserved:
#: no workload forks, so its in-situ time is 0 and moves nothing here.
_LAYER_MOVES = {
    "crypto": (NODE, LONG),
    "chain": (LONG,),
    "core": (LONG, WIDE),
    "sleepy": (ADVERSE,),
    "sim": (LONG, SWEEP),
    "net": (WIDE, ADVERSE),
    "faults": (ADVERSE,),
    "adversary": (ADVERSE,),
    "baselines": (SWEEP,),
    "harness": (SWEEP,),
    "node": (NODE,),
    "analysis": ALL,
    "tracebus": ALL,
    "runctx": (LONG, WIDE),
    "snapshot": (),
}


def _per_layer() -> tuple[PerLayer, ...]:
    rows: list[PerLayer] = []

    def add(name, unit, better, defined_on, moves="views_per_s", on=None):
        defined_on = (defined_on,) if isinstance(defined_on, str) else tuple(defined_on)
        rows.append(PerLayer(name, unit, better, defined_on, moves,
                             defined_on if on is None else tuple(on)))

    # 1. in-situ attribution (traced run)
    for layer in LAYERS:
        add(f"{layer}.self_ms_per_view", "ms/view", "lower", ALL, on=_LAYER_MOVES[layer])
        add(f"{layer}.calls_per_view", "1/view", "lower", ALL, on=_LAYER_MOVES[layer])
    add("rig.trace_overhead_ratio", "ratio", "lower", ALL, on=())
    add("rig.trace_coverage", "ratio", "higher", ALL, on=())
    # 2. driver spans
    add("span.harness.build_ms", "ms", "lower", SIM)
    add("span.core.start_ms", "ms", "lower", SIM)
    add("span.sim.advance_ms", "ms", "lower", SIM)
    add("span.analysis.metrics_ms", "ms", "lower", SIM)
    add("span.harness.expand_ms", "ms", "lower", SWEEP)
    add("span.harness.run_sweep_ms", "ms", "lower", SWEEP)
    add("span.harness.resume_ms", "ms", "lower", SWEEP)
    add("span.harness.serial_ms", "ms", "lower", SWEEP, on=())
    add("harness.parallel_efficiency", "ratio", "higher", SWEEP)
    add("span.node.cluster_ms", "ms", "lower", NODE)
    add("span.node.oracle_ms", "ms", "lower", NODE)
    # 3. counts from public result fields
    add("sim.events_per_view", "1/view", "lower", SIM, on=(LONG, SWEEP))
    add("net.sends_per_view", "1/view", "lower", SIM, on=(WIDE, ADVERSE))
    add("net.deliveries_per_view", "1/view", "lower", SIM, on=(WIDE, ADVERSE))
    add("analysis.state_entries", "count", "lower", SIM, moves="peak_rss_mib", on=(LONG,))
    add("node.sends_per_view", "1/view", "lower", NODE)
    add("node.holdback_duplicates", "count", "lower", NODE)
    add("node.codec_rejects", "count", "lower", NODE)
    add("harness.cells_executed", "count", "higher", SWEEP)
    add("harness.cells_resumed", "count", "higher", SWEEP)
    add("harness.prebuild_hit_ratio", "ratio", "higher", SWEEP)
    # exact simulated statistics (the paper's claims); a simulator-only
    # change must leave them identical, so they move no host-time metric
    add("analysis.confirm_deltas_p50", "delta", "lower", SIM, on=())
    add("analysis.confirm_deltas_max", "delta", "lower", SIM, on=())
    add("analysis.phases_per_block", "phases", "lower", SIM, on=())
    add("net.weighted_deliveries_per_block", "size-units", "lower", SIM, on=())
    # 4. layer probes
    add("chain.append_us", "us", "lower", LONG, moves="peak_rss_mib")
    add("chain.prefix_us", "us", "lower", LONG)
    add("sim.dispatch_us", "us", "lower", LONG, on=(LONG, SWEEP))
    add("analysis.ingest_us", "us", "lower", LONG, on=ALL)
    add("snapshot.capture_ms", "ms", "lower", LONG, on=())
    add("snapshot.fork_ms", "ms", "lower", LONG, on=())
    add("snapshot.blob_kib", "KiB", "lower", LONG, on=())
    add("net.broadcast_us", "us", "lower", WIDE)
    add("core.majority_chain_us", "us", "lower", WIDE, on=(LONG, WIDE))
    add("core.handle_us", "us", "lower", WIDE, on=(LONG, WIDE))
    add("crypto.vrf_rank_us", "us", "lower", WIDE, on=(LONG,))
    add("net.broadcast_faulty_us", "us", "lower", ADVERSE)
    add("faults.decide_us", "us", "lower", ADVERSE)
    add("sleepy.compliance_ms", "ms", "lower", ADVERSE, moves="setup_s", on=(SWEEP,))
    add("harness.prepare_cell_us", "us", "lower", SWEEP)
    add("harness.prepare_cell_cold_us", "us", "lower", SWEEP, moves="setup_s")
    add("harness.record_us", "us", "lower", SWEEP)
    add("harness.store_scan_us", "us", "lower", SWEEP)
    add("crypto.sign_verify_us", "us", "lower", NODE, on=(NODE, LONG))
    add("node.codec_encode_us", "us", "lower", NODE)
    add("node.codec_decode_us", "us", "lower", NODE)
    add("node.holdback_us", "us", "lower", NODE)
    add("net.frame_roundtrip_us", "us", "lower", NODE, on=())
    # 5. memory pass
    for layer in ("chain", "core", "net", "sim", "analysis"):
        add(f"{layer}.live_kib", "KiB", "lower", LONG, moves="peak_rss_mib")
    add("chain.live_kib_per_view", "KiB/view", "lower", LONG, moves="peak_rss_mib")
    return tuple(rows)


PER_LAYER = _per_layer()
UNITS = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def benchmark_json() -> dict:
    """The ``BENCHMARK.json`` this table implies."""

    return {
        "command": ["python3", "benchmarks/rig/run.py"],
        "paths": ["benchmarks/rig"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }
