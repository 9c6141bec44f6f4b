"""Layer probes: isolated timed calls into public functions.

Each probe times one layer's public entry points on inputs harvested
from a ``trace_mode="full"`` run of the workload it belongs to, so the
sizes (chain length, validator count, fault rates) are the workload's
own.  A probe reports the median over :data:`BATCHES` batches, in µs per
call unless its name says otherwise.  Probes never feed an end-to-end
metric; they say *which* layer moved when one does.
"""

from __future__ import annotations

import gc
import os
import socket
import statistics
import time
import tracemalloc

from riglayers import bucket_snapshot

from repro.chain.log import Log, common_prefix
from repro.core.quorum import majority_chain
from repro.core.state import LogView
from repro.core.tobsvd import PROTOCOL_NAME
from repro.crypto.signatures import KeyRegistry
from repro.crypto.vrf import VRF
from repro.faults import crashed_schedule
from repro.harness import PREBUILD, ResultStore, prepare_cell, stable_scenario
from repro.harness.scenarios import check_schedule_compliance
from repro.harness.sweep import canonical_record, run_cell
from repro.analysis.streaming import StreamingAnalyzer
from repro.net.delays import UniformDelay
from repro.net.framing import FrameConnection
from repro.net.messages import Envelope, LogMessage
from repro.net.network import Network
from repro.node.codec import decode_envelope, encode_envelope
from repro.node.holdback import HoldbackQueue
from repro.sim.simulator import EventPriority, Simulator
from repro.sleepy.schedule import AwakeSchedule
from repro.snapshot import capture, fork, fork_tick

BATCHES = 5


def _median_batches(run_batch, calls: int, scale: float = 1e6) -> float:
    """Median over ``BATCHES`` of ``run_batch()`` wall time, per call.

    ``run_batch`` may return its own elapsed seconds (when it has untimed
    set-up inside); otherwise the whole call is timed.
    """

    samples = []
    for _ in range(BATCHES):
        gc.collect()
        start = time.perf_counter()
        own = run_batch()
        elapsed = own if own is not None else time.perf_counter() - start
        samples.append(elapsed / calls * scale)
    return statistics.median(samples)


def _envelope(registry: KeyRegistry, signer: int, view: int, log: Log) -> Envelope:
    payload = LogMessage(ga_key=(PROTOCOL_NAME, view), log=log)
    return Envelope(
        payload=payload, signature=registry.key_for(signer).sign(payload.digest())
    )


class _Sink:
    """A network node that accepts every delivery and does nothing."""

    awake = True

    def __init__(self, validator_id: int) -> None:
        self.validator_id = validator_id

    def receive(self, envelope, time) -> None:
        pass


def _broadcast_us(n: int, delta: int, seed: int, envelopes, fault_plan=None) -> float:
    """``Network.broadcast`` to ``n`` no-op nodes, deliveries drained."""

    def batch():
        sim = Simulator(seed=seed)
        network = Network(
            sim, delta, KeyRegistry(n, seed=seed), UniformDelay(delta),
            fault_plan=fault_plan,
        )
        for vid in range(n):
            network.register(_Sink(vid))
        start = time.perf_counter()
        for envelope in envelopes:
            network.broadcast(envelope)
        # Spiked deliveries may land past Δ; drain them all.
        sim.run_to_exhaustion()
        return time.perf_counter() - start

    return _median_batches(batch, len(envelopes))


def _harvest(workload):
    """One full-retention run of the workload: the probes' input source."""

    protocol, _txs = workload.build(trace_mode="full")
    return protocol.run()


def _vote_envelopes(result, registry: KeyRegistry, limit: int) -> list[Envelope]:
    """Re-signed LOG envelopes for the run's recorded vote-phase inputs."""

    return [
        _envelope(registry, event.validator, event.view, event.log)
        for event in result.trace.vote_phases[:limit]
    ]


# -- per-workload probe sets -------------------------------------------------


def probe_sim_long(workload) -> dict[str, float]:
    result = _harvest(workload)
    decided = result.analysis.max_decided_log()
    blocks = decided.blocks[1:]
    values: dict[str, float] = {}

    def rebuild():
        log = Log.genesis()
        for block in blocks:
            log = log.append_block(block.transactions, block.proposer, block.view)

    values["chain.append_us"] = _median_batches(rebuild, len(blocks))

    half = decided.prefix(max(1, len(decided) // 2))
    fork_log = half.append_block((), proposer=0, view=10**6)
    rounds = 200

    def prefixes():
        for _ in range(rounds):
            half.prefix_of(decided)
            common_prefix(fork_log, decided)

    values["chain.prefix_us"] = _median_batches(prefixes, 2 * rounds)

    events = result.simulator.events_processed

    def dispatch():
        sim = Simulator()
        noop = _noop
        for index in range(events):
            sim.schedule_callback(index // 8, EventPriority.DELIVERY, noop)
        sim.run_until(events // 8 + 1)

    values["sim.dispatch_us"] = _median_batches(dispatch, events)

    trace = result.trace
    recorded = sorted(
        [(e.time, 0, i, "on_control", e) for i, e in enumerate(trace.control)]
        + [(e.time, 1, i, "on_proposal", e) for i, e in enumerate(trace.proposals)]
        + [(e.time, 2, i, "on_vote_phase", e) for i, e in enumerate(trace.vote_phases)]
        + [(e.time, 3, i, "on_ga_output", e) for i, e in enumerate(trace.ga_outputs)]
        + [(e.time, 4, i, "on_decision", e) for i, e in enumerate(trace.decisions)],
        key=lambda item: item[:3],
    )

    def ingest():
        analyzer = StreamingAnalyzer()
        hooks = {name: getattr(analyzer, name) for name in
                 ("on_control", "on_proposal", "on_vote_phase", "on_ga_output", "on_decision")}
        for _time, _rank, _index, hook, event in recorded:
            hooks[hook](event)

    values["analysis.ingest_us"] = _median_batches(ingest, len(recorded))

    # Snapshot capture/fork three quarters into the horizon (view 384 of 512).
    view = max(1, workload.num_views * 3 // 4)
    protocol, _txs = workload.build()
    protocol.start()
    protocol.advance(fork_tick(protocol.config, view))
    key = f"rig|{workload.name}|seed={workload.seed}"
    snapshots = []

    def capture_once():
        snapshots.append(capture(protocol, key, view))

    values["snapshot.capture_ms"] = _median_batches(capture_once, 1, scale=1e3)
    snapshot = snapshots[-1]
    values["snapshot.blob_kib"] = len(snapshot.to_bytes()) / 1024

    def fork_once():
        fork(snapshot)

    values["snapshot.fork_ms"] = _median_batches(fork_once, 1, scale=1e3)
    return values


def _noop() -> None:
    pass


def probe_sim_wide(workload) -> dict[str, float]:
    result = _harvest(workload)
    n = workload.n
    registry = KeyRegistry(n, seed=workload.seed)
    envelopes = _vote_envelopes(result, registry, n)
    values: dict[str, float] = {}

    values["net.broadcast_us"] = _broadcast_us(n, workload.delta, workload.seed, envelopes)

    pairs = frozenset((e.sender, e.payload.log) for e in envelopes)
    rounds = 50

    def majority():
        for _ in range(rounds):
            majority_chain(pairs, n)

    values["core.majority_chain_us"] = _median_batches(majority, rounds)

    def handle():
        view = LogView()
        for envelope in envelopes:
            view.handle(envelope)

    values["core.handle_us"] = _median_batches(handle, len(envelopes))

    ids = list(range(n))
    views = 50

    def rank():
        vrf = VRF(seed=workload.seed)  # fresh memo: every evaluation is real
        for view in range(views):
            vrf.leader_ranking(ids, view)

    values["crypto.vrf_rank_us"] = _median_batches(rank, views)
    return values


def probe_sim_adverse(workload) -> dict[str, float]:
    result = _harvest(workload)
    n = workload.n
    registry = KeyRegistry(n, seed=workload.seed)
    envelopes = _vote_envelopes(result, registry, 4 * n)
    plan = workload.fault_plan()
    values: dict[str, float] = {}

    values["net.broadcast_faulty_us"] = _broadcast_us(
        n, workload.delta, workload.seed, envelopes, fault_plan=plan
    )

    def decide():
        for tick, envelope in enumerate(envelopes):
            sender = envelope.sender
            for recipient in range(n):
                plan.cut(sender, recipient, tick)
                plan.copies(sender, recipient, envelope, tick)
                plan.spike(sender, recipient, envelope, tick)

    values["faults.decide_us"] = _median_batches(decide, len(envelopes) * n)

    effective = crashed_schedule(AwakeSchedule.always_awake(n), plan.crash_windows)

    def compliance():
        check_schedule_compliance(
            workload.config, effective, workload.corruption, workload.name
        )

    values["sleepy.compliance_ms"] = _median_batches(compliance, 1, scale=1e3)
    return values


def probe_sweep(workload) -> dict[str, float]:
    cells = workload.cells
    values: dict[str, float] = {}

    def prepare():
        for cell in cells:
            prepare_cell(cell)

    prepare()  # fill the prebuild cache

    values["harness.prepare_cell_us"] = _median_batches(prepare, len(cells))

    def prepare_cold():
        PREBUILD.clear()
        start = time.perf_counter()
        prepare()
        return time.perf_counter() - start

    values["harness.prepare_cell_cold_us"] = _median_batches(prepare_cold, len(cells))

    records = [run_cell(cell) for cell in cells[: 32]]
    path = os.path.join(workload.workdir, "probe-store.jsonl")

    def record():
        if os.path.exists(path):
            os.unlink(path)
        store = ResultStore(path)
        start = time.perf_counter()
        for item in records:
            store.append_line(canonical_record(item))
        return time.perf_counter() - start

    values["harness.record_us"] = _median_batches(record, len(records))

    scans = 10

    def scan():
        store = ResultStore(path)
        for _ in range(scans):
            store.completed_ids()

    values["harness.store_scan_us"] = _median_batches(scan, scans)
    os.unlink(path)
    return values


def probe_node_mem(workload) -> dict[str, float]:
    config = workload.config
    registry = KeyRegistry(config.n, seed=config.seed)
    # The oracle's scenario, with events retained: the LOG traffic the
    # runtimes put on the wire.
    result = stable_scenario(
        n=config.n, num_views=config.num_views, delta=config.delta,
        seed=config.seed, trace_mode="full",
    ).run()
    events = result.trace.vote_phases
    envelopes = _vote_envelopes(result, registry, len(events))
    values: dict[str, float] = {}

    key = registry.key_for(0)
    digests = [envelope.payload.digest() for envelope in envelopes]

    def sign_verify():
        fresh = KeyRegistry(config.n, seed=config.seed)  # empty tag cache
        start = time.perf_counter()
        for digest in digests:
            fresh.verify(key.sign(digest), digest)
        return time.perf_counter() - start

    values["crypto.sign_verify_us"] = _median_batches(sign_verify, len(digests))

    def encode():
        for envelope in envelopes:
            encode_envelope(envelope)

    values["node.codec_encode_us"] = _median_batches(encode, len(envelopes))
    wires = [encode_envelope(envelope) for envelope in envelopes]

    def decode():
        for wire in wires:
            decode_envelope(wire)

    values["node.codec_decode_us"] = _median_batches(decode, len(wires))

    def holdback():
        queue = HoldbackQueue()
        for event, envelope in zip(events, envelopes):
            queue.offer(envelope, event.time + config.delta)
            queue.offer(envelope, event.time + config.delta)  # duplicate wire copy
        for tick in range(config.horizon + config.delta + 1):
            queue.due(tick)

    values["node.holdback_us"] = _median_batches(holdback, len(envelopes))

    left, right = socket.socketpair()
    sender, receiver = FrameConnection(left), FrameConnection(right, read_timeout=10.0)
    try:
        def roundtrip():
            for wire in wires:
                sender.send({"kind": "env", "tick": 0, "env": wire})
                receiver.recv()

        values["net.frame_roundtrip_us"] = _median_batches(roundtrip, len(wires))
    finally:
        sender.close()
        receiver.close()
    return values


MEMORY_LAYERS = ("chain", "core", "net", "sim", "analysis")


def memory_pass(workload) -> dict[str, float]:
    """Live heap by layer at half and full horizon of one staged run.

    One ``tracemalloc`` iteration, staged with ``start()`` / ``advance()``
    so a snapshot can be taken mid-run; the slope between the two
    snapshots is what a persistent ``Log`` or a view collector must
    flatten.  ``sim-long-n8`` only: nothing else runs long enough to grow.
    """

    half = workload.num_views // 2
    gc.collect()
    tracemalloc.start()
    try:
        protocol, _txs = workload.build()
        protocol.start()
        protocol.advance(protocol.config.time.view_start(half))
        middle = bucket_snapshot(tracemalloc.take_snapshot())
        protocol.advance(protocol.config.horizon)
        end = bucket_snapshot(tracemalloc.take_snapshot())
    finally:
        tracemalloc.stop()
    values = {f"{layer}.live_kib": end[layer] / 1024 for layer in MEMORY_LAYERS}
    values["chain.live_kib_per_view"] = (
        (end["chain"] - middle["chain"]) / 1024 / (workload.num_views - half)
    )
    return values


PROBES = {
    "sim-long-n8": probe_sim_long,
    "sim-wide-n64": probe_sim_wide,
    "sim-adverse-n16": probe_sim_adverse,
    "sweep-grid-w2": probe_sweep,
    "node-mem-n4": probe_node_mem,
}
