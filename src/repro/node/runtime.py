"""The node runtime: an unmodified validator over a real transport.

One :class:`NodeRuntime` hosts one validator object — the *same*
:class:`~repro.core.tobsvd.TobSvdValidator` (or structural-baseline
validator) class the simulator runs, constructed against a private
single-validator :class:`~repro.sim.simulator.Simulator` and a
:class:`NodeNetwork` that impersonates the in-sim network's
validator-facing surface.  The validator cannot tell the difference;
everything distributed lives out here.

**Oracle equivalence** (the headline contract, see docs/ARCHITECTURE.md):
under worst-case synchrony (:class:`~repro.net.delays.UniformDelay`)
every delivery takes exactly Δ ticks, so a validator's decisions are a
pure function of *which envelope sets* exist at each phase tick.  The
runtime preserves those sets over a real network with three mechanisms:

* **Logical-tick lockstep.**  A node finishes tick ``t``, transmits that
  tick's envelopes, then a ``done(t)`` marker on the same FIFO links —
  so receiving ``done(t)`` proves every envelope the peer sent at ticks
  ``<= t`` has been received.  Tick ``t+1`` only runs once every
  non-degraded peer confirmed ``t``, hence every envelope due at or
  before ``t+1`` is in the holdback queue before the local simulator
  executes that tick.
* **Holdback + local replay.**  Wire copies are deduped by envelope id
  (:class:`~repro.node.holdback.HoldbackQueue`), scheduled into the
  local simulator at DELIVERY priority, and the validator's own phase
  timers fire in exact simulator order — so per-tick execution inside a
  node is literally the simulator's.
* **Degradation to asleep.**  A dead, stalled, or planned-crashed peer
  is simply *not waited for*; it contributes no envelopes, which in the
  sleepy model is indistinguishable from being asleep.  Suspicion
  (wall-clock) and crash plans (logical) only ever change *pacing*,
  never protocol state, so nondeterministic suspicion timing cannot
  perturb the decision sequence for planned scenarios.

**Crash/rejoin.**  A planned crash window ``[kill, wake)`` runs in one
of two modes.  Cooperative (``chaos="sleep"``): the validator is put to
sleep and woken exactly as the sim's sleep controller would, process
alive throughout.  Real (``chaos="kill"``): the process SIGKILLs itself
at the kill tick; the respawned process (``resumed=True``) resyncs every
retained envelope from its peers, replays from genesis with the
validator asleep over the window (transmission suppressed below the wake
tick — peers already have those frames), and re-enters the quorum at the
wake tick with byte-identical state to the sim's crashed-then-woken
validator.  Every node retains each envelope it sent or accepted at its
minimum delivery tick, so any single live peer's retention is a
sufficient resync source.

**Acknowledged frontiers.**  A log crosses the wire as the blocks above
an anchor the receiver holds (:mod:`repro.node.codec`).  Each ``done(t)``
marker carries the tips its sender's :class:`LineageMemo` admitted since
the previous marker, and the receiver of the marker adds them to
``acked[sender]``; :meth:`NodeRuntime.transmit` anchors each log at the
longest prefix in the recipient's frontier.  The memo never forgets, so
this positive knowledge stays true until the peer is a fresh process,
which announces itself with ``resync_req`` and is reset to genesis.
"""

from __future__ import annotations

import os
import signal
import time
from functools import partial
from typing import Callable

from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log
from repro.chain.transactions import TransactionPool
from repro.core.tobsvd import ProtocolContext, TobSvdConfig, TobSvdValidator
from repro.crypto.signatures import KeyRegistry, SignatureError
from repro.crypto.vrf import VRF
from repro.faults import FaultPlan
from repro.net.messages import Envelope
from repro.net.network import MessageStats
from repro.net.transport import Transport
from repro.node.codec import (
    AnchorError,
    CodecError,
    LineageMemo,
    anchor_height,
    decode_envelope,
    encode_envelope,
)
from repro.node.failure import FailureDetector
from repro.node.holdback import HoldbackQueue
from repro.runctx import RunContext
from repro.sim.simulator import EventPriority, Simulator
from repro.tracebus import build_observability

_CONTROL = EventPriority.CONTROL
_DELIVERY = EventPriority.DELIVERY
_GENESIS_ID = GENESIS_BLOCK.block_id

#: Retention records per resync frame; keeps any one frame far below
#: MAX_FRAME_BYTES even with log-bearing envelopes late in a run.
RESYNC_CHUNK = 500


class NodeNetwork:
    """The in-sim network's validator-facing surface, transport-backed.

    Mirrors :class:`~repro.net.network.Network` exactly where the
    validator can observe it: ``broadcast`` verifies the signature and
    self-delivers synchronously (a validator's own LOG message is always
    in its V sets); ``forward`` re-transmits without self-delivery and
    skips the original signer; deliveries to an asleep validator buffer
    and flush on wake, in arrival order, before same-tick deliveries —
    the sleep controller's CONTROL-priority contract.
    """

    def __init__(self, runtime: "NodeRuntime", registry: KeyRegistry, delta: int) -> None:
        self._runtime = runtime
        self._registry = registry
        self._delta = delta
        self._pending: list[Envelope] = []
        self.stats = MessageStats()
        self.run_context = RunContext()

    @property
    def delta(self) -> int:
        return self._delta

    # -- validator-facing ----------------------------------------------------

    def broadcast(self, envelope: Envelope) -> None:
        self._registry.require_valid(envelope.signature, envelope.payload.digest())
        self.stats.sends += 1
        runtime = self._runtime
        runtime.transmit(envelope, runtime.tick + self._delta, skip_signer=False)
        self.deliver_local(envelope)

    def forward(self, forwarder_id: int, envelope: Envelope) -> None:
        self.stats.sends += 1
        runtime = self._runtime
        runtime.transmit(envelope, runtime.tick + self._delta, skip_signer=True)

    # -- runtime-facing ------------------------------------------------------

    def deliver_local(self, envelope: Envelope) -> None:
        validator = self._runtime.validator
        if not validator.awake:
            self._pending.append(envelope)
            return
        self.stats.record_delivery(envelope)
        validator.receive(envelope, self._runtime.sim.now)

    def flush_pending(self) -> int:
        validator = self._runtime.validator
        if not validator.awake:
            raise RuntimeError("flush_pending on an asleep validator")
        buffered, self._pending = self._pending, []
        for envelope in buffered:
            self.stats.record_delivery(envelope)
            validator.receive(envelope, self._runtime.sim.now)
        return len(buffered)

    def pending_count(self) -> int:
        return len(self._pending)


def tobsvd_validator_factory(
    config: TobSvdConfig,
) -> Callable[[int, object, Simulator, NodeNetwork, object], object]:
    """Build the default (TOB-SVD) hosted validator for one node."""

    def build(node_id, key, sim, network, bus):
        context = ProtocolContext(
            config=config,
            vrf=VRF(seed=config.seed),
            pool=TransactionPool(),
            registry=network._registry,
        )
        return TobSvdValidator(node_id, key, sim, network, bus, context)

    return build


def structural_validator_factory(config: TobSvdConfig, structure_name: str):
    """Host a structural-baseline validator instead of TOB-SVD.

    Returns ``(factory, horizon)``: structural horizons depend on the
    structure's phase counts, so the runtime needs both.
    """

    from repro.baselines.structural_tob import StructuralConfig, StructuralContext, StructuralTobValidator
    from repro.baselines.structure import structure_for

    structure = structure_for(structure_name)
    sconfig = StructuralConfig(
        n=config.n, num_views=config.num_views, delta=config.delta, seed=config.seed
    )

    def build(node_id, key, sim, network, bus):
        context = StructuralContext(
            structure=structure,
            config=sconfig,
            vrf=VRF(seed=config.seed),
            pool=TransactionPool(),
            registry=network._registry,
        )
        return StructuralTobValidator(node_id, key, sim, network, bus, context)

    horizon = (
        config.num_views * structure.view_length_deltas * config.delta
        + structure.phases_failure_view * config.delta
    )
    return build, horizon


class NodeRuntime:
    """One process-local protocol node over a :class:`Transport`."""

    def __init__(
        self,
        node_id: int,
        config: TobSvdConfig,
        transport: Transport,
        *,
        fault_plan: FaultPlan | None = None,
        chaos: str = "sleep",
        resumed: bool = False,
        detector: FailureDetector | None = None,
        trace_mode: str = "off",
        validator_factory=None,
        horizon: int | None = None,
        poll_interval: float = 0.02,
        progress_timeout: float = 120.0,
    ) -> None:
        if chaos not in ("sleep", "kill"):
            raise ValueError(f"unknown chaos mode {chaos!r}")
        self.node_id = node_id
        self.config = config
        self.transport = transport
        self.detector = detector
        self.horizon = config.horizon if horizon is None else horizon
        self.registry = KeyRegistry(config.n, seed=config.seed)
        self.sim = Simulator(seed=config.seed)
        self.network = NodeNetwork(self, self.registry, config.delta)
        self.observability = build_observability(trace_mode)
        factory = (
            validator_factory
            if validator_factory is not None
            else tobsvd_validator_factory(config)
        )
        self.validator = factory(
            node_id,
            self.registry.key_for(node_id),
            self.sim,
            self.network,
            self.observability.bus,
        )
        self.holdback = HoldbackQueue()
        #: envelope id -> [min deliver tick, Envelope]; the resync source.
        self.retention: dict[str, list] = {}
        self.fault_plan = fault_plan
        self.crash_window = (
            fault_plan.crash_window_for(node_id) if fault_plan is not None else None
        )
        self.chaos = chaos
        self.resumed = resumed
        self._kill_at = (
            self.crash_window.start
            if (self.crash_window is not None and chaos == "kill" and not resumed)
            else None
        )
        # A resumed process replays history its peers already hold:
        # transmission below the wake tick is suppressed (retention still
        # records it, so the node can serve future resyncs).
        self._suppress_below = (
            self.crash_window.end if (resumed and self.crash_window is not None) else 0
        )
        self.tick = 0
        self.frontier = -1
        self.done: dict[int, int] = {peer: -1 for peer in transport.peer_ids()}
        self._poll_interval = poll_interval
        self._progress_timeout = progress_timeout
        self._started = False
        #: Verified logs this node holds, by tip block id: the anchors a
        #: received log may extend.
        self.lineage = LineageMemo()
        #: Tips admitted since the last ``done`` marker, which carries them.
        self._fresh_tips: list[str] = []
        #: Per peer, the tips it has acknowledged holding.
        self.acked = {peer: {_GENESIS_ID} for peer in transport.peer_ids()}
        #: Refused ``env`` frames and ``resync`` records, by reason.
        self.reject_reasons = {"shape": 0, "codec": 0, "anchor": 0, "signature": 0}

    # -- lifecycle -----------------------------------------------------------

    @property
    def finished(self) -> bool:
        return self.tick > self.horizon

    @property
    def codec_rejects(self) -> int:
        """Refused wire records, all reasons."""

        return sum(self.reject_reasons.values())

    def start(self) -> None:
        """Install sleep-window CONTROL events and the validator's timers.

        CONTROL events are scheduled before the validator's TIMER events,
        mirroring the sim driver's controller-then-setup order; priority
        ordering then guarantees crash/wake run before same-tick
        deliveries and timers.
        """

        if self._started:
            return
        self._started = True
        window = self.crash_window
        if window is not None and (self.chaos == "sleep" or self.resumed):
            if window.start <= self.horizon:
                self.sim.schedule_callback(window.start, _CONTROL, self._go_asleep)
            if window.end <= self.horizon:
                self.sim.schedule_callback(window.end, _CONTROL, self._wake_up)
        self.validator.setup()
        if self.resumed:
            for peer in self.transport.peer_ids():
                self.transport.send(peer, {"t": "resync_req"})

    def _go_asleep(self) -> None:
        self.validator.awake = False
        self.validator.on_sleep(self.sim.now)

    def _wake_up(self) -> None:
        self.validator.awake = True
        self.network.flush_pending()
        self.validator.on_wake(self.sim.now)

    # -- outbound ------------------------------------------------------------

    def transmit(self, envelope: Envelope, deliver_tick: int, skip_signer: bool) -> None:
        """Ship one envelope to every peer (called by :class:`NodeNetwork`).

        A carried log is admitted (peers will anchor at this node's own
        proposals) and anchored per peer at the longest prefix that peer
        acknowledged; each distinct anchor is encoded once.
        """

        self._retain(envelope.envelope_id, deliver_tick, envelope)
        log = self._admit(envelope)
        if self.tick < self._suppress_below:
            return
        frames: dict[int, dict] = {}
        signer = envelope.signature.signer
        for peer, acked in self.acked.items():
            if skip_signer and peer == signer:
                continue
            height = 1 if log is None else anchor_height(log, acked)
            frame = frames.get(height)
            if frame is None:
                wire = encode_envelope(envelope, height)
                frame = frames[height] = {"t": "env", "at": deliver_tick, "env": wire}
            self.transport.send(peer, frame)

    def _retain(self, envelope_id: str, deliver_tick: int, envelope: Envelope) -> None:
        known = self.retention.get(envelope_id)
        if known is None:
            self.retention[envelope_id] = [deliver_tick, envelope]
        elif deliver_tick < known[0]:
            known[0] = deliver_tick

    def _admit(self, envelope: Envelope) -> Log | None:
        """Hold the envelope's log, if any; its new tips ride the next ``done``."""

        log = getattr(envelope.payload, "log", None)
        if log is not None:
            self._fresh_tips += self.lineage.admit(log)
        return log

    # -- inbound -------------------------------------------------------------

    def _handle_message(self, peer: int, message: dict) -> None:
        kind = message.get("t")
        if kind == "env":
            self._ingest(message.get("env"), message.get("at"))
        elif kind == "done":
            tick = message.get("at", -1)
            if isinstance(tick, int) and tick > self.done.get(peer, -1):
                self.done[peer] = tick
            tips, acked = message.get("tips"), self.acked.get(peer)
            if isinstance(tips, list) and acked is not None:
                acked.update(tip for tip in tips if type(tip) is str)
        elif kind == "resync_req":
            if peer in self.acked:  # a fresh process: its memo holds genesis only
                self.acked[peer] = {_GENESIS_ID}
            self._serve_resync(peer)
        elif kind == "resync":
            for record in message.get("records", ()):
                self._ingest(record[1], record[0])
            # The frontier is only trusted on the final chunk: records on
            # the same FIFO link may still be in flight for earlier
            # chunks, and the barrier must not open before they land.
            if message.get("last"):
                frontier = message.get("frontier", -1)
                if isinstance(frontier, int) and frontier > self.done.get(peer, -1):
                    self.done[peer] = frontier

    def _ingest(self, wire: dict, deliver_tick: int) -> None:
        """Decode, verify and hold back one wire record (``env`` or ``resync``).

        Frames come from the network, so nothing a well-framed JSON value
        can contain may raise out of here: an ill-typed field fails the
        decode, the digest (which canonicalises it) or the signer lookup,
        and each is a counted reject.
        """

        if not isinstance(wire, dict) or not isinstance(deliver_tick, int):
            self.reject_reasons["shape"] += 1
            return
        try:
            envelope = decode_envelope(wire, self.lineage)
            digest = envelope.payload.digest()
        except AnchorError:
            self.reject_reasons["anchor"] += 1
            return
        except (CodecError, TypeError, ValueError):
            self.reject_reasons["codec"] += 1
            return
        try:
            self.registry.require_valid(envelope.signature, digest)
        except (SignatureError, TypeError):
            self.reject_reasons["signature"] += 1
            return
        if self.holdback.offer(envelope, deliver_tick):  # a copy's tips are held already
            self._admit(envelope)
        self._retain(envelope.envelope_id, deliver_tick, envelope)

    def _serve_resync(self, peer: int) -> None:
        """Replay every retained envelope, in ``(tick, id)`` order, to ``peer``.

        Logs are anchored against what this stream already carried: every
        record passed verification here, so the receiver admits each one
        and a replay hashes each block once.
        """

        records = sorted(
            (tick, envelope_id)
            for envelope_id, (tick, _) in self.retention.items()
        )
        carried = {_GENESIS_ID}
        total = max(len(records), 1)
        for offset in range(0, total, RESYNC_CHUNK):
            wires = []
            for tick, envelope_id in records[offset : offset + RESYNC_CHUNK]:
                envelope = self.retention[envelope_id][1]
                log = getattr(envelope.payload, "log", None)
                height = 1 if log is None else anchor_height(log, carried)
                if log is not None:
                    carried.update(block.block_id for block in log.blocks[height:])
                wires.append([tick, encode_envelope(envelope, height)])
            frame = {"t": "resync", "frontier": self.frontier, "records": wires}
            if offset + RESYNC_CHUNK >= total:
                frame["last"] = True
            self.transport.send(peer, frame)

    def _drain(self) -> None:
        while True:
            item = self.transport.receive(timeout=None)
            if item is None:
                return
            self._handle_message(*item)

    # -- the tick barrier ----------------------------------------------------

    def _plan_asleep(self, peer: int, tick: int) -> bool:
        if self.fault_plan is None:
            return False
        window = self.fault_plan.crash_window_for(peer)
        return window is not None and window.start <= tick < window.end

    def _barrier_ready(self, tick: int) -> bool:
        target = tick - 1
        if target < 0:
            return True
        blocked = [
            peer for peer, done in self.done.items()
            if done < target and not self._plan_asleep(peer, target)
        ]
        if not blocked:
            return True
        if self.detector is None:
            return False
        suspected = self.detector.suspected()
        return all(peer in suspected for peer in blocked)

    # -- execution -----------------------------------------------------------

    def step(self) -> bool:
        """Drain the transport and run every tick the barrier allows."""

        self._drain()
        progressed = False
        while self.tick <= self.horizon and self._barrier_ready(self.tick):
            if self._kill_at is not None and self.tick == self._kill_at:
                self._self_kill()
            self._process_tick(self.tick)
            self.tick += 1
            progressed = True
            self._drain()
        return progressed

    def _process_tick(self, tick: int) -> None:
        deliver = self.network.deliver_local
        for _, envelope in self.holdback.due(tick):
            self.sim.schedule_callback(tick, _DELIVERY, partial(deliver, envelope))
        self.sim.run_until(tick)
        self.frontier = tick
        done = {"t": "done", "at": tick, "tips": self._fresh_tips}
        self._fresh_tips = []
        for peer in self.transport.peer_ids():
            self.transport.send(peer, done)

    def _self_kill(self) -> None:  # pragma: no cover - the process dies here
        """Planned process chaos: flush the wire, then die uncleanly."""

        self.transport.flush(timeout=10.0)
        os.kill(os.getpid(), signal.SIGKILL)

    def run(self) -> dict:
        """Drive to the horizon, blocking on the transport when stalled."""

        self.start()
        last_progress = time.monotonic()
        while not self.finished:
            if self.step():
                last_progress = time.monotonic()
                continue
            item = self.transport.receive(timeout=self._poll_interval)
            if item is not None:
                self._handle_message(*item)
                continue
            if time.monotonic() - last_progress > self._progress_timeout:
                raise RuntimeError(
                    f"node {self.node_id} stalled at tick {self.tick} "
                    f"(done={self.done}, suspected="
                    f"{sorted(self.detector.suspected()) if self.detector else []})"
                )
        return self.result()

    # -- results -------------------------------------------------------------

    def decision_records(self) -> list[dict]:
        """The hosted validator's decisions as canonical JSON-safe records.

        This is the byte-comparison basis of the oracle contract: the
        same records computed from a sim validator's ``decided`` list
        must serialize to identical canonical JSON.
        """

        return decisions_as_records(self.validator.decided)

    def result(self) -> dict:
        stats = self.network.stats
        return {
            "node": self.node_id,
            "decided": self.decision_records(),
            "frontier": self.frontier,
            "sends": stats.sends,
            "deliveries": stats.deliveries,
            "holdback_duplicates": self.holdback.duplicates,
            "codec_rejects": self.codec_rejects,
            "reject_reasons": dict(self.reject_reasons),
        }


def decisions_as_records(decided) -> list[dict]:
    """``(tick, log)`` decision pairs as JSON-safe comparison records."""

    return [
        {"tick": tick, "length": len(log), "log_id": log.log_id}
        for tick, log in decided
    ]
