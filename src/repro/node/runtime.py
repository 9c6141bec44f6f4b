"""The node runtime: a world hosting one validator, plus a remote leg.

One :class:`NodeRuntime` runs a :class:`~repro.core.world.World` that
hosts one validator id, built by the same builder call the deployment's
sim oracle makes with every id hosted (:mod:`repro.node.deploy`).  The
validator, its simulator, network, key registry and sleep controller are
therefore the simulator's own objects, assembled in the simulator's
order; the network reaches the other validators through its ``egress``
callback (:meth:`NodeRuntime.transmit`) and hears them through
:meth:`~repro.net.network.Network.ingress`.  What lives out here is what
is genuinely distributed: the lockstep barrier, holdback, codec,
retention, resync, acknowledged frontiers, suspicion and kill chaos.

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
  before ``t+1`` is in the holdback queue before the world advances to
  that tick.
* **Holdback + ingress.**  Wire copies are deduped by envelope id
  (:class:`~repro.node.holdback.HoldbackQueue`) and released in
  ``(tick, id)`` order into the world's network at DELIVERY priority;
  the controller's events and the validator's phase timers fire in exact
  simulator order around them.
* **Degradation to asleep.**  A dead, stalled, or planned-crashed peer is
  simply *not waited for*; it contributes no envelopes, which in the
  sleepy model is indistinguishable from being asleep.  Suspicion
  (wall-clock) and crash windows (logical) only ever change *pacing*,
  never protocol state, so nondeterministic suspicion timing cannot
  perturb the decision sequence for planned scenarios.

**Crash/rejoin.**  Every crash window of the hosted validator is a sleep
the world's controller installs, as in the simulator.  With
``chaos="kill"`` the earliest one (:meth:`~repro.faults.FaultPlan.kill_schedule`)
is also real: the process runs the window's first tick (the validator
crashes at its start), sends that tick's ``done`` and SIGKILLs itself; the
respawned process (``resumed=True``) resyncs every retained envelope
from its peers, replays from genesis (transmission suppressed below the
wake tick — peers already have those frames), and re-enters the quorum
at the wake tick with byte-identical state to the sim's
crashed-then-woken validator.  Every node retains each envelope it sent
or accepted at its minimum delivery tick, so any single live peer's
retention is a sufficient resync source.

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

from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log
from repro.core.world import World
from repro.crypto.signatures import SignatureError
from repro.faults import FaultPlan
from repro.net.messages import Envelope
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

_GENESIS_ID = GENESIS_BLOCK.block_id

#: Retention records per resync frame; keeps any one frame far below
#: MAX_FRAME_BYTES even with log-bearing envelopes late in a run.
RESYNC_CHUNK = 500


class UndeployablePlanError(ValueError):
    """A fault plan with message faults was handed to a deployment.

    Drops, duplicates, delay spikes and partitions are decided per fan-out
    inside the simulator's network; the remote leg has no injection point
    for them yet, so a deployment would run fault-free and diverge from its
    oracle.  Crash windows are deployable.
    """


def require_deployable(plan: FaultPlan | None) -> None:
    """Raise :class:`UndeployablePlanError` if ``plan`` has message faults."""

    if plan is not None and plan.has_message_faults:
        raise UndeployablePlanError(
            "a deployment honours crash windows only; this plan has message "
            "faults (drop, duplicate or spike rates, or partitions)"
        )


class NodeRuntime:
    """One process-local protocol node: a one-id :class:`World` over a :class:`Transport`."""

    def __init__(
        self,
        world: World,
        transport: Transport,
        *,
        chaos: str = "sleep",
        resumed: bool = False,
        detector: FailureDetector | None = None,
        poll_interval: float = 0.02,
        progress_timeout: float = 120.0,
    ) -> None:
        if chaos not in ("sleep", "kill"):
            raise ValueError(f"unknown chaos mode {chaos!r}")
        if len(world.hosted) != 1:
            raise ValueError(f"a node runtime hosts one validator, not {sorted(world.hosted)}")
        (node_id,) = world.hosted
        if node_id not in world.validators:
            raise ValueError(f"validator {node_id} is Byzantine; a deployment hosts honest ones")
        plan = world.fault_plan
        require_deployable(plan)
        self.node_id = node_id
        self.world = world
        self.validator = world.validators[node_id]
        self.transport = transport
        self.detector = detector
        self.horizon = world.horizon
        world.network.egress = self.transmit
        self.holdback = HoldbackQueue()
        #: envelope id -> [min deliver tick, Envelope]; the resync source.
        self.retention: dict[str, list] = {}
        self.resumed = resumed
        kill = plan.kill_schedule().get(node_id) if plan is not None and chaos == "kill" else None
        self._kill_at = kill[0] if kill is not None and not resumed else None
        # A resumed process replays history its peers already hold:
        # transmission below the wake tick is suppressed (retention still
        # records it, so the node can serve future resyncs).
        self._suppress_below = kill[1] if kill is not None and resumed else 0
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
        """Install the world's CONTROL and TIMER events; a respawned
        process also asks every peer for a resync."""

        if self._started:
            return
        self._started = True
        self.world.start()
        if self.resumed:
            for peer in self.transport.peer_ids():
                self.transport.send(peer, {"t": "resync_req"})

    # -- outbound ------------------------------------------------------------

    def transmit(self, envelope: Envelope, deliver_tick: int) -> None:
        """Ship one envelope to every peer but its signer (the world
        network's egress, called once per broadcast or forward).

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
            if peer == signer:
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
            self.world.registry.require_valid(envelope.signature, digest)
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
        """Is ``peer`` crashed throughout ``tick``, so it sends nothing?

        A window's first tick does not count: a CONTROL event ahead of the
        crash in that tick's bucket (a scheduled wake flushing the buffer)
        may still make the peer forward, and a kill-chaos victim sends its
        ``done`` for that tick before it dies.  Windows of one validator
        must not overlap, which :meth:`~repro.faults.FaultSpec.compile`
        guarantees.
        """

        plan = self.world.fault_plan
        return plan is not None and any(
            window.validator == peer and window.start < tick < window.end
            for window in plan.crash_windows
        )

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
            self._process_tick(self.tick)
            if self.tick == self._kill_at:
                self._self_kill()
            self.tick += 1
            progressed = True
            self._drain()
        return progressed

    def _process_tick(self, tick: int) -> None:
        ingress = self.world.network.ingress
        for _, envelope in self.holdback.due(tick):
            ingress(envelope, tick)
        self.world.advance(tick)
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
        stats = self.world.network.stats
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
