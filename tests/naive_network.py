"""Per-recipient reference network: the oracle the mask plans are tested against.

Same public surface as :class:`repro.net.network.Network` and the same
scheduled events (one per send segment and distinct delay, so
``events_processed`` is comparable), but nothing else is shared or
batched: a send is a plain list of recipient ids with a duplicated copy
listed twice, every copy is handed to ``node.receive`` one recipient at a
time — dedup-capable validators dedup for themselves there, against the
private holder table they keep when no network shares one — and every
delivery is recorded on its own.  No masks, no shared holder table, no
``receive_new`` shortcut, no aggregated accounting.
"""

from __future__ import annotations

from collections import defaultdict
from functools import partial

from repro.net.network import MessageStats
from repro.runctx import RunContext
from repro.sim.simulator import EventPriority

_DELIVERY = EventPriority.DELIVERY


class NaiveNetwork:
    def __init__(
        self, simulator, delta, registry, delay_policy,
        buffer_while_asleep=True, fault_plan=None,
    ):
        self._sim = simulator
        self._delta = delta
        self._registry = registry
        self._buffering = buffer_while_asleep
        self._policy = delay_policy
        live = fault_plan is not None and fault_plan.has_message_faults
        self._faults = fault_plan if live else None
        self._nodes = {}
        self._pending = defaultdict(list)
        self.stats = MessageStats()
        self.dropped_while_asleep = 0
        self.fault_drops = 0
        self.fault_duplicates = 0
        self.fault_spikes = 0
        self.run_context = RunContext()

    def register(self, node):
        if node.validator_id in self._nodes:
            raise ValueError(f"validator {node.validator_id} already registered")
        self._nodes[node.validator_id] = node

    def set_awake(self, validator_id, awake):
        self._nodes[validator_id].awake = awake

    # -- sending -----------------------------------------------------------

    def broadcast(self, envelope):
        self._registry.require_valid(envelope.signature, envelope.payload.digest())
        self.stats.sends += 1
        sender = envelope.sender
        segment = []
        for vid in list(self._nodes):
            if vid == sender:
                self._send(sender, envelope, segment)
                segment = []
                self._deliver(vid, envelope)
            else:
                segment.append(vid)
        self._send(sender, envelope, segment)

    def forward(self, forwarder_id, envelope):
        self.stats.sends += 1
        skip = (forwarder_id, envelope.sender)
        self._send(
            forwarder_id, envelope, [vid for vid in self._nodes if vid not in skip]
        )

    def send_direct(self, envelope, recipient, delay):
        self._registry.require_valid(envelope.signature, envelope.payload.digest())
        self.stats.sends += 1
        delay = max(0, min(delay, self._delta))
        self._sim.schedule_callback(
            self._sim.now + delay, _DELIVERY, partial(self._deliver, recipient, envelope)
        )

    def _send(self, origin, envelope, recipients):
        now = self._sim.now
        groups = {}
        for vid in recipients:
            copies = 1
            if self._faults is not None:
                copies = self._faults.copies(origin, vid, envelope, now)
                if copies == 0:
                    self.fault_drops += 1
                    continue
                if copies > 1:
                    self.fault_duplicates += 1
            delay = max(0, min(self._policy.delay(origin, vid, envelope, now), self._delta))
            if self._faults is not None:  # a spike may exceed the Δ clamp
                spike = self._faults.spike(origin, vid, envelope, now)
                self.fault_spikes += bool(spike)
                delay += spike
            groups.setdefault(delay, []).extend([vid] * copies)
        for delay, vids in groups.items():
            self._sim.schedule_callback(
                now + delay, _DELIVERY, partial(self._deliver_each, vids, envelope)
            )

    # -- delivery ----------------------------------------------------------

    def _deliver_each(self, recipients, envelope):
        for vid in recipients:
            self._deliver(vid, envelope)

    def _deliver(self, recipient, envelope):
        node = self._nodes[recipient]
        if not node.awake:
            if self._buffering:
                self._pending[recipient].append(envelope)
            else:
                self.dropped_while_asleep += 1
            return
        self.stats.record_delivery(envelope)
        node.receive(envelope, self._sim.now)

    def flush_pending(self, recipient):
        node = self._nodes[recipient]
        if not node.awake:
            raise RuntimeError(f"flush_pending on asleep validator {recipient}")
        buffered = self._pending.pop(recipient, [])
        for envelope in buffered:
            self.stats.record_delivery(envelope)
            node.receive(envelope, self._sim.now)
        return len(buffered)

    def pending_count(self, recipient):
        return len(self._pending.get(recipient, ()))

    def buffered_envelopes(self):
        for buffered in self._pending.values():
            yield from buffered
