"""The broadcast network: signature checking, buffering, delivery counting.

Responsibilities:

* **Broadcast** an envelope from one validator to all others, with
  per-recipient delays chosen by the installed :class:`DelayPolicy`
  (clamped to Delta — the adversary cannot break synchrony).
* **Self-delivery**: a sender processes its own message immediately, so a
  validator's own LOG message is always counted in its V sets, matching
  the paper's quorum arithmetic.
* **Sleep buffering**: deliveries to asleep validators queue up and are
  flushed, in original delivery order, the instant the validator wakes
  (Section 3.1's delivery assumption).
* **Accounting**: every point-to-point delivery is counted, per payload
  type and weighted by message size, feeding the communication-complexity
  experiment.

Forwarding ("at any time, honest validators forward any message received")
is invoked by protocol code via :meth:`Network.forward`; the network itself
never duplicates traffic, which keeps the echo rules (at most two LOG
messages per sender, Section 3.3) in one place — the validator state layer.

Shared-fanout delivery (PERFORMANCE.md): a broadcast or forward verifies
its envelope once and delivers the *same* :class:`Envelope` object to all
recipients.  Every registered node owns one bit (registration order = bit
order) and a recipient plan is an ``int`` mask.  When the delay policy
declares a recipient-independent delay (a ``fixed_delay`` attribute, e.g.
on :class:`~repro.net.delays.UniformDelay`), the whole fanout collapses to
at most two scheduled events — no per-recipient policy call, list
building, or allocation.

Dedup: the network's *holder table* maps an interned envelope token to
the mask of dedup-capable nodes that hold it, and it is the run's only
dedup record — no validator keeps a set of its own.  At delivery the
network hands a batch's envelope only to the awake, dedup-capable bits
of ``plan & ~holders[token]`` and sets those bits, so the duplicate
copies of an echo storm cost a dict probe and a few bit-ops per batch;
a validator's direct entry point (self-delivery, sleep flush,
``send_direct``) tests and sets its own bit in the same table.  The
table is run state: it is pickled with the network, and snapshot forks
resume with it.  Accounting is applied once per batch with identical
totals.
Message faults work on the same masks: a live fault plan is asked once per
fan-out (:meth:`repro.faults.FaultPlan.decide`) which recipients it
keeps, duplicates and spikes, and the kept ones are grouped by delay.  The
network also owns the run's :class:`~repro.runctx.RunContext`, whose
interned int tokens key the holder table.

The remote leg: a network registers only the validators its world hosts.
When others live in other processes (a node runtime), ``egress`` is
called once per broadcast or forward with the envelope and its delivery
tick, and the runtime ships it to every remote validator except its
signer; what the runtime receives comes back through :meth:`ingress`,
which delivers it to the hosted nodes like a local batch.  A simulated
run hosts every id and has no egress: the remote leg costs it one
attribute check per send.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Protocol

from repro.crypto.signatures import KeyRegistry, SignatureError
from repro.net.delays import DelayPolicy
from repro.net.messages import Envelope
from repro.runctx import RunContext
from repro.sim.simulator import EventPriority, Simulator

_DELIVERY = EventPriority.DELIVERY


class NetworkNode(Protocol):
    """What the network needs from a validator object.

    A node may additionally expose ``adopt_holders(table, bit)``
    together with ``receive_new(envelope, time)``.  :meth:`Network.register`
    then hands the node the network's holder table (interned envelope
    token → mask of the nodes holding it) and the node's bit in it, and
    performs content dedup on the node's behalf: ``receive_new`` is only
    called for an envelope whose token the node's bit does not hold yet,
    and duplicate copies are counted, never delivered.  The node's own
    :meth:`receive` (self-delivery, sleep flush, targeted sends) must
    test and set the same bit, so one table is the only dedup record.
    Nodes without ``adopt_holders`` (Byzantine observers that want every
    copy) are visited for every delivery via plain :meth:`receive`.

    ``awake`` stays a plain attribute.  For a dedup-capable node it may
    only change through :meth:`Network.set_awake` once registered (the
    network mirrors it in a mask; :meth:`Network.check_awake_mask` fails a
    run that bypassed it); always-visited nodes may flip it freely.
    """

    validator_id: int
    awake: bool

    def receive(self, envelope: Envelope, time: int) -> None:
        """Handle a delivered envelope at ``time``."""
        ...


@dataclass
class MessageStats:
    """Delivery counters for complexity measurements."""

    sends: int = 0
    deliveries: int = 0
    weighted_deliveries: int = 0
    by_type: dict[str, int] = field(default_factory=lambda: defaultdict(int))

    def record_delivery(self, envelope: Envelope) -> None:
        self.record_deliveries(envelope, 1)

    def record_deliveries(self, envelope: Envelope, count: int) -> None:
        """Count ``count`` point-to-point deliveries of one shared envelope."""

        self.deliveries += count
        self.weighted_deliveries += envelope.size_units() * count
        self.by_type[type(envelope.payload).__name__] += count


class AwakeMaskError(RuntimeError):
    """A dedup-capable node's ``awake`` flag disagrees with the network's
    asleep mask: something assigned it directly instead of calling
    :meth:`Network.set_awake`."""


class Network:
    """A Delta-bounded synchronous broadcast network."""

    def __init__(
        self,
        simulator: Simulator,
        delta: int,
        registry: KeyRegistry,
        delay_policy: DelayPolicy,
        buffer_while_asleep: bool = True,
        fault_plan=None,
    ) -> None:
        """``buffer_while_asleep`` selects the sleep semantics.

        True (default) is the paper's theoretical model: messages to
        asleep validators queue up and are delivered on wake.  False is
        the *practical* model of Section 2: asleep validators lose
        traffic and must run the RECOVERY protocol
        (:mod:`repro.core.recovery`) to catch up.

        ``fault_plan`` (a compiled :class:`repro.faults.FaultPlan`, or
        None) injects deterministic message faults, decided once per
        fan-out (:meth:`~repro.faults.FaultPlan.decide`) as recipient
        masks: partition cuts and drops leave the kept mask, a duplicate is
        a bit of the batch's ``dup`` mask, and spiked recipients are
        delivered ``spike_ticks`` after the Δ-clamped base delay.
        A plan without message faults — or no plan, the default — leaves
        every fast path untouched; the disabled layer costs one
        attribute check per broadcast.  Self-delivery and Byzantine
        ``send_direct`` traffic are never faulted (a validator cannot
        lose its own message, and the adversary owns its delivery).
        """

        self._sim = simulator
        self._delta = delta
        self._registry = registry
        self.fault_plan = fault_plan
        self.set_delay_policy(delay_policy)
        self._buffer_while_asleep = buffer_while_asleep
        self._nodes: dict[int, NetworkNode] = {}
        self._pending: dict[int, list[Envelope]] = defaultdict(list)
        self.stats = MessageStats()
        self.dropped_while_asleep = 0
        self.fault_drops = 0
        self.fault_duplicates = 0
        self.fault_spikes = 0
        #: ``egress(envelope, deliver_tick)``, called at send time for the
        #: validators this network does not host; None when it hosts all.
        self.egress = None
        # One intern/lineage context per run; validators read it off the
        # network at construction (docs/ARCHITECTURE.md, "RunContext").
        self.run_context = RunContext()
        # Mask plans: the node registered i-th owns bit i, ``_order[i]`` is
        # its ``(node, dedup_capable)`` pair, ``_ids[i]`` its id, and
        # ``_always`` holds the nodes without ``adopt_holders``.
        # ``_holders[token]`` is the mask of dedup-capable nodes holding that
        # envelope: the run's one dedup table, shared with every such node.
        self._order: list[tuple] = []
        self._bit: dict[int, int] = {}
        self._ids: tuple[int, ...] = ()
        self._all = 0
        self._asleep = 0
        self._always = 0
        self._holders: dict[int, int] = {}

    def __getstate__(self):
        """Snapshot pickling: the remote leg belongs to a process, never
        to a blob (the holder table is state and travels)."""

        return {**self.__dict__, "egress": None}

    @property
    def delta(self) -> int:
        return self._delta

    @property
    def node_ids(self) -> list[int]:
        return sorted(self._nodes)

    def register(self, node: NetworkNode) -> None:
        """Attach a validator to the network (it owns the next bit)."""

        vid = node.validator_id
        if vid in self._nodes:
            raise ValueError(f"validator {vid} already registered")
        bit = 1 << len(self._order)
        adopt = getattr(node, "adopt_holders", None)
        self._nodes[vid] = node
        self._bit[vid] = bit
        self._ids += (vid,)
        self._order.append((node, adopt is not None))
        self._all |= bit
        if adopt is None:
            self._always |= bit
        else:
            adopt(self._holders, bit)
        if not node.awake:
            self._asleep |= bit

    def set_awake(self, validator_id: int, awake: bool) -> None:
        """Flip a registered node's ``awake`` flag and the asleep mask.

        The only place a dedup-capable node's flag may change: a stale
        mask would let delivery skip a node that is in fact asleep.
        """

        self._nodes[validator_id].awake = awake
        if awake:
            self._asleep &= ~self._bit[validator_id]
        else:
            self._asleep |= self._bit[validator_id]

    def check_awake_mask(self) -> None:
        """Raise :class:`AwakeMaskError` if a dedup-capable node's
        ``awake`` flag was changed behind :meth:`set_awake`'s back."""

        for index, (node, dedup) in enumerate(self._order):
            if dedup and node.awake == bool(self._asleep >> index & 1):
                raise AwakeMaskError(
                    f"validator {node.validator_id}: awake={node.awake} but the "
                    f"network's asleep mask says otherwise (use Network.set_awake)"
                )

    def node(self, validator_id: int) -> NetworkNode:
        return self._nodes[validator_id]

    def set_delay_policy(self, policy: DelayPolicy) -> None:
        """Install the delay policy (adversaries swap it mid-run).

        ``_base_delay`` is the policy's declared recipient-independent
        delay, Δ-clamped (None when it has to be asked per recipient).
        It is also ``_fixed_delay`` — the whole-fan-out-in-one-event fast
        path — unless the fault plan has message faults: then
        ``_msg_faults`` points at the plan and every fan-out asks it first.
        """

        fixed = getattr(policy, "fixed_delay", None)
        if fixed is not None:
            fixed = max(0, min(fixed, self._delta))
        plan = self.fault_plan
        live = plan is not None and plan.has_message_faults
        self._policy = policy
        self._base_delay = fixed
        self._msg_faults = plan if live else None
        self._fixed_delay = None if live else fixed

    # -- sending -----------------------------------------------------------

    def broadcast(self, envelope: Envelope) -> None:
        """Send ``envelope`` from its signer to every validator.

        The signature is verified once here; an invalid signature is a
        simulator bug (honest code signs correctly, Byzantine code owns its
        keys), so it raises rather than being silently dropped.  Every
        recipient then shares this one verified envelope object.
        """

        self._registry.require_valid(envelope.signature, envelope.payload.digest())
        self.stats.sends += 1
        if self.egress is not None:
            self.egress(envelope, self._sim._now + self._delta)
        sender = envelope.sender
        bit = self._bit.get(sender, 0)
        if not bit:
            self._fan_out(sender, envelope, self._all)
            return
        # Recipients before and after the sender form two contiguous
        # scheduling segments: the sender's synchronous self-delivery may
        # itself schedule events (forwards), so each segment is scheduled
        # in place to keep the global (time, priority, seq) order identical
        # to scheduling every recipient individually.
        self._fan_out(sender, envelope, bit - 1)
        self._deliver(sender, envelope)
        self._fan_out(sender, envelope, self._all & -(bit << 1))

    def forward(self, forwarder_id: int, envelope: Envelope) -> None:
        """Re-broadcast a received envelope on behalf of ``forwarder_id``.

        The envelope keeps its original signer; the forwarder only pays the
        traffic.  Self-delivery is skipped (the forwarder already has it),
        and the original sender is skipped too — it certainly has its own
        message, and skipping it keeps delivery counts tight.
        """

        self.stats.sends += 1
        if self.egress is not None:
            self.egress(envelope, self._sim._now + self._delta)
        bit = self._bit.get
        plan = self._all & ~(bit(forwarder_id, 0) | bit(envelope.signature.signer, 0))
        delay = self._fixed_delay
        if delay is None:
            self._fan_out(forwarder_id, envelope, plan)
        elif plan:  # _fan_out's fixed-delay case, inlined: n forwards per envelope
            self._sim.schedule_callback(
                self._sim._now + delay,
                _DELIVERY,
                partial(self._deliver_mask, plan, envelope),
            )

    def send_direct(self, envelope: Envelope, recipient: int, delay: int) -> None:
        """Byzantine-only: a targeted send with an explicit delay.

        Honest validators always broadcast; the adversary may send
        different messages to different validators.  ``delay`` is still
        clamped to Delta.
        """

        self._registry.require_valid(envelope.signature, envelope.payload.digest())
        self.stats.sends += 1
        delay = max(0, min(delay, self._delta))
        self._sim.schedule_callback(
            self._sim.now + delay,
            _DELIVERY,
            partial(self._deliver, recipient, envelope),
        )

    def _fan_out(self, origin: int, envelope: Envelope, plan: int) -> None:
        """Schedule ``envelope`` from ``origin`` to the recipients in ``plan``.

        One batched delivery event per distinct delay: a single one under
        a recipient-independent delay, otherwise one per delay the policy
        and the fault plan's spikes assign to the recipients the plan
        keeps.  Within a batch recipients are visited in registration
        order — the order individual per-recipient events would have
        executed in, since their sequence numbers would have been
        consecutive.  A duplicated copy is a bit of the batch's ``dup``
        mask: the recipient is visited twice *in place*.
        """

        if not plan:
            return
        now = self._sim._now
        schedule = self._sim.schedule_callback
        delay = self._fixed_delay
        if delay is not None:
            schedule(now + delay, _DELIVERY, partial(self._deliver_mask, plan, envelope))
            return
        kept, dup, spiked, late = plan, 0, 0, 0
        faults = self._msg_faults
        if faults is not None:
            kept, dup, spiked = faults.decide(origin, self._ids, plan, envelope, now)
            self.fault_drops += (plan ^ kept).bit_count()
            self.fault_duplicates += dup.bit_count()
            self.fault_spikes += spiked.bit_count()
            late = spiked and faults.spike_ticks
        base = self._base_delay
        if base is not None:
            # ``spiked`` is a subset of ``kept``; first-seen delay first.
            if not spiked:
                batches = ((base, kept),)
            elif spiked & -kept:
                batches = ((base + late, spiked), (base, kept ^ spiked))
            else:
                batches = ((base, kept ^ spiked), (base + late, spiked))
        else:
            groups: dict[int, int] = {}
            policy_delay = self._policy.delay
            delta = self._delta
            for vid, bit in self._bit.items():
                if kept & bit:
                    delay = max(0, min(policy_delay(origin, vid, envelope, now), delta))
                    if spiked & bit:
                        delay += late
                    groups[delay] = groups.get(delay, 0) | bit
            batches = groups.items()
        for delay, mask in batches:
            if mask:
                schedule(
                    now + delay,
                    _DELIVERY,
                    partial(self._deliver_mask, mask, envelope, dup & mask),
                )

    def ingress(self, envelope: Envelope, tick: int) -> None:
        """Deliver a remote envelope to every hosted node at ``tick``.

        Scheduled at DELIVERY priority like any fan-out batch, so sleep
        buffering, dedup and accounting are the local path's.
        """

        self._sim.schedule_callback(
            tick, _DELIVERY, partial(self._deliver_mask, self._all, envelope)
        )

    # -- delivery ----------------------------------------------------------

    def _recipients(self, todo: int, dup: int) -> list:
        """``(node, dedup_capable)`` pairs for the bits of ``todo``, lowest
        first; a ``dup`` bit yields its pair twice, in place."""

        order = self._order
        pairs: list = []
        while todo:
            low = todo & -todo
            todo ^= low
            pair = order[low.bit_length() - 1]
            pairs.append(pair)
            if dup & low:
                pairs.append(pair)
        return pairs

    def _deliver_mask(self, plan: int, envelope: Envelope, dup: int = 0) -> None:
        """Deliver one shared envelope to the nodes in ``plan``.

        Only recipients that may still need the envelope are touched:
        ``todo`` drops every awake, dedup-capable node whose bit the holder
        table already has for it, and the awake, dedup-capable rest get
        their bits set before anyone handles it.  Asleep nodes buffer
        every copy and always-visited nodes see every copy.  Skipped
        copies are counted like delivered ones, and accounting is
        aggregated over the batch (identical totals to per-recipient
        recording — counters are only read between events).
        """

        always = self._always
        visit = self._asleep | always
        todo = plan
        if plan & ~always:
            # Inlined RunContext.envelope_token pin-read, once per batch.
            ctx = self.run_context
            pin = envelope.__dict__
            if pin.get("_token_ctx") is ctx:
                token = pin["_token"]
            else:
                token = ctx.envelope_token(envelope)
            held = self._holders.get(token, 0)
            todo &= ~held | visit
            fresh = todo & ~visit
            if fresh:
                self._holders[token] = held | fresh
        delivered = plan.bit_count() + dup.bit_count()
        if todo:
            now = self._sim._now
            dup &= visit  # a second copy to a fresh holder is a no-op
            low = todo & -todo
            if dup or (todo + low) & todo:
                pairs = self._recipients(todo, dup)
            else:
                # One run of consecutive bits (a broadcast segment's first
                # delivery, a lone observer or sleeper): a plain slice of
                # the registration order beats walking bits.
                pairs = self._order[low.bit_length() - 1 : todo.bit_length()]
            for node, dedup in pairs:
                if not node.awake:
                    delivered -= 1
                    if self._buffer_while_asleep:
                        self._pending[node.validator_id].append(envelope)
                    else:
                        self.dropped_while_asleep += 1
                elif dedup:
                    node.receive_new(envelope, now)
                else:
                    node.receive(envelope, now)
        if delivered:
            # record_deliveries, inlined for the per-batch hot path
            stats = self.stats
            stats.deliveries += delivered
            stats.weighted_deliveries += envelope.size_units() * delivered
            stats.by_type[type(envelope.payload).__name__] += delivered

    def _deliver(self, recipient: int, envelope: Envelope) -> None:
        node = self._nodes[recipient]
        if not node.awake:
            if self._buffer_while_asleep:
                self._pending[recipient].append(envelope)
            else:
                self.dropped_while_asleep += 1
            return
        self.stats.record_delivery(envelope)
        node.receive(envelope, self._sim.now)

    def flush_pending(self, recipient: int) -> int:
        """Deliver all buffered messages to a validator that just woke up.

        Returns the number of flushed messages.  Called by the sleep
        controller with CONTROL priority, i.e. before same-tick deliveries
        and timers.
        """

        node = self._nodes[recipient]
        if not node.awake:
            raise RuntimeError(f"flush_pending on asleep validator {recipient}")
        buffered = self._pending.pop(recipient, [])
        for envelope in buffered:
            self.stats.record_delivery(envelope)
            node.receive(envelope, self._sim.now)
        return len(buffered)

    def pending_count(self, recipient: int) -> int:
        """Messages buffered for one asleep validator (O(1))."""

        pending = self._pending.get(recipient)
        return len(pending) if pending else 0

    def buffered_envelopes(self):
        """Iterate every sleep-buffered envelope (all recipients).

        Snapshot capture scans these alongside the calendar's in-flight
        deliveries to find views whose protocol state is still reachable.
        """

        for buffered in self._pending.values():
            yield from buffered
