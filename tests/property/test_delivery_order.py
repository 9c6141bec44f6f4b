"""Delivery-order invariants under shared-fanout batching.

The network delivers one shared envelope object per broadcast/forward
through batched fanout events, and buffers deliveries to asleep nodes
for flush-on-wake.  These tests pin the two order guarantees the
protocols rely on:

* per recipient, deliveries arrive in exactly the ``(time, priority,
  seq)`` order the un-batched per-recipient scheduling would have
  produced — checked by running identical randomized workloads through
  the bucket scheduler and the :class:`HeapSimulator` oracle and
  requiring identical per-recipient sequences;
* sleep-buffered envelopes are flushed in original delivery order,
  before any same-tick delivery or timer (CONTROL priority);
* the mask recipient plans (holder table / asleep / always-visit masks, the
  fault plan's kept / ``dup`` / spiked masks over a uniform, a split and
  an RNG-consuming base delay) are observably identical to a naive
  per-recipient reference (:mod:`tests.naive_network`): receive
  sequences, every counter, buffer contents and ``events_processed``.
"""

import random
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.validator import BaseValidator
from repro.crypto.signatures import KeyRegistry
from repro.faults import FaultSpec
from repro.net.delays import RandomDelay, SplitDelay, UniformDelay
from repro.net.messages import Envelope, LogMessage, RecoveryMessage
from repro.net.network import Network
from repro.sim.simulator import EventPriority, Simulator
from tests.conftest import chain_of
from tests.naive_network import NaiveNetwork
from tests.naive_oracles import HeapSimulator


class RecordingNode:
    """Minimal NetworkNode: records every delivery, no dedup opt-in."""

    def __init__(self, validator_id):
        self.validator_id = validator_id
        self.awake = True
        self.log = []

    def receive(self, envelope, time):
        self.log.append((time, envelope.payload.requested_at, envelope.sender))


def build_world(sim, n, registry, policy):
    network = Network(sim, delta=3, registry=registry, delay_policy=policy)
    nodes = [RecordingNode(vid) for vid in range(n)]
    for node in nodes:
        network.register(node)
    return network, nodes


@st.composite
def workloads(draw):
    """(n, script) — timed broadcasts/forwards plus sleep/wake toggles."""

    n = draw(st.integers(2, 5))
    script = draw(
        st.lists(
            st.one_of(
                st.tuples(
                    st.just("bcast"),
                    st.integers(0, 10),  # time
                    st.integers(0, n - 1),  # sender
                    st.integers(0, 50),  # payload tag
                ),
                st.tuples(
                    st.just("sleep"),
                    st.integers(0, 10),
                    st.integers(0, n - 1),
                    st.just(0),
                ),
                st.tuples(
                    st.just("wake"),
                    st.integers(1, 12),
                    st.integers(0, n - 1),
                    st.just(0),
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    split = draw(st.booleans())
    return n, script, split


def run_workload(sim, n, script, split):
    registry = KeyRegistry(n, seed=3)
    # SplitDelay exercises the per-recipient slow path; UniformDelay the
    # shared-fanout fast path.  Both must produce the same guarantees.
    policy = (
        SplitDelay(delta=3, fast_recipients={0}, fast_ticks=0)
        if split
        else UniformDelay(3)
    )
    network, nodes = build_world(sim, n, registry, policy)

    def do(op, vid, tag):
        node = nodes[vid]
        if op == "bcast":
            payload = RecoveryMessage(requested_at=tag)
            envelope = Envelope(
                payload=payload, signature=registry.key_for(vid).sign(payload.digest())
            )
            network.broadcast(envelope)
            # Forward on behalf of the next node, like protocol echo does.
            network.forward((vid + 1) % n, envelope)
        elif op == "sleep":
            node.awake = False
        else:  # wake
            if not node.awake:
                node.awake = True
                network.flush_pending(vid)

    for op, time, vid, tag in script:
        priority = (
            EventPriority.CONTROL if op in ("sleep", "wake") else EventPriority.TIMER
        )
        sim.schedule_callback(time, priority, lambda o=op, v=vid, g=tag: do(o, v, g))
    sim.run_until(30)
    # Final flush so buffered messages are observable in a fixed order.
    for node in nodes:
        if not node.awake:
            node.awake = True
            network.flush_pending(node.validator_id)
    return [node.log for node in nodes], network.stats


class TestDeliveryOrderInvariants:
    @settings(max_examples=150, deadline=None)
    @given(workloads())
    def test_bucket_and_heap_schedulers_agree_per_recipient(self, data):
        n, script, split = data
        bucket_logs, bucket_stats = run_workload(Simulator(seed=5), n, script, split)
        heap_logs, heap_stats = run_workload(HeapSimulator(seed=5), n, script, split)
        assert bucket_logs == heap_logs
        assert bucket_stats.deliveries == heap_stats.deliveries
        assert bucket_stats.weighted_deliveries == heap_stats.weighted_deliveries
        assert dict(bucket_stats.by_type) == dict(heap_stats.by_type)

    @settings(max_examples=150, deadline=None)
    @given(workloads())
    def test_per_recipient_times_nondecreasing(self, data):
        n, script, split = data
        logs, _ = run_workload(Simulator(seed=5), n, script, split)
        for log in logs:
            times = [t for t, _, _ in log]
            assert times == sorted(times)

    def test_sleep_buffer_flushes_in_original_order_before_timers(self):
        sim = Simulator()
        registry = KeyRegistry(3, seed=1)
        network, nodes = build_world(sim, 3, registry, UniformDelay(2))
        nodes[2].awake = False

        def send(tag, sender):
            payload = RecoveryMessage(requested_at=tag)
            network.broadcast(
                Envelope(
                    payload=payload,
                    signature=registry.key_for(sender).sign(payload.digest()),
                )
            )

        sim.schedule_callback(0, EventPriority.TIMER, lambda: send(1, 0))
        sim.schedule_callback(1, EventPriority.TIMER, lambda: send(2, 1))
        sim.run_until(4)
        assert network.pending_count(2) == 2

        order = []
        nodes[2].log = order

        def wake():
            nodes[2].awake = True
            network.flush_pending(2)

        # Wake at t=5 (CONTROL) with a same-tick timer: flush runs first.
        sim.schedule_callback(5, EventPriority.CONTROL, wake)
        sim.schedule_callback(
            5, EventPriority.TIMER, lambda: order.append(("timer", None, None))
        )
        sim.run_until(5)
        assert [entry[1] for entry in order] == [1, 2, None]


# ---------------------------------------------------------------------------
# Mask plans against the naive per-recipient oracle (tests/naive_network.py)
# ---------------------------------------------------------------------------

DELTA = 3
LATE = 2  # ids n, n+1 may register mid-run; id n+2 never registers


class EchoValidator(BaseValidator):
    """Dedup-capable honest node: records what it handles, echoes it once."""

    def __init__(self, *args):
        super().__init__(*args)
        self.log = []

    def handle_envelope(self, envelope, time):
        self.log.append((time, envelope.envelope_id))
        self.forward(envelope)


class Observer:
    """Non-dedup node (a Byzantine traffic watcher): sees every copy.

    ``naps`` marks a plain recording node that may be put to sleep by a
    direct attribute poke — allowed for always-visited nodes.
    """

    def __init__(self, validator_id, naps):
        self.validator_id = validator_id
        self.awake = True
        self.naps = naps
        self.log = []

    def receive(self, envelope, time):
        self.log.append((time, envelope.envelope_id))


KINDS = ["uniform", "split", "faulty-uniform", "faulty-split", "faulty-random"]


def _policy(kind, n):
    """``(delay policy, fault plan)``; a faulty kind pins which recipients
    the base policy is asked about, and in what order, under drops."""

    faulty, _, base = kind.rpartition("-")
    policy = {
        "uniform": UniformDelay(DELTA),
        "split": SplitDelay(
            delta=DELTA, fast_recipients=set(range(0, n + LATE, 3)),
            fast_ticks=1 if faulty else 0,
        ),
        "random": RandomDelay(DELTA, random.Random(n), min_ticks=0),
    }[base]
    if not faulty:
        return policy, None
    plan = FaultSpec(
        seed=n, drop_rate=0.15, duplicate_rate=0.2,
        delay_spike_rate=0.2, delay_spike_deltas=1,
    ).compile(n=n + LATE + 1, delta=DELTA, horizon=64)
    assert plan.has_message_faults
    return policy, plan


def run_script(network_class, n, script, kind, buffering):
    """Play ``script`` on a fresh world; return everything observable."""

    sim = Simulator(seed=5)
    registry = KeyRegistry(n + LATE + 1, seed=3)
    policy, plan = _policy(kind, n)
    network = network_class(
        sim, DELTA, registry, policy, buffer_while_asleep=buffering, fault_plan=plan
    )
    nodes = {}

    def add(vid):
        if vid % 4 == 3:
            node = Observer(vid, naps=vid % 8 == 7)
        else:
            node = EchoValidator(vid, registry.key_for(vid), sim, network, None)
        nodes[vid] = node
        network.register(node)

    for vid in range(n):
        add(vid)
    envelopes = {}

    def envelope(signer, tag):
        if (signer, tag) not in envelopes:
            payload = (
                LogMessage(("k", tag), chain_of(1 + tag % 3, tag=tag))
                if tag % 2
                else RecoveryMessage(requested_at=tag)
            )
            envelopes[signer, tag] = Envelope(
                payload=payload,
                signature=registry.key_for(signer).sign(payload.digest()),
            )
        return envelopes[signer, tag]

    def set_awake(node, awake):
        if isinstance(node, Observer):
            node.awake = awake  # always visited: the bare attribute is enough
        else:
            network.set_awake(node.validator_id, awake)

    def wake(node):
        if not node.awake:
            set_awake(node, True)
            network.flush_pending(node.validator_id)

    def do(op, a, b, tag):
        if op == "bcast":
            network.broadcast(envelope(a, tag))
        elif op == "fwd":
            network.forward(a, envelope(b, tag))
        elif op == "direct":
            if b in nodes:
                network.send_direct(envelope(a, tag), b, tag % (DELTA + 2))
        elif op == "register":
            late = n + sum(1 for vid in nodes if vid >= n)
            if late < n + LATE:
                add(late)
        elif a in nodes:
            node = nodes[a]
            honest = isinstance(node, EchoValidator) and not node.corrupted
            if op == "sleep" and node.awake and (honest or getattr(node, "naps", False)):
                set_awake(node, False)
            elif op == "wake":
                wake(node)
            elif op == "corrupt" and honest:
                node.corrupted = True  # what SleepController._corrupt does
                wake(node)

    for op, time, a, b, tag in script:
        priority = (
            EventPriority.TIMER
            if op in ("bcast", "fwd", "direct")
            else EventPriority.CONTROL
        )
        sim.schedule_callback(time, priority, partial(do, op, a, b, tag))
    sim.run_until(40)

    def observe():
        stats = network.stats
        return {
            "logs": {vid: list(node.log) for vid, node in nodes.items()},
            "stats": (stats.sends, stats.deliveries, stats.weighted_deliveries),
            "by_type": dict(stats.by_type),
            "faults": (
                network.fault_drops, network.fault_duplicates, network.fault_spikes
            ),
            "dropped_while_asleep": network.dropped_while_asleep,
            "pending": {vid: network.pending_count(vid) for vid in nodes},
            "buffered": [e.envelope_id for e in network.buffered_envelopes()],
            "events": sim.events_processed,
        }

    before_flush = observe()
    for node in nodes.values():
        wake(node)
    sim.run_until(60)  # echoes of flushed envelopes
    return before_flush, observe()


@st.composite
def mask_scripts(draw):
    n = draw(st.sampled_from([2, 3, 5, 9, 70]))
    ids = st.integers(0, n + LATE)  # includes late and never-registered ids
    times = st.integers(0, 12)
    tags = st.integers(0, 5)
    sends = st.tuples(st.sampled_from(["bcast", "fwd", "direct"]), times, ids, ids, tags)
    control = st.tuples(
        st.sampled_from(["sleep", "wake", "sleep", "wake", "corrupt", "register"]),
        times, ids, ids, tags,
    )
    script = draw(st.lists(st.one_of(sends, sends, control), min_size=1, max_size=14))
    return n, script


class TestMaskPlansMatchNaiveOracle:
    @pytest.mark.parametrize("buffering", [True, False])
    @pytest.mark.parametrize("kind", KINDS)
    @settings(max_examples=60, deadline=None)
    @given(data=mask_scripts())
    def test_identical_to_per_recipient_reference(self, kind, buffering, data):
        n, script = data
        got = run_script(Network, n, script, kind, buffering)
        want = run_script(NaiveNetwork, n, script, kind, buffering)
        assert got == want

    def test_plans_cross_the_64_bit_word_boundary(self):
        # Deterministic n=70 echo storm with a sleeper on each side of bit 63.
        script = [
            ("bcast", 0, 1, 0, 1),
            ("sleep", 1, 5, 0, 0),
            ("sleep", 1, 68, 0, 0),
            ("bcast", 2, 69, 0, 2),
            ("register", 3, 0, 0, 0),
            ("fwd", 4, 66, 1, 1),
            ("wake", 9, 68, 0, 0),
            ("bcast", 10, 64, 0, 3),
        ]
        for kind in ("uniform", "faulty-uniform", "faulty-split"):
            got = run_script(Network, 70, script, kind, True)
            assert got == run_script(NaiveNetwork, 70, script, kind, True)
            assert got[0]["pending"][5] > 0 and got[1]["pending"][5] == 0
            assert got[1]["logs"][70]  # the late registrant hears later traffic
