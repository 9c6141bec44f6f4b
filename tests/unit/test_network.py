"""Unit tests for messages, delay policies and the network."""

import random

import pytest

from repro.chain.log import Log
from repro.core.validator import BaseValidator
from repro.crypto.signatures import KeyRegistry, Signature
from repro.harness import stable_scenario
from repro.net.delays import (
    AdversarialDelay,
    EagerDelay,
    RandomDelay,
    SplitDelay,
    UniformDelay,
)
from repro.net.messages import Envelope, LogMessage, ProposalMessage, VoteMessage
from repro.net.network import AwakeMaskError, Network
from repro.crypto.vrf import VRF
from repro.sim.simulator import Simulator
from tests.conftest import chain_of

DELTA = 4


class RecordingNode:
    """Minimal NetworkNode capturing deliveries."""

    def __init__(self, vid: int, awake: bool = True):
        self.validator_id = vid
        self.awake = awake
        self.received: list[tuple[object, int]] = []

    def receive(self, envelope, time):
        self.received.append((envelope, time))


def build_network(n=3, policy=None, seed=0):
    sim = Simulator(seed=seed)
    registry = KeyRegistry(n, seed=seed)
    network = Network(sim, DELTA, registry, policy or UniformDelay(DELTA))
    nodes = [RecordingNode(i) for i in range(n)]
    for node in nodes:
        network.register(node)
    return sim, registry, network, nodes


def signed(registry, vid, payload) -> Envelope:
    return Envelope(payload=payload, signature=registry.key_for(vid).sign(payload.digest()))


class TestMessages:
    def test_log_message_digest_depends_on_key_and_log(self):
        a = LogMessage(ga_key=("x", 0), log=chain_of(1))
        b = LogMessage(ga_key=("x", 1), log=chain_of(1))
        c = LogMessage(ga_key=("x", 0), log=chain_of(2))
        assert len({a.digest(), b.digest(), c.digest()}) == 3

    def test_vote_and_log_digests_differ(self):
        log = chain_of(1)
        assert LogMessage(("k", 0), log).digest() != VoteMessage(("k", 0), log).digest()

    def test_proposal_digest_includes_vrf(self):
        log = chain_of(1)
        vrf = VRF(0)
        a = ProposalMessage(0, log, vrf.evaluate(0, 0))
        b = ProposalMessage(0, log, vrf.evaluate(1, 0))
        assert a.digest() != b.digest()

    def test_envelope_identity_content_based(self):
        registry = KeyRegistry(2)
        payload = LogMessage(("k", 0), chain_of(1))
        e1 = signed(registry, 0, payload)
        e2 = signed(registry, 0, payload)
        assert e1.envelope_id == e2.envelope_id
        assert e1.envelope_id != signed(registry, 1, payload).envelope_id

    def test_size_units(self):
        registry = KeyRegistry(1)
        log_env = signed(registry, 0, LogMessage(("k", 0), chain_of(3)))
        assert log_env.size_units() == 4  # genesis + 3 blocks


class TestDelayPolicies:
    def test_uniform(self):
        assert UniformDelay(DELTA).delay(0, 1, None, 0) == DELTA

    def test_eager(self):
        assert EagerDelay(DELTA).delay(0, 1, None, 0) == 1

    def test_random_within_bounds(self):
        policy = RandomDelay(DELTA, random.Random(0), min_ticks=1)
        for _ in range(50):
            assert 1 <= policy.delay(0, 1, None, 0) <= DELTA

    def test_random_bad_bounds_rejected(self):
        with pytest.raises(ValueError):
            RandomDelay(DELTA, random.Random(0), min_ticks=DELTA + 1)

    def test_split(self):
        policy = SplitDelay(DELTA, fast_recipients={1}, fast_ticks=0)
        assert policy.delay(0, 1, None, 0) == 0
        assert policy.delay(0, 2, None, 0) == DELTA

    def test_adversarial_override_and_clamp(self):
        policy = AdversarialDelay(DELTA, UniformDelay(DELTA))
        policy.delay_sender(0, ticks=99)  # clamped to Delta
        policy.delay_link(1, 2, ticks=1)
        assert policy.delay(0, 1, None, 0) == DELTA
        assert policy.delay(1, 2, None, 0) == 1
        assert policy.delay(2, 1, None, 0) == DELTA  # falls through to base


class TestNetwork:
    def test_broadcast_reaches_everyone_by_delta(self):
        sim, registry, network, nodes = build_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        sim.run_until(DELTA)
        for node in nodes:
            assert len(node.received) == 1

    def test_self_delivery_immediate(self):
        sim, registry, network, nodes = build_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        # Before running the loop past time 0, the sender has it already.
        sim.run_until(0)
        assert len(nodes[0].received) == 1
        assert all(len(nodes[i].received) == 0 for i in (1, 2))

    def test_invalid_signature_raises(self):
        sim, registry, network, nodes = build_network()
        payload = LogMessage(("k", 0), chain_of(1))
        forged = Envelope(
            payload=payload,
            signature=Signature(signer=0, payload_digest=payload.digest(), tag="bad"),
        )
        with pytest.raises(Exception):
            network.broadcast(forged)

    def test_sleep_buffering_and_flush(self):
        sim, registry, network, nodes = build_network()
        nodes[1].awake = False
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        sim.run_until(DELTA)
        assert nodes[1].received == []
        assert network.pending_count(1) == 1
        nodes[1].awake = True
        flushed = network.flush_pending(1)
        assert flushed == 1
        assert len(nodes[1].received) == 1

    def test_flush_asleep_node_raises(self):
        _sim, _registry, network, nodes = build_network()
        nodes[2].awake = False
        with pytest.raises(RuntimeError):
            network.flush_pending(2)

    def test_forward_skips_origin_and_forwarder(self):
        sim, registry, network, nodes = build_network(n=4)
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.forward(1, env)
        sim.run_until(DELTA)
        assert len(nodes[0].received) == 0  # original sender skipped
        assert len(nodes[1].received) == 0  # forwarder skipped
        assert len(nodes[2].received) == 1
        assert len(nodes[3].received) == 1

    def test_send_direct_only_target(self):
        sim, registry, network, nodes = build_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.send_direct(env, recipient=2, delay=2)
        sim.run_until(DELTA)
        assert len(nodes[2].received) == 1
        assert len(nodes[1].received) == 0

    def test_delay_clamped_to_delta(self):
        sim, registry, network, nodes = build_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.send_direct(env, recipient=1, delay=999)
        sim.run_until(DELTA)
        assert len(nodes[1].received) == 1  # arrived by Delta despite delay=999

    def test_stats_count_weighted_deliveries(self):
        sim, registry, network, nodes = build_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(2)))
        network.broadcast(env)
        sim.run_until(DELTA)
        assert network.stats.sends == 1
        assert network.stats.deliveries == 3
        assert network.stats.weighted_deliveries == 9  # 3 deliveries x len-3 log
        assert network.stats.by_type["LogMessage"] == 3

    def test_duplicate_registration_rejected(self):
        _sim, _registry, network, _nodes = build_network()
        with pytest.raises(ValueError):
            network.register(RecordingNode(0))


class DedupNode(BaseValidator):
    """A dedup-capable validator that records what it handles.

    It counts the network's post-dedup visits (``receive_new``), so a
    test can tell a delivery from a skip on the holder table.
    """

    def __init__(self, vid, registry, sim, network):
        super().__init__(vid, registry.key_for(vid), sim, network, None)
        self.handled = []
        self.visits = 0

    def receive_new(self, envelope, time):
        self.visits += 1
        super().receive_new(envelope, time)

    def handle_envelope(self, envelope, time):
        self.handled.append(envelope)


def holds(network, node, envelope):
    """Whether the network's holder table has ``node``'s bit for ``envelope``."""

    token = network.run_context.envelope_token(envelope)
    return bool(network._holders.get(token, 0) & network._bit[node.validator_id])


def build_dedup_network(n=4, spare=1, **kwargs):
    """``n`` registered DedupNodes; the registry holds ``spare`` more keys."""

    sim = Simulator()
    registry = KeyRegistry(n + spare, seed=0)
    network = Network(sim, DELTA, registry, UniformDelay(DELTA), **kwargs)
    nodes = [DedupNode(vid, registry, sim, network) for vid in range(n)]
    for node in nodes:
        network.register(node)
    return sim, registry, network, nodes


class DuplicateTo:
    """Fault-plan stub: every send to one recipient is delivered twice."""

    has_message_faults = True

    def __init__(self, recipient):
        self.recipient = recipient

    def decide(self, origin, ids, plan, envelope, time):
        return plan, plan & 1 << ids.index(self.recipient), 0


class TestMaskPlans:
    def test_register_after_traffic_joins_later_broadcasts_only(self):
        sim, registry, network, nodes = build_dedup_network(n=3)
        first = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(first)  # in flight: its plan predates the newcomer
        late = DedupNode(3, registry, sim, network)
        network.register(late)
        sim.run_until(DELTA)
        assert late.handled == []
        second = signed(registry, 1, LogMessage(("k", 1), chain_of(1)))
        network.broadcast(second)
        network.forward(2, first)
        sim.run_until(2 * DELTA)
        assert late.handled == [second, first]
        assert network.stats.deliveries == 3 + 4 + 2

    def test_forward_by_unregistered_forwarder_reaches_all_but_signer(self):
        sim, registry, network, nodes = build_dedup_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.forward(99, env)
        sim.run_until(DELTA)
        assert [len(node.handled) for node in nodes] == [0, 1, 1, 1]

    def test_forward_of_unregistered_signers_envelope_skips_only_forwarder(self):
        sim, registry, network, nodes = build_dedup_network()
        env = signed(registry, 4, LogMessage(("k", 0), chain_of(1)))  # spare key
        network.forward(1, env)
        sim.run_until(DELTA)
        assert [len(node.handled) for node in nodes] == [1, 0, 1, 1]
        assert network.stats.deliveries == 3

    def test_duplicated_copy_reaches_an_observer_twice_in_place(self):
        sim = Simulator()
        registry = KeyRegistry(4, seed=0)
        network = Network(
            sim, DELTA, registry, UniformDelay(DELTA), fault_plan=DuplicateTo(2)
        )
        arrivals = []

        class Watcher(RecordingNode):
            def receive(self, envelope, time):
                arrivals.append(self.validator_id)

        for vid in range(4):
            network.register(Watcher(vid))
        network.broadcast(signed(registry, 0, LogMessage(("k", 0), chain_of(1))))
        sim.run_until(DELTA)
        assert arrivals == [0, 1, 2, 2, 3]
        assert network.fault_duplicates == 1
        assert network.stats.deliveries == 5

    def test_duplicated_copy_to_a_sleeper_is_buffered_twice(self):
        sim, registry, network, nodes = build_dedup_network(
            fault_plan=DuplicateTo(2)
        )
        network.set_awake(2, False)
        network.broadcast(signed(registry, 0, LogMessage(("k", 0), chain_of(1))))
        sim.run_until(DELTA)
        assert network.pending_count(2) == 2
        assert network.stats.deliveries == 3  # self + two awake recipients
        network.set_awake(2, True)
        assert network.flush_pending(2) == 2
        assert len(nodes[2].handled) == 1
        assert network.stats.deliveries == 5

    def test_one_plan_serves_two_networks_with_different_bit_orders(self):
        # Masks are in a network's registration order and the plan keeps
        # what it derives per order: sharing one plan object must hand
        # each network the decisions of its own recipients.
        from repro.faults import FaultSpec

        spec = FaultSpec(
            seed=4, drop_rate=0.3, duplicate_rate=0.3, delay_spike_rate=0.3,
            partitions=1, partition_view=0,
        )
        shared = spec.compile(n=6, delta=DELTA, horizon=64)
        registry = KeyRegistry(6, seed=0)
        envelopes = [
            signed(registry, vid, LogMessage(("k", vid), chain_of(1)))
            for vid in range(6)
        ]

        def world(order):
            sim = Simulator()
            network = Network(sim, DELTA, registry, UniformDelay(DELTA), fault_plan=shared)
            nodes = {vid: RecordingNode(vid) for vid in order}
            for node in nodes.values():
                network.register(node)
            return sim, network, nodes

        # By definition, from a plan of its own: self-delivery at once,
        # every other copy at Δ plus its spike.
        reference = spec.compile(n=6, delta=DELTA, horizon=64)
        want = {vid: [] for vid in range(6)}
        for envelope in envelopes:
            sender = envelope.sender
            want[sender].append((0, envelope.envelope_id))
            for vid in set(range(6)) - {sender}:
                at = DELTA + reference.spike(sender, vid, envelope, 0)
                copies = reference.copies(sender, vid, envelope, 0)
                want[vid] += [(at, envelope.envelope_id)] * copies
        assert any(len(arrivals) != 6 for arrivals in want.values())  # faults fired

        worlds = [world(range(6)), world((5, 3, 1, 0, 2, 4))]
        for envelope in envelopes:
            for _sim, network, _nodes in worlds:
                network.broadcast(envelope)
        for sim, _network, nodes in worlds:
            sim.run_to_exhaustion()
            for vid, node in nodes.items():
                got = sorted((time, e.envelope_id) for e, time in node.received)
                assert got == sorted(want[vid])

    def test_envelope_learned_via_send_direct_is_visited_once_then_skipped(self):
        sim, registry, network, nodes = build_dedup_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.send_direct(env, recipient=1, delay=0)
        sim.run_until(0)
        assert nodes[1].handled == [env]
        assert holds(network, nodes[1], env)  # receive set the bit itself
        assert nodes[1].visits == 0
        for forwarder in (2, 3):
            network.forward(forwarder, env)  # counted, not visited
            sim.run_until(sim.now + DELTA)
            assert nodes[1].visits == 0
        assert nodes[1].handled == [env]
        assert network.stats.deliveries == 1 + 2 + 2

    def test_envelope_learned_via_sleep_flush_is_visited_once_then_skipped(self):
        sim, registry, network, nodes = build_dedup_network()
        network.set_awake(1, False)
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        sim.run_until(DELTA)
        assert not holds(network, nodes[1], env)  # buffered, not held
        network.set_awake(1, True)
        assert network.flush_pending(1) == 1
        assert holds(network, nodes[1], env)
        for forwarder in (2, 3):
            network.forward(forwarder, env)
            sim.run_until(sim.now + DELTA)
            assert nodes[1].visits == 0
        assert nodes[1].handled == [env]
        assert [node.visits for node in nodes] == [0, 0, 1, 1]

    def test_sleep_after_the_seen_bit_is_set_still_buffers(self):
        sim, registry, network, nodes = build_dedup_network()
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        sim.run_until(DELTA)
        assert nodes[1].handled == [env]
        assert nodes[1].visits == 1 and holds(network, nodes[1], env)
        network.set_awake(1, False)
        network.forward(2, env)
        sim.run_until(2 * DELTA)
        assert network.pending_count(1) == 1
        assert network.stats.deliveries == 4 + 1  # node 3 only; node 1 asleep
        network.set_awake(1, True)
        assert network.flush_pending(1) == 1
        assert network.stats.deliveries == 6
        assert nodes[1].handled == [env]
        assert nodes[1].visits == 1

    def test_copy_dropped_while_asleep_does_not_mark_the_node_seen(self):
        sim, registry, network, nodes = build_dedup_network(
            buffer_while_asleep=False
        )
        network.set_awake(1, False)
        env = signed(registry, 0, LogMessage(("k", 0), chain_of(1)))
        network.broadcast(env)
        sim.run_until(DELTA)
        assert network.dropped_while_asleep == 1
        network.set_awake(1, True)
        network.forward(2, env)  # the echo is node 1's first real copy
        sim.run_until(2 * DELTA)
        assert nodes[1].handled == [env]


class TestAwakeMask:
    def test_set_awake_keeps_flag_and_mask_in_step(self):
        _sim, _registry, network, nodes = build_dedup_network()
        network.set_awake(2, False)
        assert not nodes[2].awake
        network.check_awake_mask()
        network.set_awake(2, True)
        assert nodes[2].awake
        network.check_awake_mask()

    def test_node_registered_asleep_is_known_asleep(self):
        sim, registry, network, nodes = build_dedup_network(n=2, spare=1)
        late = DedupNode(2, registry, sim, network)
        late.awake = False  # not registered yet: nothing to mirror
        network.register(late)
        network.check_awake_mask()

    def test_direct_poke_on_a_dedup_capable_node_is_caught(self):
        _sim, _registry, network, nodes = build_dedup_network()
        nodes[2].awake = False
        with pytest.raises(AwakeMaskError, match="validator 2"):
            network.check_awake_mask()

    def test_plain_recording_nodes_may_poke_the_attribute(self):
        _sim, _registry, network, nodes = build_network()
        nodes[1].awake = False
        network.check_awake_mask()

    def test_finish_fails_a_run_whose_mask_went_stale(self):
        protocol = stable_scenario(n=4, num_views=2)
        protocol.start()
        protocol.advance(protocol.config.horizon)
        protocol.finish()  # consistent: passes
        protocol.validators[3].awake = False  # bypasses Network.set_awake
        with pytest.raises(AwakeMaskError, match="validator 3"):
            protocol.finish()
