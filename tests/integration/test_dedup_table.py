"""Count guards for the run's dedup and memo state (fast, n=8, 64 views).

Dedup is what makes "honest validators forward every message" finite, so
every run remembers, per envelope, who already holds it.  That memory is
kept once: the network's holder table (interned envelope token → mask of
the validators holding it), shared with every honest validator.  The two
pure memos beside it keep a recent window only — the signature-tag cache
two generations, the VRF memo the views at or above the protocol's
retirement floor (v − 2).  These guards pin each of those shapes, and
that the windows cost no recomputation on the paths they serve: the
proposal verifications of a view, a Byzantine ``send_direct`` fan-out.
"""

import pytest

import repro.crypto.signatures as signatures
import repro.crypto.vrf as vrf_module
from repro.core.validator import BaseValidator
from repro.crypto.signatures import KeyRegistry
from repro.harness import stable_scenario
from repro.net.delays import UniformDelay
from repro.net.messages import Envelope, LogMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from tests.conftest import chain_of

N = 8
NUM_VIEWS = 64


def counting(monkeypatch, module, tag):
    """Count ``module.stable_digest`` calls whose content starts with ``tag``."""

    calls = {"n": 0}
    digest = module.stable_digest

    def counted(obj):
        if obj[0] == tag:
            calls["n"] += 1
        return digest(obj)

    monkeypatch.setattr(module, "stable_digest", counted)
    return calls


@pytest.fixture(scope="module")
def run():
    protocol = stable_scenario(n=N, num_views=NUM_VIEWS, delta=2, seed=0, trace_mode="bounded")
    return protocol, protocol.run()


def test_no_validator_owns_a_dedup_container(run):
    protocol, result = run
    for validator in result.validators.values():
        assert validator._holders is result.network._holders
        assert not any(isinstance(value, (set, frozenset)) for value in vars(validator).values())


def test_one_holder_table_with_one_entry_per_interned_envelope(run):
    _protocol, result = run
    network = result.network
    holders = network._holders
    tokens = network.run_context._envelope_tokens
    assert len(tokens) > N * NUM_VIEWS
    assert sorted(holders) == sorted(tokens.values())
    # Everyone was honest and awake: every envelope reached every validator.
    assert set(holders.values()) == {network._all}


def test_memos_stay_within_their_windows(run):
    protocol, _result = run
    registry = protocol.context.registry
    window = KeyRegistry._TAG_GENERATION
    assert len(registry._tag_cache) <= window
    assert len(registry._tag_cache_old) <= window
    memo = protocol.context.vrf._memo
    # The last decide (view NUM_VIEWS) retired every view below NUM_VIEWS - 2.
    assert set(memo) <= set(range(NUM_VIEWS - 2, NUM_VIEWS + 1))
    assert all(len(outputs) <= N for outputs in memo.values())


def test_vrf_window_costs_no_recomputation(monkeypatch):
    # One VRF hash per validator and proposing view: every verification
    # of a received proposal is a memo hit inside the window.
    vrf_hashes = counting(monkeypatch, vrf_module, "vrf")
    stable_scenario(n=N, num_views=NUM_VIEWS, delta=2, seed=0, trace_mode="bounded").run()
    assert vrf_hashes["n"] == N * NUM_VIEWS


class Sink(BaseValidator):
    def handle_envelope(self, envelope, time):
        pass


def test_send_direct_fan_out_costs_one_tag_hash(monkeypatch):
    simulator = Simulator()
    registry = KeyRegistry(N, seed=0)
    network = Network(simulator, 1, registry, UniformDelay(1))
    for vid in range(N):
        network.register(Sink(vid, registry.key_for(vid), simulator, network, None))
    payload = LogMessage(("k", 0), chain_of(1))
    envelope = Envelope(payload=payload, signature=registry.key_for(0).sign(payload.digest()))
    tag_hashes = counting(monkeypatch, signatures, "sig")
    for recipient in range(N):
        network.send_direct(envelope, recipient, delay=0)
    assert tag_hashes["n"] == 1
    simulator.run_until(1)
    assert network.stats.deliveries == N
