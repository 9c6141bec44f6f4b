"""Unit tests for BaseValidator plumbing and TobSvdConfig."""

import pytest

from repro.core.tobsvd import TobSvdConfig
from repro.core.validator import BaseValidator
from repro.crypto.signatures import KeyRegistry
from repro.net.delays import UniformDelay
from repro.net.messages import Envelope, LogMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.trace import Trace
from tests.conftest import chain_of

DELTA = 4


class EchoValidator(BaseValidator):
    """Records handled envelopes; used to probe the base-class plumbing."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.handled: list[Envelope] = []

    def handle_envelope(self, envelope, time):
        self.handled.append(envelope)


def build(n=3):
    simulator = Simulator()
    registry = KeyRegistry(n, seed=0)
    network = Network(simulator, DELTA, registry, UniformDelay(DELTA))
    trace = Trace()
    validators = [
        EchoValidator(vid, registry.key_for(vid), simulator, network, trace)
        for vid in range(n)
    ]
    for validator in validators:
        network.register(validator)
    return simulator, network, validators


class TestBaseValidator:
    def test_key_mismatch_rejected(self):
        simulator = Simulator()
        registry = KeyRegistry(2, seed=0)
        network = Network(simulator, DELTA, registry, UniformDelay(DELTA))
        with pytest.raises(ValueError):
            EchoValidator(0, registry.key_for(1), simulator, network, Trace())

    def test_broadcast_signs_correctly(self):
        simulator, network, validators = build()
        envelope = validators[0].broadcast(LogMessage(("k", 0), chain_of(1)))
        assert envelope.sender == 0
        simulator.run_until(DELTA)
        assert len(validators[1].handled) == 1

    def test_duplicate_envelopes_deduplicated(self):
        simulator, network, validators = build()
        envelope = validators[0].broadcast(LogMessage(("k", 0), chain_of(1)))
        simulator.run_until(DELTA)
        # A forwarded copy of the same envelope arrives again: dropped.
        network.forward(2, envelope)
        simulator.run_until(2 * DELTA)
        assert len(validators[1].handled) == 1

    def test_corrupted_validator_ignores_messages(self):
        simulator, network, validators = build()
        validators[1].corrupted = True
        validators[0].broadcast(LogMessage(("k", 0), chain_of(1)))
        simulator.run_until(DELTA)
        assert validators[1].handled == []

    def test_timer_skipped_when_asleep(self):
        simulator, network, validators = build()
        fired = []
        validators[0].schedule_timer(5, lambda: fired.append("a"))
        network.set_awake(0, False)
        simulator.run_until(5)
        assert fired == []

    def test_timer_skipped_when_corrupted(self):
        simulator, _network, validators = build()
        fired = []
        validators[0].schedule_timer(5, lambda: fired.append("a"))
        validators[0].corrupted = True
        simulator.run_until(5)
        assert fired == []

    def test_timer_fires_when_awake_and_honest(self):
        simulator, _network, validators = build()
        fired = []
        validators[0].schedule_timer(5, lambda: fired.append("a"))
        simulator.run_until(5)
        assert fired == ["a"]


class TestTobSvdConfig:
    def test_horizon_covers_wrapup_decide(self):
        config = TobSvdConfig(n=4, num_views=3, delta=4)
        assert config.horizon == 3 * 16 + 12

    def test_sleepy_model_parameters(self):
        config = TobSvdConfig(n=4, num_views=2, delta=4)
        assert config.sleepy_model() == (20, 8, 0.5)

    def test_view_length_is_four_deltas(self):
        config = TobSvdConfig(n=4, num_views=2, delta=3)
        assert config.time.view_ticks == 12

    @pytest.mark.parametrize("kwargs", [
        {"n": 0, "num_views": 1},
        {"n": 1, "num_views": 0},
        {"n": 1, "num_views": 1, "delta": 0},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TobSvdConfig(**kwargs)
