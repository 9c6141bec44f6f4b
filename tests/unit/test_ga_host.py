"""Unit tests for the standalone GA runner plumbing."""

import pytest

from repro.adversary.base import ByzantineValidator
from repro.baselines.mr_ga import run_mr_ga
from repro.core import GA2_SPEC, GA3_SPEC, run_standalone_ga
from repro.net.network import AwakeMaskError
from repro.sleepy import CorruptionPlan
from tests.conftest import chain_of


class TestRunStandaloneGa:
    def test_byzantine_without_factory_raises(self):
        with pytest.raises(ValueError):
            run_standalone_ga(
                GA2_SPEC,
                n=4,
                delta=4,
                inputs={},
                corruption=CorruptionPlan.static(frozenset({3})),
            )

    def test_validators_without_input_send_nothing(self):
        base = chain_of(1)
        result = run_standalone_ga(
            GA2_SPEC, n=4, delta=4, inputs={0: base, 1: base}  # 2 and 3 input nothing
        )
        senders = {e.validator for e in result.trace.vote_phases}
        assert senders == {0, 1}
        # Non-inputting validators still participate in output phases.
        assert result.outputs[2][0] is not None
        assert base in result.outputs[2][0]  # 2 of 2 senders support base

    def test_no_inputs_no_outputs(self):
        result = run_standalone_ga(GA2_SPEC, n=3, delta=4, inputs={})
        for vid in range(3):
            assert result.outputs[vid][0] == []
            assert result.outputs[vid][1] == []

    def test_result_accessors(self):
        base = chain_of(1)
        result = run_standalone_ga(
            GA3_SPEC, n=4, delta=4, inputs={i: base for i in range(4)}
        )
        assert result.honest_ids == frozenset(range(4))
        participating = result.participating(2)
        assert set(participating) == set(range(4))
        assert result.highest_output(0, 2) == base

    def test_deterministic_given_seed(self):
        base = chain_of(1)
        runs = [
            run_standalone_ga(
                GA2_SPEC, n=5, delta=4, inputs={i: base for i in range(5)}, seed=3
            )
            for _ in range(2)
        ]
        assert runs[0].network.stats.deliveries == runs[1].network.stats.deliveries
        assert runs[0].outputs == runs[1].outputs

    def test_extra_ticks_extend_horizon(self):
        base = chain_of(1)
        result = run_standalone_ga(
            GA2_SPEC, n=3, delta=4, inputs={i: base for i in range(3)}, extra_ticks=10
        )
        assert result.simulator.now == 3 * 4 + 10


class TestRunMrGa:
    def test_byzantine_without_factory_raises(self):
        with pytest.raises(ValueError):
            run_mr_ga(
                n=4,
                delta=4,
                inputs={},
                corruption=CorruptionPlan.static(frozenset({3})),
            )

    def test_outputs_cover_both_grades(self):
        base = chain_of(1)
        result = run_mr_ga(n=4, delta=4, inputs={i: base for i in range(4)})
        for vid in range(4):
            assert set(result.outputs[vid]) == {0, 1}

    def test_participating_accessor(self):
        base = chain_of(1)
        result = run_mr_ga(n=4, delta=4, inputs={i: base for i in range(4)})
        assert set(result.participating(1)) == set(range(4))


class _Poker(ByzantineValidator):
    """Flips an honest validator's ``awake`` flag behind the network's back."""

    def setup(self):
        self._network.node(0).awake = False


@pytest.mark.parametrize(
    "run", [lambda **kw: run_standalone_ga(GA2_SPEC, **kw), run_mr_ga], ids=["ga2", "mr-ga"]
)
def test_ga_runs_check_the_awake_mask(run):
    base = chain_of(1)
    with pytest.raises(AwakeMaskError, match="validator 0"):
        run(
            n=4,
            delta=4,
            inputs={i: base for i in range(3)},
            corruption=CorruptionPlan.static(frozenset({3})),
            byzantine_factory=_Poker,
        )
