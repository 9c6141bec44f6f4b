"""Unit tests for the analysis layer: latency, metrics, complexity."""

import pytest

from repro.analysis.complexity import classify_complexity, fit_exponent, measure_scaling
from repro.analysis.latency import (
    confirmation_time_ticks,
    confirmation_times_deltas,
    proposal_anchored_latency_deltas,
)
from repro.analysis.metrics import (
    SafetyReport,
    all_confirmed,
    chain_growth,
    check_safety,
    count_new_blocks,
    decided_transactions,
    decision_times_by_view,
    voting_phases_per_block,
)
from repro.trace import DecisionEvent, ProposalEvent, Trace, VotePhaseEvent
from tests.conftest import chain_of, fork_of, make_tx


def _trace_with(decisions=(), proposals=(), votes=()):
    trace = Trace()
    for event in decisions:
        trace.emit_decision(event)
    for event in proposals:
        trace.emit_proposal(event)
    for event in votes:
        trace.emit_vote_phase(event)
    return trace


class TestLatency:
    def test_confirmation_time_ticks(self, genesis):
        tx = make_tx(1, at=10)
        log = genesis.append_block([tx], 0, 0)
        trace = _trace_with(decisions=[DecisionEvent(34, 1, 0, log)])
        assert confirmation_time_ticks(trace, tx) == 24

    def test_unconfirmed_is_none(self):
        trace = _trace_with()
        assert confirmation_time_ticks(trace, make_tx(1)) is None

    def test_confirmation_times_deltas_filters_unconfirmed(self, genesis):
        confirmed = make_tx(1, at=0)
        missing = make_tx(2, at=0)
        log = genesis.append_block([confirmed], 0, 0)
        trace = _trace_with(decisions=[DecisionEvent(8, 1, 0, log)])
        assert confirmation_times_deltas(trace, [confirmed, missing], delta=4) == [2.0]

    def test_proposal_anchored_latency(self, genesis):
        tx = make_tx(1, at=3)
        log = genesis.append_block([tx], 0, 0)
        trace = _trace_with(
            decisions=[DecisionEvent(40, 1, 0, log)],
            proposals=[ProposalEvent(16, 1, 0, log, 0.9)],
        )
        assert proposal_anchored_latency_deltas(trace, tx, delta=4) == 6.0

    def test_proposal_anchored_none_without_batching_proposal(self, genesis):
        tx = make_tx(1)
        log = genesis.append_block([tx], 0, 0)
        trace = _trace_with(decisions=[DecisionEvent(40, 1, 0, log)])
        assert proposal_anchored_latency_deltas(trace, tx, delta=4) is None


class TestSafety:
    def test_compatible_decisions_safe(self):
        log = chain_of(3)
        trace = _trace_with(
            decisions=[
                DecisionEvent(1, 0, 0, log.prefix(2)),
                DecisionEvent(2, 0, 1, log),
            ]
        )
        assert check_safety(trace).safe

    def test_conflicting_decisions_detected(self):
        base = chain_of(1)
        trace = _trace_with(
            decisions=[
                DecisionEvent(1, 0, 0, fork_of(base, 1)),
                DecisionEvent(2, 0, 1, fork_of(base, 2)),
            ]
        )
        report = check_safety(trace)
        assert not report.safe
        assert report.conflict is not None

    def test_same_validator_conflict_detected(self):
        base = chain_of(1)
        trace = _trace_with(
            decisions=[
                DecisionEvent(1, 0, 0, fork_of(base, 1)),
                DecisionEvent(2, 1, 0, fork_of(base, 2)),
            ]
        )
        assert not check_safety(trace).safe

    def test_empty_trace_is_safe(self):
        assert check_safety(_trace_with()).safe

    def test_report_is_truthy(self):
        assert SafetyReport(safe=True)
        assert not SafetyReport(safe=False)


class TestBlockAndPhaseMetrics:
    def test_count_new_blocks_dedupes(self):
        log = chain_of(2)
        trace = _trace_with(
            decisions=[
                DecisionEvent(1, 0, 0, log),
                DecisionEvent(2, 0, 1, log),  # same blocks again
                DecisionEvent(3, 1, 0, log.prefix(2)),
            ]
        )
        assert count_new_blocks(trace) == 2

    def test_genesis_not_counted(self, genesis):
        trace = _trace_with(decisions=[DecisionEvent(1, 0, 0, genesis)])
        assert count_new_blocks(trace) == 0

    def test_voting_phases_per_block(self):
        log = chain_of(2)
        votes = [
            VotePhaseEvent(8, "p", 0, "vote", vid, log) for vid in range(3)
        ] + [VotePhaseEvent(24, "p", 1, "vote", 0, log)]
        trace = _trace_with(decisions=[DecisionEvent(30, 1, 0, log)], votes=votes)
        # 2 distinct vote times / 2 new blocks.
        assert voting_phases_per_block(trace, "p") == 1.0

    def test_voting_phases_none_without_blocks(self):
        trace = _trace_with(votes=[VotePhaseEvent(8, "p", 0, "vote", 0, chain_of(1))])
        assert voting_phases_per_block(trace, "p") is None

    def test_decided_transactions_and_all_confirmed(self, genesis):
        tx_a, tx_b = make_tx(1), make_tx(2)
        log = genesis.append_block([tx_a], 0, 0)
        trace = _trace_with(decisions=[DecisionEvent(1, 0, 0, log)])
        assert decided_transactions(trace) == {1}
        assert all_confirmed(trace, [tx_a])
        assert not all_confirmed(trace, [tx_a, tx_b])

    def test_decision_times_by_view(self):
        log = chain_of(1)
        trace = _trace_with(
            decisions=[
                DecisionEvent(10, 0, 0, log),
                DecisionEvent(8, 0, 1, log),
                DecisionEvent(20, 1, 0, log),
            ]
        )
        assert decision_times_by_view(trace) == {0: 8, 1: 20}

    def test_chain_growth(self):
        trace = _trace_with(decisions=[DecisionEvent(1, 0, 0, chain_of(4))])
        assert chain_growth(trace) == 4


class TestComplexity:
    def test_fit_exponent_exact_power_laws(self):
        ns = [4, 8, 16, 32]
        for power in (1, 2, 3):
            counts = [n**power for n in ns]
            assert fit_exponent(ns, counts) == pytest.approx(power, abs=1e-9)

    def test_fit_with_constant_factor(self):
        ns = [4, 8, 16]
        counts = [7.5 * n**3 for n in ns]
        assert fit_exponent(ns, counts) == pytest.approx(3.0, abs=1e-9)

    def test_fit_requires_two_points(self):
        with pytest.raises(ValueError):
            fit_exponent([4], [16])

    def test_fit_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            fit_exponent([4, 8], [0, 10])

    def test_classify(self):
        assert classify_complexity(3.1) == "O(Ln^3)"
        assert classify_complexity(2.1) == "O(Ln^2)"
        assert classify_complexity(2.5) == "O(Ln^3)"  # boundary inclusive

    def test_measure_scaling(self):
        measurement = measure_scaling("toy", lambda n: float(n**3), ns=[4, 8, 16])
        assert measurement.exponent == pytest.approx(3.0, abs=1e-9)
        assert measurement.complexity_class == "O(Ln^3)"
        assert measurement.ns == (4, 8, 16)
