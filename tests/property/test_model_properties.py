"""Property-based tests for the analytic structure model and the VRF."""

from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.aggregation import aggregated_latency
from repro.baselines.structure import ProtocolStructure
from repro.crypto.vrf import VRF


@st.composite
def structures(draw):
    success = draw(st.integers(1, 12))
    return ProtocolStructure(
        name="synthetic",
        display_name="Synthetic",
        resilience=Fraction(1, 2),
        view_length_deltas=draw(st.integers(1, 20)),
        best_case_latency_deltas=draw(st.integers(1, 20)),
        phases_success_view=success,
        phases_failure_view=draw(st.integers(success, 20)),
        forwards_messages=draw(st.booleans()),
        paper_tx_expected_deltas=0.0,
    )


p_goods = st.floats(min_value=0.05, max_value=1.0, allow_nan=False)


class TestLatencyIdentities:
    @given(structures(), p_goods)
    def test_expected_at_least_best(self, structure, p_good):
        assert structure.expected_latency_deltas(p_good) >= structure.best_case_latency_deltas

    @given(structures(), p_goods)
    def test_tx_expected_exceeds_expected_by_half_view(self, structure, p_good):
        diff = structure.transaction_expected_latency_deltas(
            p_good
        ) - structure.expected_latency_deltas(p_good)
        assert abs(diff - structure.view_length_deltas / 2.0) < 1e-9

    @given(structures(), p_goods, p_goods)
    def test_expected_monotone_in_leader_quality(self, structure, p_a, p_b):
        lo, hi = sorted((p_a, p_b))
        assert structure.expected_latency_deltas(hi) <= structure.expected_latency_deltas(lo)

    @given(structures())
    def test_perfect_leaders_give_best_case(self, structure):
        assert structure.expected_latency_deltas(1.0) == structure.best_case_latency_deltas
        assert structure.voting_phases_expected(1.0) == structure.phases_success_view

    @given(structures(), p_goods)
    def test_phase_metric_bounds(self, structure, p_good):
        expected = structure.voting_phases_expected(p_good)
        assert expected >= structure.voting_phases_best()

    @given(structures())
    def test_complexity_classification_consistent(self, structure):
        if structure.forwards_messages:
            assert structure.communication_complexity() == "O(Ln^3)"
            assert structure.message_exponent() == 3
        else:
            assert structure.communication_complexity() == "O(Ln^2)"
            assert structure.message_exponent() == 2


class TestAggregationPricing:
    @given(structures(), p_goods)
    def test_pricing_adds_exactly_the_phase_counts(self, structure, p_good):
        priced = aggregated_latency(structure, p_good)
        assert (
            priced.best_case_deltas
            == structure.best_case_latency_deltas + structure.phases_success_view
        )
        assert priced.view_length_deltas == (
            structure.view_length_deltas + structure.phases_failure_view
        )

    @given(structures(), p_goods)
    def test_priced_expected_at_least_priced_best(self, structure, p_good):
        priced = aggregated_latency(structure, p_good)
        assert priced.expected_deltas >= priced.best_case_deltas


class TestVrfDistribution:
    @given(st.integers(0, 1000), st.integers(2, 40))
    # No deadline: the property is statistical, and the body's 20·n² VRF
    # evaluations (32,000 at n=40) take a wall time that only says how
    # busy the machine is.
    @settings(max_examples=30, deadline=None)
    def test_every_validator_eventually_leads(self, seed, n):
        vrf = VRF(seed=seed)
        leaders = {vrf.best(list(range(n)), view).validator_id for view in range(20 * n)}
        assert len(leaders) >= n * 0.7  # no validator is systematically excluded

    @given(st.integers(0, 500))
    @settings(max_examples=30)
    def test_honest_leader_frequency_tracks_honest_fraction(self, seed):
        vrf = VRF(seed=seed)
        n, f = 10, 4
        honest = set(range(n - f))
        wins = sum(
            1 for view in range(300) if vrf.best(list(range(n)), view).validator_id in honest
        )
        frequency = wins / 300
        assert abs(frequency - 0.6) < 0.12

    @given(st.integers(0, 100), st.integers(0, 50))
    @settings(max_examples=30)
    def test_outputs_verify_and_forgeries_fail(self, seed, view):
        vrf = VRF(seed=seed)
        out = vrf.evaluate(3, view)
        assert vrf.verify(out)
        other = VRF(seed=seed + 1)
        assert not other.verify(out) or other.evaluate(3, view).proof == out.proof
