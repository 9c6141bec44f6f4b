"""Integration tests for the structural baseline simulators."""

import pytest

from repro.analysis.metrics import check_safety, count_new_blocks, voting_phases_per_block
from repro.baselines import StructuralTob
from repro.baselines.structural_tob import StructuralConfig
from repro.baselines.structure import TABLE1_ORDER, structure_for
from repro.chain.transactions import TransactionPool
from repro.net.network import AwakeMaskError
from repro.sleepy.corruption import CorruptionPlan

BASELINES = [name for name in TABLE1_ORDER if name != "tobsvd"]


class TestStableRuns:
    @pytest.mark.parametrize("name", BASELINES)
    def test_one_block_per_view(self, name):
        structure = structure_for(name)
        config = StructuralConfig(n=6, num_views=3, delta=2, seed=0)
        result = StructuralTob(structure, config).run()
        assert count_new_blocks(result.trace) == 3
        assert check_safety(result.trace).safe

    @pytest.mark.parametrize("name", BASELINES)
    def test_decision_offset_matches_structure(self, name):
        structure = structure_for(name)
        config = StructuralConfig(n=6, num_views=2, delta=2, seed=0)
        result = StructuralTob(structure, config).run()
        for event in result.trace.decisions:
            view_start = result.context.view_start(event.view)
            assert event.time - view_start == structure.best_case_latency_deltas * 2

    @pytest.mark.parametrize("name", BASELINES)
    def test_phases_per_block_matches_structure(self, name):
        structure = structure_for(name)
        config = StructuralConfig(n=6, num_views=3, delta=2, seed=0)
        result = StructuralTob(structure, config).run()
        assert voting_phases_per_block(result.trace, name) == pytest.approx(
            structure.phases_success_view
        )

    @pytest.mark.parametrize("name", BASELINES)
    def test_transactions_flow_through(self, name):
        structure = structure_for(name)
        pool = TransactionPool()
        view_ticks = structure.view_length_deltas * 2
        tx = pool.submit(payload="x", at_time=view_ticks - 1)
        config = StructuralConfig(n=6, num_views=3, delta=2, seed=0)
        result = StructuralTob(structure, config, pool=pool).run()
        event = result.trace.first_decision_containing(tx)
        assert event is not None
        assert event.view == 1


class TestAdversarialRuns:
    @pytest.mark.parametrize("name", ["mmr2", "gl"])
    def test_equivocator_stalls_some_views(self, name):
        structure = structure_for(name)
        config = StructuralConfig(n=10, num_views=12, delta=2, seed=0)
        corruption = CorruptionPlan.static(frozenset(range(6, 10)))
        result = StructuralTob(structure, config, corruption=corruption).run()
        blocks = count_new_blocks(result.trace)
        assert 0 < blocks < 12
        assert check_safety(result.trace).safe

    def test_failure_views_run_view_change_phases(self):
        structure = structure_for("mmr2")  # 3 success phases, 9 on failure
        config = StructuralConfig(n=10, num_views=12, delta=2, seed=0)
        corruption = CorruptionPlan.static(frozenset(range(6, 10)))
        result = StructuralTob(structure, config, corruption=corruption).run()
        failed_views = set(range(12)) - result.successful_views()
        assert failed_views, "adversary never won a view; try another seed"
        for view in failed_views:
            phases = {
                e.phase_label
                for e in result.trace.vote_phases
                if e.view == view and e.protocol == "mmr2"
            }
            assert len(phases) == structure.phases_failure_view


class TestGuards:
    def test_rejects_structures_where_decision_crosses_view(self):
        # TOB-SVD's decisions land in the next view; the structural
        # simulator must refuse it (the real implementation exists).
        with pytest.raises(ValueError):
            StructuralTob(structure_for("tobsvd"), StructuralConfig(n=4, num_views=2))


class TestRunAssembly:
    """What the structural driver gets from :class:`repro.core.world.World`."""

    def test_second_run_installs_nothing_again(self):
        tob = StructuralTob(
            structure_for("mmr2"),
            StructuralConfig(n=6, num_views=3, delta=2, seed=1),
            corruption=CorruptionPlan.static(frozenset({5})),
        )

        def outcome(result):
            return (
                [(e.time, e.view, e.validator, e.log.log_id) for e in result.trace.decisions],
                result.simulator.events_processed,
            )

        first = outcome(tob.run())
        assert first[0]
        # At the parent commit the second run() wrote every CONTROL and
        # TIMER event into the calendar a second time.
        assert outcome(tob.run()) == first
        assert tob.simulator.pending_count() == 0

    def test_run_fails_when_the_awake_mask_went_stale(self):
        tob = StructuralTob(structure_for("gl"), StructuralConfig(n=4, num_views=2, delta=2))
        tob.validators[2].awake = False  # bypasses Network.set_awake
        with pytest.raises(AwakeMaskError, match="validator 2"):
            tob.run()


class TestForwardingSplit:
    def test_forwarding_protocols_deliver_more(self):
        n = 8
        config = StructuralConfig(n=n, num_views=2, delta=2, seed=0)
        forwarding = StructuralTob(structure_for("gl"), config).run()
        config2 = StructuralConfig(n=n, num_views=2, delta=2, seed=0)
        flat = StructuralTob(structure_for("mmr13"), config2).run()
        per_phase_forwarding = forwarding.network.stats.deliveries / max(
            1, len(forwarding.trace.vote_phase_times("gl"))
        )
        per_phase_flat = flat.network.stats.deliveries / max(
            1, len(flat.trace.vote_phase_times("mmr13"))
        )
        assert per_phase_forwarding > 2 * per_phase_flat
