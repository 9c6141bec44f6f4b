"""Ablations (EXPERIMENTS.md A1-A7).

Each test exercises one analysis-section claim: the GA properties, the
safety margin at the resilience boundary, good-leader probability, the
necessity of mild adaptivity, the stabilization period, the equivocator
time-shift, and Lemma 4's wake-up-to-decision bound.
"""

from __future__ import annotations

from statistics import mean

import pytest

from repro.adversary import make_ga_attacker_factory, plan_leader_corruption_run
from repro.analysis.metrics import check_safety, count_new_blocks
from repro.core import GA3_SPEC, run_standalone_ga
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.crypto.vrf import VRF
from repro.harness import equivocating_scenario
from repro.sleepy import AwakeSchedule, CorruptionPlan
from tests.conftest import chain_of, fork_of
from tests.integration.ga_properties import all_violations

DELTA = 4
VIEW = 4 * DELTA


class TestAblations:
    def test_ablation_ga_properties(self):
        """A1: GA-3 properties under split equivocation, many seeds."""

        def run():
            failures = 0
            for seed in range(8):
                base = chain_of(1)
                log_a, log_b = fork_of(base, 1), fork_of(base, 2)
                honest = list(range(5))
                inputs = {v: log_a if v % 2 == 0 else log_b for v in honest}
                factory = make_ga_attacker_factory(
                    "split", ga_key=(GA3_SPEC.name, 0), log_a=log_a, log_b=log_b,
                    group_a=honest[0::2], group_b=honest[1::2],
                )
                result = run_standalone_ga(
                    GA3_SPEC, n=9, delta=DELTA, inputs=inputs,
                    corruption=CorruptionPlan.static(frozenset(range(5, 9))),
                    byzantine_factory=factory, seed=seed,
                )
                violations = all_violations(
                    result.outputs, result.honest_ids, 3, [inputs[v] for v in honest]
                )
                failures += bool(violations)
            return failures

        failures = run()
        print(f"\nA1 — GA-3 property violations across 8 adversarial seeds: {failures}")
        assert failures == 0

    def test_ablation_safety_margin(self):
        """A2: safety holds right up to the resilience boundary f = ceil(n/2)-1."""

        def run():
            outcomes = {}
            for n, f in ((9, 4), (10, 4), (11, 5), (12, 5)):
                protocol = equivocating_scenario(n=n, f=f, num_views=10, delta=2, seed=0)
                result = protocol.run()
                outcomes[(n, f)] = (
                    check_safety(result.trace).safe,
                    count_new_blocks(result.trace),
                )
            return outcomes

        outcomes = run()
        print("\nA2 — safety at the resilience boundary:")
        for (n, f), (safe, blocks) in outcomes.items():
            print(f"  n={n:>2} f={f}: safe={safe} blocks={blocks}/10")
            assert safe
            assert blocks > 0

    def test_ablation_good_leader_probability(self):
        """A3 (Lemma 2): a view has a good leader with probability > 1/2."""

        def run():
            vrf = VRF(seed=3)
            n, f = 10, 4
            honest = list(range(n - f))
            good = sum(
                1
                for view in range(400)
                if vrf.best(list(range(n)), view).validator_id in honest
            )
            return good / 400

        p_good = run()
        print(f"\nA3 — empirical good-leader probability at f/n = 0.4: {p_good:.3f}")
        assert p_good > 0.5
        assert p_good == pytest.approx(0.6, abs=0.08)

    def test_ablation_mild_adaptivity(self):
        """A4: fully-adaptive leader corruption stalls; mildly-adaptive doesn't."""

        def run():
            results = {}
            config = TobSvdConfig(n=8, num_views=6, delta=DELTA, seed=3)
            for mild in (False, True):
                protocol, _driver, _kills = plan_leader_corruption_run(
                    config, views_to_attack=[2, 3], mildly_adaptive=mild
                )
                outcome = protocol.run()
                results[mild] = (
                    count_new_blocks(outcome.trace),
                    check_safety(outcome.trace).safe,
                )
            return results

        results = run()
        print("\nA4 — adaptive leader corruption (2 attacked views of 6):")
        print(f"  fully adaptive (outside model): blocks={results[False][0]}/6")
        print(f"  mildly adaptive (paper model):  blocks={results[True][0]}/6")
        assert results[False][0] == 4  # both attacked views stalled
        assert results[True][0] == 6  # no view stalled
        assert results[False][1] and results[True][1]  # safety in both

    def test_ablation_stabilization(self):
        """A5: a validator must be awake 2Δ before voting (T_s = 2Δ).

        A validator awake only from ``t_v`` onward has no GA_{v-1}
        snapshots: it cannot lock, so it must skip the vote at ``t_v + Δ``;
        one that woke 2Δ earlier votes immediately.
        """

        def run():
            config = TobSvdConfig(n=8, num_views=6, delta=DELTA, seed=0)
            votes = {}
            for label, wake_offset in (("at-view-start", 0), ("2-deltas-early", -2 * DELTA)):
                join = 3 * VIEW + wake_offset
                schedule = AwakeSchedule.late_joiner(8, joiner=7, join_time=join)
                result = TobSvdProtocol(config, schedule=schedule).run()
                vote_times = [
                    e.time
                    for e in result.trace.vote_phases
                    if e.validator == 7 and e.protocol == "tobsvd"
                ]
                votes[label] = min(vote_times) if vote_times else None
            return votes

        votes = run()
        print("\nA5 — first vote time after waking (view 3 starts at "
              f"t={3 * VIEW}):")
        for label, t in votes.items():
            print(f"  joined {label}: first vote at t={t}")
        # Waking 2Δ early (the stabilization period) enables the view-3 vote;
        # waking at the view start forces waiting for the next view.
        assert votes["2-deltas-early"] == 3 * VIEW + DELTA
        assert votes["at-view-start"] == 4 * VIEW + DELTA

    def test_ablation_equivocation_intersection(self):
        """A6: the naive GA (no V^snap ∩ V^live) loses Graded Delivery."""

        from tests.integration.test_ablation_naive_ga import _run
        from repro.core.ga import NAIVE_GA2_SPEC
        from repro.core import GA2_SPEC
        from tests.integration.ga_properties import graded_delivery_violations

        def run():
            naive_result, _log_a, _ = _run(NAIVE_GA2_SPEC)
            fixed_result, _log_a2, _ = _run(GA2_SPEC)
            return (
                len(graded_delivery_violations(naive_result.outputs, naive_result.honest_ids, 2)),
                len(graded_delivery_violations(fixed_result.outputs, fixed_result.honest_ids, 2)),
            )

        naive, fixed = run()
        print(f"\nA6 — Graded Delivery violations: naive GA-2 = {naive}, paper GA-2 = {fixed}")
        assert naive > 0
        assert fixed == 0

    def test_ablation_aggregation_pricing(self):
        """A8 (§1): with 2Δ voting phases, the single-vote design dominates.

        Nominally TOB-SVD's best case (6Δ) trails MMR2's (4Δ); pricing
        each voting phase at 2Δ (the Ethereum aggregation model the paper
        describes) ties them in the best case and gives TOB-SVD > 2x in
        expectation — the paper's core practicality argument, quantified.
        """

        from repro.analysis.aggregation import aggregation_table, render_aggregation_table

        table = aggregation_table()
        print("\nA8 — " + render_aggregation_table())
        assert table["tobsvd"].best_case_deltas == table["mmr2"].best_case_deltas == 7
        assert table["tobsvd"].speedup_vs(table["mmr2"]) > 2.0
        for rival in ("mr", "mmr2", "gl"):
            assert table["tobsvd"].expected_deltas < table[rival].expected_deltas

    def test_ablation_recovery_protocol(self):
        """A9 (§2): the RECOVERY protocol on a lossy-while-asleep network.

        Without recovery, a waking validator cannot reconstruct the
        in-flight GA instance and sits out an extra view; with RECOVERY it
        re-enters one view earlier.  Both stay safe and live.
        """

        from repro.core.recovery import (
            build_lossy_protocol_without_recovery,
            build_recovery_protocol,
        )
        from repro.net.delays import EagerDelay

        def run():
            outcomes = {}
            for recovery in (True, False):
                config = TobSvdConfig(n=8, num_views=6, delta=DELTA, seed=0)
                schedule = AwakeSchedule.late_joiner(
                    8, joiner=7, join_time=2 * VIEW + 2 * DELTA
                )
                build = (
                    build_recovery_protocol
                    if recovery
                    else build_lossy_protocol_without_recovery
                )
                protocol = build(config, schedule=schedule)
                protocol.network.set_delay_policy(EagerDelay(DELTA))
                result = protocol.run()
                outcomes[recovery] = (
                    {p.view for p in result.trace.proposals if p.proposer == 7},
                    check_safety(result.trace).safe,
                    result.network.dropped_while_asleep,
                )
            return outcomes

        outcomes = run()
        with_views, with_safe, _ = outcomes[True]
        without_views, without_safe, dropped = outcomes[False]
        print(f"\nA9 — joiner wakes mid-view-2 on a lossy network ({dropped} "
              f"messages lost while asleep):")
        print(f"  with RECOVERY:    first proposal in view {min(with_views)}")
        print(f"  without RECOVERY: first proposal in view {min(without_views)}")
        assert 3 in with_views and 3 not in without_views
        assert with_safe and without_safe

    def test_ablation_ebb_and_flow(self):
        """A10 (§1): TOB-SVD composes with a finality gadget.

        Availability keeps growing through a < 2/3-participation dip while
        finality freezes, then catches up — the ebb-and-flow behaviour the
        paper argues TOB-SVD can provide.
        """

        from repro.core.finality import run_gadget_over_trace
        from repro.core.tobsvd import TobSvdProtocol

        def run():
            n = 9
            config = TobSvdConfig(n=n, num_views=10, delta=DELTA, seed=1)
            spec = {vid: [(0, 3 * VIEW), (7 * VIEW, None)] for vid in range(4)}
            schedule = AwakeSchedule.from_intervals(n, spec)
            result = TobSvdProtocol(config, schedule=schedule).run()
            timeline = run_gadget_over_trace(result.trace, n=n)
            mid = len(timeline.finalized_at(6 * VIEW)) - 1
            available_mid = max(
                (len(e.log) - 1 for e in result.trace.decisions if e.time <= 6 * VIEW),
                default=0,
            )
            return mid, available_mid, len(timeline.finalized) - 1, timeline.is_monotone()

        finalized_mid, available_mid, finalized_end, monotone = run()
        print(f"\nA10 — ebb-and-flow through a participation dip:")
        print(f"  during the dip:  available={available_mid} blocks, "
              f"finalized={finalized_mid} (frozen)")
        print(f"  after recovery:  finalized={finalized_end} blocks, "
              f"monotone={monotone}")
        assert available_mid > finalized_mid  # availability outruns finality
        assert finalized_end >= 8  # finality caught up after GAT
        assert monotone

    def test_ablation_wakeup_decision(self):
        """A7 (Lemma 4): an honest validator awake 8Δ decides."""

        def run():
            latencies = []
            for join_view in (2, 3, 4):
                config = TobSvdConfig(n=8, num_views=8, delta=DELTA, seed=join_view)
                join = join_view * VIEW + DELTA
                schedule = AwakeSchedule.late_joiner(8, joiner=6, join_time=join)
                result = TobSvdProtocol(config, schedule=schedule).run()
                first = min(
                    (e.time for e in result.trace.decisions if e.validator == 6),
                    default=None,
                )
                latencies.append((first - join) / DELTA if first is not None else None)
            return latencies

        latencies = run()
        print(f"\nA7 — wake-to-first-decision latency (Δ): {latencies}")
        for latency in latencies:
            assert latency is not None
            # Lemma 4 promises a decision once awake 8Δ past t_{v+1} - 2Δ;
            # aligned to decide-phase boundaries this is at most 9Δ here.
            assert latency <= 9.0
