"""Figure regeneration.

The paper's figures are protocol listings (Figures 1, 2, 4) and the
view/GA overlap timeline (Figure 3).  Each test executes the figure's
protocol on the simulator, prints the regenerated artifact (phase trace or
timeline), and asserts the documented behaviour.
"""

from __future__ import annotations

import pytest

from repro.analysis.metrics import check_safety, count_new_blocks
from repro.analysis.timeline import check_view_alignment, render_timeline
from repro.chain.log import Log
from repro.chain.transactions import TransactionPool
from repro.core import GA2_SPEC, GA3_SPEC, run_standalone_ga
from repro.harness import stable_scenario

DELTA = 4


def _phase_trace(trace, protocol: str) -> list[str]:
    lines = []
    for event in sorted(trace.vote_phases, key=lambda e: (e.time, e.validator)):
        if event.protocol == protocol:
            lines.append(
                f"t={event.time:>3} ({event.time // DELTA}Δ) "
                f"{event.phase_label:8s} v{event.validator} -> len-{len(event.log)} log"
            )
    for event in sorted(trace.ga_outputs, key=lambda e: (e.time, e.grade, e.validator)):
        lines.append(
            f"t={event.time:>3} ({event.time // DELTA}Δ) output_{event.grade} "
            f"v{event.validator} -> len-{len(event.log)} log"
        )
    return lines


class TestFigures:
    def test_figure1_ga2_execution(self):
        """Figure 1: the k=2 GA schedule — input@0, out0@2Δ, out1@3Δ."""

        base = Log.genesis().append_block([], proposer=0, view=0)

        def run():
            return run_standalone_ga(
                GA2_SPEC, n=5, delta=DELTA, inputs={i: base for i in range(5)}
            )

        result = run()
        print("\nFigure 1 — GA k=2 execution trace:")
        for line in _phase_trace(result.trace, "ga2")[:20]:
            print("  " + line)
        input_times = {e.time for e in result.trace.vote_phases if e.protocol == "ga2"}
        out0 = {e.time for e in result.trace.ga_outputs if e.grade == 0}
        out1 = {e.time for e in result.trace.ga_outputs if e.grade == 1}
        assert input_times == {0}
        assert out0 == {2 * DELTA}
        assert out1 == {3 * DELTA}
        for vid in range(5):
            assert base in result.outputs[vid][1]

    def test_figure2_ga3_execution(self):
        """Figure 2: the k=3 GA — out0@3Δ, out1@4Δ, out2@5Δ, nested quorums."""

        base = Log.genesis().append_block([], proposer=0, view=0)

        def run():
            return run_standalone_ga(
                GA3_SPEC, n=5, delta=DELTA, inputs={i: base for i in range(5)}
            )

        result = run()
        print("\nFigure 2 — GA k=3 execution trace:")
        for line in _phase_trace(result.trace, "ga3")[:25]:
            print("  " + line)
        for grade, offset in ((0, 3), (1, 4), (2, 5)):
            times = {e.time for e in result.trace.ga_outputs if e.grade == grade}
            assert times == {offset * DELTA}, f"grade {grade}"
        for vid in range(5):
            assert base in result.outputs[vid][2]

    def test_figure3_timeline(self):
        """Figure 3: the view/GA overlap diagram, from a real trace."""

        def run():
            pool = TransactionPool()
            pool.submit_many(4, at_time=1)
            protocol = stable_scenario(n=8, num_views=6, delta=DELTA, seed=0, pool=pool)
            return protocol.run()

        result = run()
        text = render_timeline(result, center_view=2)
        print("\nFigure 3 — regenerated timeline:\n")
        print(text)
        assert "MISALIGNED" not in text
        for view in (1, 2, 3):
            assert check_view_alignment(result, view).aligned

    def test_figure4_tobsvd_execution(self):
        """Figure 4: end-to-end TOB-SVD — one decision per view, safety."""

        def run():
            pool = TransactionPool()
            for view in range(1, 6):
                pool.submit(payload=f"fig4-{view}", at_time=view * 4 * DELTA - 1)
            protocol = stable_scenario(n=8, num_views=6, delta=DELTA, seed=1, pool=pool)
            return protocol.run()

        result = run()
        print("\nFigure 4 — TOB-SVD decisions:")
        seen = set()
        for event in result.trace.iter_decisions_sorted():
            key = (event.view, len(event.log))
            if key in seen:
                continue
            seen.add(key)
            print(
                f"  view {event.view}: decided len-{len(event.log)} log at "
                f"t={event.time} ({event.time // DELTA}Δ)"
            )
        assert check_safety(result.trace).safe
        assert count_new_blocks(result.trace) == 6
