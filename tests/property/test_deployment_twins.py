"""Differential: a memory cluster of one-id worlds ≡ the all-hosted sim oracle.

Hypothesis draws awake schedules (``AwakeSchedule.from_intervals``, a node
may sleep any number of times or never wake) and crash-only fault plans
with zero to two windows per node, at n = 4 and at most four views.  Every
node runs ``build(hosted={node_id})`` over one ``MemoryHub``; the oracle is
``build(hosted=None)``; their decision bytes must be equal.  There is no
compliance filter: a schedule outside the sleepy model changes what the
protocol decides, not whether a deployment decides the same thing.

CI runs this at five times the default examples
(``--hypothesis-profile=ci``, tests/conftest.py).
"""

from __future__ import annotations

from functools import partial

from hypothesis import given, settings, strategies as st

from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.faults import CrashWindow, FaultPlan, FaultSpec
from repro.node.deploy import compare_to_oracle, run_memory_cluster
from repro.sleepy.schedule import AwakeSchedule

N = 4


def spans(points: list[int], open_ended: bool) -> list[tuple[int, int | None]]:
    """Consecutive pairs of sorted distinct ``points`` as half-open spans;
    an odd point out opens a last span when ``open_ended``."""

    pairs: list[tuple[int, int | None]] = list(zip(points[::2], points[1::2]))
    if open_ended and len(points) % 2:
        pairs.append((points[-1], None))
    return pairs


@st.composite
def deployments(draw):
    """``(config, build)``: a TOB-SVD world builder with a drawn schedule and plan."""

    delta = draw(st.integers(1, 2))
    config = TobSvdConfig(
        n=N, num_views=draw(st.integers(1, 4)), delta=delta, seed=draw(st.integers(0, 1 << 16))
    )
    horizon = config.horizon
    ticks = st.integers(0, horizon + 1)
    awake = {
        vid: spans(sorted(draw(st.sets(ticks, max_size=5))), open_ended=True)
        for vid in range(N)
        if draw(st.booleans())
    }
    windows = []
    for vid in range(N):
        count = draw(st.integers(0, 2))
        # Distinct points, so one node's windows neither overlap nor touch.
        points = sorted(draw(st.sets(ticks, min_size=2 * count, max_size=2 * count)))
        windows += [CrashWindow(vid, start, end) for start, end in spans(points, False)]
    windows.sort(key=lambda window: (window.start, window.validator))
    plan = (
        FaultPlan(FaultSpec(), N, delta, horizon, tuple(windows), ()) if windows else None
    )
    build = partial(
        TobSvdProtocol,
        config,
        schedule=AwakeSchedule.from_intervals(N, awake),
        fault_plan=plan,
        trace_mode="off",
    )
    return config, build


@settings(deadline=None)
@given(deployment=deployments())
def test_memory_cluster_decides_the_oracle_bytes(deployment):
    config, build = deployment
    nodes = run_memory_cluster(config, build=build)
    report = compare_to_oracle(config, nodes, build=build)
    assert report["identical"], report["per_node"]
    assert all(result["codec_rejects"] == 0 for result in nodes.values())
