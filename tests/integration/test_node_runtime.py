"""Node-runtime equivalence suite: the simulator is the oracle.

The contract under test (docs/ARCHITECTURE.md, "Real transport
runtime"): a deployment of **unmodified** validators over a real
transport produces decision sequences *byte-identical* to the simulator
running the same configuration — the stable, churn, late-join and
bursty families and a structural baseline, any number of planned crash
windows per node, and a real SIGKILL-and-respawn rejoin.  Every node runs
the world its deployment's builder returns for ``hosted={node_id}``; the
oracle is the same builder with every id hosted.

Fast tests drive the deterministic in-process ``MemoryHub`` backend;
the slow-marked tests run real OS processes over loopback TCP
(``repro deploy local`` is the CLI face of the same path).
"""

from __future__ import annotations

from functools import partial

import pytest

from repro.core.tobsvd import TobSvdConfig
from repro.faults import CrashWindow, FaultPlan, FaultSpec
from repro.harness.scenarios import (
    bursty_churn_scenario,
    churn_scenario,
    late_join_scenario,
    stable_scenario,
)
from repro.node.deploy import (
    compare_to_oracle,
    compile_deployment_plan,
    run_local_deployment,
    run_memory_cluster,
)
from repro.node.runtime import decisions_as_records

N4 = TobSvdConfig(n=4, num_views=4, delta=1, seed=7)
N8 = TobSvdConfig(n=8, num_views=4, delta=1, seed=11)

#: One crash window inside view 1, 4Δ long: the victim misses a full
#: view and rejoins well before the horizon — the sim oracle models it
#: as a sleep window, the kill deployment as a real process death.
CRASH = FaultSpec(seed=3, crash_count=1, crash_view=1, crash_deltas=4)


#: The deployable scenario families: builders that take ``hosted``.
FAMILIES = {
    "stable": stable_scenario,
    "churn": churn_scenario,
    "late-join": late_join_scenario,
    "bursty": bursty_churn_scenario,
}


def family_builder(family: str, config: TobSvdConfig):
    """``family`` at ``config``'s dimensions, tracing off, as a world builder."""

    if family not in FAMILIES:
        return structural_builder(config, family)
    return partial(
        FAMILIES[family],
        n=config.n,
        num_views=config.num_views,
        delta=config.delta,
        seed=config.seed,
        trace_mode="off",
    )


def structural_builder(config, name):
    from repro.baselines import StructuralTob
    from repro.baselines.structural_tob import StructuralConfig
    from repro.baselines.structure import structure_for

    return partial(
        StructuralTob,
        structure_for(name),
        StructuralConfig(
            n=config.n, num_views=config.num_views, delta=config.delta, seed=config.seed
        ),
        trace_mode="off",
    )


def assert_identical(config, nodes, fault_plan=None, *, build=None):
    report = compare_to_oracle(config, nodes, fault_plan, build=build)
    assert report["identical"], report["per_node"]
    assert set(report["per_node"]) == set(range(config.n))


class TestMemoryClusterEquivalence:
    def test_stable_n4_is_byte_identical(self):
        nodes = run_memory_cluster(N4)
        assert_identical(N4, nodes)
        assert all(result["decided"] for result in nodes.values())

    def test_stable_n8_is_byte_identical(self):
        nodes = run_memory_cluster(N8)
        assert_identical(N8, nodes)

    def test_crash_window_is_byte_identical(self):
        plan = compile_deployment_plan(CRASH, N4)
        schedule = plan.kill_schedule()
        assert schedule, "spec compiled to no crash window; fixture is dead"
        nodes = run_memory_cluster(N4, plan)
        assert_identical(N4, nodes, plan)
        (victim,) = schedule
        survivors = set(range(N4.n)) - {victim}
        longest = max(len(nodes[vid]["decided"]) for vid in survivors)
        assert len(nodes[victim]["decided"]) < longest

    def test_every_crash_window_of_a_node_is_honoured(self):
        # Two windows for node 2.  A runtime that installed only the
        # earliest kept node 2 awake over [12, 16): it decided 5 logs
        # where the oracle's node 2 decides 3, and all four nodes diverged.
        config = TobSvdConfig(n=4, num_views=6, delta=1, seed=7)
        plan = FaultPlan(
            FaultSpec(), config.n, config.delta, config.horizon,
            (CrashWindow(2, 4, 8), CrashWindow(2, 12, 16)), (),
        )
        nodes = run_memory_cluster(config, plan)
        assert_identical(config, nodes, plan)
        assert len(nodes[2]["decided"]) < len(nodes[0]["decided"])

    def test_deliveries_happen_over_the_transport(self):
        nodes = run_memory_cluster(N4)
        for result in nodes.values():
            assert result["deliveries"] > 0
            assert result["codec_rejects"] == 0

    def test_hosts_structural_baseline_unmodified(self):
        build = structural_builder(N4, "mmr2")
        nodes = run_memory_cluster(N4, build=build)
        oracle = build(hosted=None).run()
        for vid, validator in oracle.validators.items():
            assert nodes[vid]["decided"] == decisions_as_records(validator.decided)
        assert all(result["decided"] for result in nodes.values())


class TestDeployedTwins:
    """Each deployable family, and the structural ``mmr2`` baseline, as a
    memory cluster: one builder makes every node's world and the oracle."""

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("family", [*FAMILIES, "mmr2"])
    def test_memory_cluster_is_byte_identical(self, family, n):
        config = TobSvdConfig(n=n, num_views=6, delta=1, seed=0)
        build = family_builder(family, config)
        nodes = run_memory_cluster(config, build=build)
        assert_identical(config, nodes, build=build)
        assert all(result["decided"] for result in nodes.values())

    @pytest.mark.parametrize("family", ["churn", "late-join", "bursty"])
    def test_the_family_really_sleeps_someone(self, family):
        # A twin of a family whose schedule kept everyone awake would
        # only re-prove the stable case.
        world = family_builder(family, TobSvdConfig(n=4, num_views=6, delta=1, seed=0))(
            hosted=None
        )
        assert any(
            list(world.schedule.transition_times(vid, world.horizon)) for vid in range(4)
        )


@pytest.mark.slow
class TestLoopbackEquivalence:
    """Real processes, real sockets, same bytes."""

    def test_tcp_n4_is_byte_identical(self):
        deployment = run_local_deployment(N4)
        assert_identical(N4, deployment.nodes)
        assert deployment.restarts == {}
        assert deployment.total_decisions > 0
        assert deployment.decisions_per_sec() > 0
        # Same traffic as the in-process hub, record for record: a
        # transport that retransmits, drops or refuses records fails here
        # as a count, not as a slower run.  ``reconnects`` is left out —
        # a start-up connect race legitimately yields 1.
        memory = run_memory_cluster(N4)
        for vid, node in deployment.nodes.items():
            for name in ("sends", "deliveries", "holdback_duplicates", "codec_rejects"):
                assert node[name] == memory[vid][name], (vid, name)
            links = node["link_stats"]["links"]
            assert len(links) == N4.n - 1
            assert all(link["drops"] == 0 for link in links.values())

    def test_tcp_n8_is_byte_identical(self):
        deployment = run_local_deployment(N8)
        assert_identical(N8, deployment.nodes)

    def test_tcp_churn_moves_the_memory_twins_records(self):
        config = TobSvdConfig(n=4, num_views=6, delta=1, seed=0)
        build = family_builder("churn", config)
        deployment = run_local_deployment(config, build=build)
        assert_identical(config, deployment.nodes, build=build)
        memory = run_memory_cluster(config, build=build)
        for vid, node in deployment.nodes.items():
            for name in ("sends", "deliveries", "holdback_duplicates"):
                assert node[name] == memory[vid][name], (vid, name)

    def test_sigkill_and_restart_is_byte_identical(self):
        plan = compile_deployment_plan(CRASH, N4)
        (victim,) = plan.kill_schedule()
        deployment = run_local_deployment(N4, fault_spec=CRASH, chaos="kill")
        assert deployment.restarts == {victim: 1}
        assert_identical(N4, deployment.nodes, plan)
        # The respawned process resynced real history over the wire:
        # duplicates prove the at-least-once path exercised dedup.
        assert deployment.nodes[victim]["holdback_duplicates"] > 0
        # Survivors reset the victim's frontier on its resync request, so
        # nothing it sends them is anchored at a block they lack.  (Frames
        # already in flight to the victim may be ``anchor`` rejects there;
        # their envelopes come back in the resync.)
        for vid, node in deployment.nodes.items():
            if vid != victim:
                assert node["codec_rejects"] == 0, (vid, node["reject_reasons"])


def count_calls(monkeypatch, owner, name: str) -> list[int]:
    """Patch ``owner.name`` (test side only) to count its calls."""

    calls = [0]
    wrapped = getattr(owner, name)

    def counting(*args, **kwargs):
        calls[0] += 1
        return wrapped(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


class TestDecodeWork:
    """A node hashes the blocks it has not seen, not every block of every copy.

    Deterministic and noise-free: block digests per received envelope is a
    count, so CI can hold it where a wall-clock number could not.  Before
    the lineage memo it was 16.5 at 32 views and grew with the chain.
    """

    @pytest.mark.parametrize("views", [32, 128])
    def test_wire_block_entries_per_env_frame_stay_flat(self, monkeypatch, views):
        # Before delta frames every frame carried the whole log: 16 entries
        # per frame at 32 views, growing with the chain.
        from repro.net.transport import MemoryHub

        counts = {"frames": 0, "entries": 0}
        post = MemoryHub.post

        def counting(hub, sender, recipient, message):
            if message.get("t") == "env":
                log = message["env"]["payload"].get("log")
                counts["frames"] += 1
                counts["entries"] += len(log["b"]) if log else 0
            post(hub, sender, recipient, message)

        monkeypatch.setattr(MemoryHub, "post", counting)
        config = TobSvdConfig(n=4, num_views=views, delta=1, seed=0)
        nodes = run_memory_cluster(config)
        monkeypatch.undo()
        assert counts["frames"] >= 20 * config.n * views
        assert counts["entries"] / counts["frames"] <= 1.0, counts
        assert all(result["codec_rejects"] == 0 for result in nodes.values())
        assert_identical(config, nodes)

    @pytest.mark.parametrize("views", [8, 32])
    def test_block_digests_per_received_envelope_stay_flat(self, monkeypatch, views):
        from repro.chain.block import Block
        from repro.node.runtime import NodeRuntime

        config = TobSvdConfig(n=4, num_views=views, delta=1, seed=0)
        digests = count_calls(monkeypatch, Block, "__post_init__")
        received = count_calls(monkeypatch, NodeRuntime, "_ingest")
        nodes = run_memory_cluster(config)
        monkeypatch.undo()
        assert received[0] >= 20 * config.n * views  # the run really used the wire
        assert all(result["codec_rejects"] == 0 for result in nodes.values())
        assert digests[0] / received[0] <= 1.25, (digests[0], received[0])
        assert_identical(config, nodes)


@pytest.mark.slow
class TestLongHorizonEquivalence:
    """1024 views: long enough that any per-message O(chain) work would show."""

    def test_memory_cluster_1024_views_is_byte_identical(self):
        config = TobSvdConfig(n=4, num_views=1024, delta=1, seed=0)
        nodes = run_memory_cluster(config)
        assert_identical(config, nodes)
        assert all(result["codec_rejects"] == 0 for result in nodes.values())
