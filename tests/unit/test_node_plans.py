"""What a deployment accepts of a fault plan.

Crash windows are deployable, any number per node: the runtime's world
installs every one of them, and ``kill_schedule`` names the earliest as
the process kill.  Message faults (drop, duplicate and spike rates,
partitions) are refused with a typed error before any process starts,
because the remote leg cannot inject them and a deployment would run
fault-free and then diverge from its oracle.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.core.tobsvd import TobSvdConfig
from repro.faults import FaultSpec
from repro.net.transport import MemoryHub
from repro.node.deploy import compile_deployment_plan, stable_builder
from repro.node.runtime import NodeRuntime, UndeployablePlanError

CONFIG = TobSvdConfig(n=8, num_views=6, delta=1, seed=0)

MESSAGE_FAULTS = [
    FaultSpec(seed=1, drop_rate=0.2),
    FaultSpec(seed=1, duplicate_rate=0.1),
    FaultSpec(seed=1, delay_spike_rate=0.1),
    FaultSpec(seed=1, partitions=1, partition_deltas=2),
]


class TestKillSchedule:
    def test_a_partition_spec_gives_one_node_two_windows_and_one_kill(self):
        spec = FaultSpec(
            seed=2, partitions=2, partition_view=1, partition_deltas=3, partition_gap_deltas=2
        )
        plan = spec.compile(n=8, delta=1, horizon=CONFIG.horizon)
        windows = [(w.start, w.end) for w in plan.crash_windows if w.validator == 2]
        assert windows == [(4, 7), (9, 12)]
        assert plan.kill_schedule()[2] == (4, 7)


class TestMessageFaultsAreRefused:
    @pytest.mark.parametrize("spec", MESSAGE_FAULTS, ids=lambda s: s.spec_id)
    def test_compile_deployment_plan_refuses(self, spec):
        with pytest.raises(UndeployablePlanError, match="message faults"):
            compile_deployment_plan(spec, CONFIG)

    def test_a_crash_only_plan_compiles(self):
        plan = compile_deployment_plan(FaultSpec(seed=3, crash_count=2), CONFIG)
        assert plan.crash_windows and not plan.has_message_faults

    def test_node_runtime_refuses_a_world_with_message_faults(self):
        plan = MESSAGE_FAULTS[0].compile(n=CONFIG.n, delta=CONFIG.delta, horizon=CONFIG.horizon)
        world = stable_builder(CONFIG, plan)(hosted={0})
        with pytest.raises(UndeployablePlanError):
            NodeRuntime(world, MemoryHub(range(CONFIG.n)).transport(0))
        assert world.network.egress is None


def run_cli(*argv: str) -> subprocess.CompletedProcess:
    src = str(Path(repro.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "repro", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )


class TestCliRefusesBeforeAnyProcessStarts:
    """``deploy local`` and ``node`` exit non-zero, naming the reason, with
    no node process spawned and no socket opened (the peer map below points
    at a port nothing listens on; a started node would stall, not exit)."""

    FAULTS = '{"seed": 1, "drop_rate": 0.2}'

    def test_deploy_local(self):
        done = run_cli("deploy", "local", "--n", "4", "--views", "2", "--faults", self.FAULTS)
        assert done.returncode != 0
        assert "message faults" in done.stderr
        assert "oracle check" not in done.stdout

    def test_node(self):
        peers = ",".join(f"{vid}=127.0.0.1:9" for vid in range(4))
        done = run_cli(
            "node", "--id", "0", "--peers", peers, "--n", "4", "--views", "2",
            "--faults", self.FAULTS, "--progress-timeout", "5",
        )
        assert done.returncode != 0
        assert "message faults" in done.stderr
