"""Run assembly: in what order a run is wired and started.

Every simulated driver — :class:`~repro.core.tobsvd.TobSvdProtocol`,
:class:`~repro.baselines.structural_tob.StructuralTob`,
:func:`~repro.core.ga_host.run_standalone_ga`,
:func:`~repro.baselines.mr_ga.run_mr_ga` — is a :class:`World` plus its
own node types and result record, and so is every deployed validator: a
:class:`~repro.node.runtime.NodeRuntime` runs the world its deployment's
builder returns for ``hosted={node_id}``, the sim oracle the one it returns
for every id (docs/ARCHITECTURE.md, "Real transport runtime").  The order
below is the byte-identity contract (docs/ARCHITECTURE.md, "Run assembly
and calendar order"), and this module is the only place that knows it:

1. substrate: simulator, key registry, network, observability,
   :class:`~repro.sleepy.controller.SleepController`;
2. :meth:`World.populate`, per *hosted* validator id ascending: build the
   node, register it with the network (registration order is the network's
   bit order), hand it to the controller;
3. :meth:`World.start`: the controller's CONTROL events, then every
   honest validator's ``setup`` timers, then every Byzantine node's — the
   order events enter a ``(tick, priority)`` bucket is the order they run;
4. :meth:`World.advance`, and the awake-mask check once the run is over.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.signatures import KeyRegistry, SigningKey
from repro.net.delays import DelayPolicy, UniformDelay
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.sleepy.controller import SleepController
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.tracebus import TraceBus, build_observability

NodeFactory = Callable[[int, SigningKey, Simulator, Network, TraceBus], object]


class World:
    """The substrate of one simulated run and the nodes living on it."""

    def __init__(
        self,
        n: int,
        delta: int,
        seed: int,
        schedule: AwakeSchedule | None = None,
        corruption: CorruptionPlan | None = None,
        delay_policy: DelayPolicy | None = None,
        trace_mode: str = "full",
        registry: KeyRegistry | None = None,
        buffer_while_asleep: bool = True,
        fault_plan=None,
        hosted: frozenset[int] | None = None,
    ) -> None:
        # A caller-provided registry must be the (n, seed) one this run
        # would build itself — the sweep prebuild cache hands back exactly
        # that, amortizing keyset construction across cells and runs.
        if registry is not None and registry.n != n:
            raise ValueError(f"prebuilt registry covers n={registry.n}, run needs n={n}")
        self.simulator = Simulator(seed=seed)
        self.registry = registry if registry is not None else KeyRegistry(n, seed=seed)
        self.network = Network(
            self.simulator,
            delta,
            self.registry,
            delay_policy if delay_policy is not None else UniformDelay(delta),
            buffer_while_asleep=buffer_while_asleep,
            fault_plan=fault_plan,
        )
        self.observability = build_observability(trace_mode)
        self.trace = self.observability.trace
        self._bus = self.observability.bus
        self.schedule = schedule if schedule is not None else AwakeSchedule.always_awake(n)
        self.corruption = corruption if corruption is not None else CorruptionPlan.none()
        self.fault_plan = fault_plan
        self.controller = SleepController(
            self.simulator, self.network, self.schedule, self.corruption, self._bus,
            fault_plan=fault_plan,
        )
        #: The validator ids living in this process; the others are remote
        #: (reached through ``network.egress``, heard through ``network.ingress``).
        self.hosted = frozenset(range(n)) if hosted is None else frozenset(hosted)
        self.validators: dict[int, object] = {}
        self.byzantine_nodes: dict[int, object] = {}
        self._started = False

    def populate(
        self,
        byzantine_ids: frozenset[int],
        honest_factory: NodeFactory,
        adversary_factory: NodeFactory | None,
    ) -> None:
        """Build, register and manage one node per hosted id, ascending.

        The factories are used and dropped: a run holds no closures, so it
        stays picklable for :func:`repro.snapshot.capture`.
        """

        for vid in sorted(self.hosted):
            if vid in byzantine_ids:
                if adversary_factory is None:
                    raise ValueError("byzantine validators declared but no factory given")
                factory, book = adversary_factory, self.byzantine_nodes
            else:
                factory, book = honest_factory, self.validators
            node = factory(
                vid, self.registry.key_for(vid), self.simulator, self.network, self._bus
            )
            self.network.register(node)
            self.controller.manage(node)
            book[vid] = node

    def start(self, horizon: int | None = None) -> None:
        """Write the run's CONTROL and TIMER events for ``[0, horizon]``.

        ``horizon`` defaults to the run's own ``horizon``, which the
        protocol drivers define.  Idempotent: a started run (resumed,
        forked, or simply ``run()`` twice) installs nothing again —
        ``start(); advance(T)`` is exactly the state an uninterrupted run
        passes through at tick ``T``, which :mod:`repro.snapshot` captures.
        """

        if self._started:
            return
        self.controller.install(self.horizon if horizon is None else horizon)
        for validator in self.validators.values():
            validator.setup()
        for node in self.byzantine_nodes.values():
            setup = getattr(node, "setup", None)
            if callable(setup):
                setup()
        self._started = True

    def advance(self, until: int) -> None:
        """Process all events up to and including tick ``until``."""

        if not self._started:
            raise RuntimeError("advance() before start(); call start() first")
        self.simulator.run_until(until)

    def run_to(self, horizon: int) -> None:
        """Start, run to ``horizon``, and check the awake mask.

        The check fails with :class:`~repro.net.network.AwakeMaskError` if
        something changed a validator's ``awake`` flag behind the
        network's back — a stale asleep mask would have silently skipped
        a sleeping node.
        """

        self.start(horizon)
        self.advance(horizon)
        self.network.check_awake_mask()
