"""Executes sleep schedules and corruption plans on a running simulation.

The controller translates the declarative :class:`AwakeSchedule` and
:class:`CorruptionPlan` into CONTROL-priority events:

* at a wake transition: mark the validator awake, flush its buffered
  messages (the sleepy model's "delivered in the subsequent time step"),
  then call its ``on_wake`` hook;
* at a sleep transition: mark it asleep;
* at a corruption's *effective* time: flip the validator to Byzantine and
  hand it to the adversary strategy, if one is installed.

A :class:`repro.faults.FaultPlan` adds a fourth event family: **crash /
recover** windows.  A crash is an unscheduled sleep — the validator goes
asleep regardless of its schedule and *stays* asleep (scheduled wakes are
suppressed) until the window's recover event, which wakes it only if the
schedule says it should be awake then.  Crashes therefore compose with
the participation schedule exactly like the effective-schedule
subtraction in :func:`repro.faults.crashed_schedule`, which is what the
compliance gate checks.  Partition windows emit ``partition`` / ``heal``
marker events per isolated validator (the network enforces the cut; the
plan crashes the isolated group itself).

CONTROL priority means all of this happens before same-tick deliveries and
protocol timers, so a validator waking at ``t`` participates fully at ``t``.

The schedule, corruption plan and fault plan always describe the whole
run; the controller writes events for the validators it manages, which
are the ones its world hosts.  A node runtime hosting one id therefore
installs exactly the events the simulator installs for that id — every
crash window included.

All of it enters the calendar through :meth:`SleepController.install`, a
windowed pass over ``(after, horizon]`` with one loop per event family:
the genesis install is ``after = -1``, a horizon extension is a second
call with ``after`` set to the old horizon, and a fork adopting a fault
plan replays the two fault families only.  Within a ``(tick, CONTROL)``
bucket events run in the order they were written, so that family order
is part of every run's bytes (docs/ARCHITECTURE.md, "Run assembly and
calendar order").
"""

from __future__ import annotations

from functools import partial
from typing import Protocol

from repro.net.network import Network
from repro.sim.simulator import EventPriority, Simulator
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.trace import ControlEvent
from repro.tracebus import TraceBus


class ControllableNode(Protocol):
    """What the controller needs from a validator object."""

    validator_id: int
    awake: bool
    corrupted: bool

    def on_wake(self, time: int) -> None: ...

    def on_sleep(self, time: int) -> None: ...

    def on_corrupted(self, time: int) -> None: ...


class SleepController:
    """Wires a schedule + corruption plan into the simulator."""

    def __init__(
        self,
        simulator: Simulator,
        network: Network,
        schedule: AwakeSchedule,
        corruption: CorruptionPlan,
        trace: TraceBus | None = None,
        fault_plan=None,
    ) -> None:
        self._sim = simulator
        self._network = network
        self._schedule = schedule
        self._corruption = corruption
        self._bus = trace
        self._faults = fault_plan
        self._crashed: set[int] = set()
        self._nodes: dict[int, ControllableNode] = {}

    def manage(self, node: ControllableNode) -> None:
        """Register a node; its initial awake state comes from the schedule.

        Byzantine validators are always awake regardless of the schedule
        (Section 3.1), which :meth:`install` enforces.
        """

        self._nodes[node.validator_id] = node
        vid = node.validator_id
        if vid in self._corruption.initial_byzantine:
            self._network.set_awake(vid, True)
            node.corrupted = True
        else:
            self._network.set_awake(vid, self._schedule.awake(vid, 0))

    def install(self, horizon: int, after: int = -1) -> None:
        """Schedule every CONTROL event whose tick lies in ``(after, horizon]``.

        The genesis install is the ``after = -1`` case; a horizon extension
        calls again with ``after`` set to the old horizon.  Every call
        writes the event families in the same order — transitions per node
        in registration order, corruptions, crash/recover, partition
        markers — and a ``(tick, CONTROL)`` bucket lies wholly inside one
        window, so split installs leave each bucket in the order a single
        from-genesis install of the longer horizon would.
        """

        window = (after, horizon)
        byzantine = self._corruption.initial_byzantine
        for vid in self._nodes:
            if vid in byzantine:
                continue  # always awake, never transitions
            for time, becomes_awake in self._schedule.transition_times(vid, horizon):
                if time == 0:
                    continue  # manage() applied the state at tick 0
                self._at(time, window, self._wake if becomes_awake else self._sleep, vid)
        for corruption in self._corruption.corruption_events():
            if corruption.validator in self._nodes:
                self._at(corruption.effective_at, window, self._corrupt, corruption.validator)
        self._install_faults(window)

    def adopt_fault_plan(self, plan, horizon: int) -> None:
        """Adopt a fault plan mid-run (snapshot fork) and schedule its events.

        Only sound when every window in ``plan`` starts strictly after the
        current simulation time: the relative CONTROL-bucket order then
        matches a from-genesis install, because family order is preserved —
        transitions and corruptions are already in the restored calendar,
        ahead of anything scheduled now.
        """

        self._faults = plan
        self._install_faults((-1, horizon))

    def corrupt_at(self, vid: int, time: int) -> None:
        """Schedule one more corruption of ``vid``, effective at ``time``.

        For what-if forks: the event lands behind everything already in
        its bucket, not where a plan that held this corruption from genesis
        would have put it.
        """

        self._sim.schedule_callback(time, EventPriority.CONTROL, partial(self._corrupt, vid))

    def _install_faults(self, window: tuple[int, int]) -> None:
        """The fault plan's crash/recover events and partition markers."""

        if self._faults is None:
            return
        byzantine = self._corruption.initial_byzantine
        for crash in self._faults.crash_windows:
            vid = crash.validator
            if vid not in self._nodes or vid in byzantine:
                continue  # compile() protects Byzantine ids; belt and braces
            self._at(crash.start, window, self._crash, vid)
            self._at(crash.end, window, self._recover, vid)
        if self._bus is None:
            return
        for partition in self._faults.partition_windows:
            for vid in partition.isolated:
                self._at(partition.start, window, self._partition_marker, "partition", vid)
                self._at(partition.heal, window, self._partition_marker, "heal", vid)

    def _at(self, time: int, window: tuple[int, int], action, *args) -> None:
        """Schedule ``action(*args)`` at ``time`` (clamped to tick 0) if that
        falls inside ``window = (after, horizon]``."""

        time = max(time, 0)
        if window[0] < time <= window[1]:
            self._sim.schedule_callback(time, EventPriority.CONTROL, partial(action, *args))

    # -- transitions (every awake flip goes through Network.set_awake, which
    # mirrors the flag in the asleep mask its delivery plans consult) --------

    def _wake(self, vid: int) -> None:
        if vid in self._crashed:
            return  # a crashed validator wakes at recovery, not on schedule
        node = self._nodes[vid]
        if node.corrupted:
            return  # Byzantine validators are always awake already
        self._network.set_awake(vid, True)
        self._network.flush_pending(vid)
        node.on_wake(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "wake", vid))

    def _sleep(self, vid: int) -> None:
        node = self._nodes[vid]
        if node.corrupted:
            return
        if not node.awake:
            return  # already down (crashed mid-schedule)
        self._network.set_awake(vid, False)
        node.on_sleep(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "sleep", vid))

    def _crash(self, vid: int) -> None:
        """Fault-plan crash: an unscheduled sleep that pins the node down."""

        node = self._nodes[vid]
        if node.corrupted:
            return  # the model keeps Byzantine validators always awake
        self._crashed.add(vid)
        if node.awake:
            self._network.set_awake(vid, False)
            node.on_sleep(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "crash", vid))

    def _recover(self, vid: int) -> None:
        """End of a crash window: wake only if the schedule agrees."""

        self._crashed.discard(vid)
        node = self._nodes[vid]
        if node.corrupted:
            return
        if not node.awake and self._schedule.awake(vid, self._sim.now):
            self._network.set_awake(vid, True)
            self._network.flush_pending(vid)
            node.on_wake(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "recover", vid))

    def _partition_marker(self, kind: str, vid: int) -> None:
        self._bus.emit_control(ControlEvent(self._sim.now, kind, vid))

    def _corrupt(self, vid: int) -> None:
        node = self._nodes[vid]
        if node.corrupted:
            return
        node.corrupted = True
        self._network.set_awake(vid, True)  # Byzantine validators remain always awake
        self._network.flush_pending(vid)
        node.on_corrupted(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "corrupt-effective", vid))
