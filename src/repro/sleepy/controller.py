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
            self._set_awake(vid, True)
            node.corrupted = True
        else:
            self._set_awake(vid, self._schedule.awake(vid, 0))

    def install(self, horizon: int) -> None:
        """Schedule every transition within ``[0, horizon]``."""

        for vid in self._nodes:
            if vid in self._corruption.initial_byzantine:
                continue  # always awake, never transitions
            for time, becomes_awake in self._schedule.transition_times(vid, horizon):
                if time == 0:
                    self._set_awake(vid, becomes_awake)
                    continue
                if becomes_awake:
                    self._sim.schedule(
                        time,
                        EventPriority.CONTROL,
                        partial(self._wake, vid),
                        note=f"wake v{vid}",
                    )
                else:
                    self._sim.schedule(
                        time,
                        EventPriority.CONTROL,
                        partial(self._sleep, vid),
                        note=f"sleep v{vid}",
                    )
        for corruption in self._corruption.corruption_events():
            if corruption.effective_at > horizon:
                continue
            self._sim.schedule(
                max(corruption.effective_at, 0),
                EventPriority.CONTROL,
                partial(self._corrupt, corruption.validator),
                note=f"corrupt v{corruption.validator}",
            )
        if self._faults is not None:
            self._install_faults(horizon)

    def extend_horizon(self, old_horizon: int, horizon: int) -> None:
        """Install transitions/corruptions/faults in ``(old_horizon, horizon]``.

        The companion of :meth:`TobSvdProtocol.extend_horizon`: events at or
        before ``old_horizon`` are already in the calendar from the original
        :meth:`install`, so only the extension window is added, in the same
        family order install uses.
        """

        for vid, node in self._nodes.items():
            if vid in self._corruption.initial_byzantine:
                continue
            for time, becomes_awake in self._schedule.transition_times(vid, horizon):
                if time <= old_horizon:
                    continue
                self._sim.schedule(
                    time,
                    EventPriority.CONTROL,
                    partial(self._wake if becomes_awake else self._sleep, vid),
                    note=f"{'wake' if becomes_awake else 'sleep'} v{vid}",
                )
        for corruption in self._corruption.corruption_events():
            if not old_horizon < corruption.effective_at <= horizon:
                continue
            self._sim.schedule(
                corruption.effective_at,
                EventPriority.CONTROL,
                partial(self._corrupt, corruption.validator),
                note=f"corrupt v{corruption.validator}",
            )
        if self._faults is None:
            return
        byzantine = self._corruption.initial_byzantine
        for window in self._faults.crash_windows:
            vid = window.validator
            if vid not in self._nodes or vid in byzantine:
                continue
            if old_horizon < window.start <= horizon:
                self._sim.schedule(
                    window.start,
                    EventPriority.CONTROL,
                    partial(self._crash, vid),
                    note=f"crash v{vid}",
                )
            if window.start <= horizon and old_horizon < window.end <= horizon:
                self._sim.schedule(
                    window.end,
                    EventPriority.CONTROL,
                    partial(self._recover, vid),
                    note=f"recover v{vid}",
                )
        if self._bus is None:
            return
        for window in self._faults.partition_windows:
            for vid in window.isolated:
                if old_horizon < window.start <= horizon:
                    self._sim.schedule(
                        window.start,
                        EventPriority.CONTROL,
                        partial(self._partition_marker, "partition", vid),
                        note=f"partition v{vid}",
                    )
                if window.start <= horizon and old_horizon < window.heal <= horizon:
                    self._sim.schedule(
                        window.heal,
                        EventPriority.CONTROL,
                        partial(self._partition_marker, "heal", vid),
                        note=f"heal v{vid}",
                    )

    def adopt_fault_plan(self, plan, horizon: int) -> None:
        """Adopt a fault plan mid-run (snapshot fork) and schedule its events.

        Only sound when every window in ``plan`` starts strictly after the
        current simulation time: the relative CONTROL-bucket order then
        matches a from-genesis install, because install order (transitions →
        corruptions → crash/recover → partition markers) is preserved — the
        first two families are already in the restored calendar with lower
        sequence numbers.
        """

        self._faults = plan
        self._install_faults(horizon)

    def _install_faults(self, horizon: int) -> None:
        """Schedule the fault plan's crash/recover and partition markers."""

        byzantine = self._corruption.initial_byzantine
        for window in self._faults.crash_windows:
            vid = window.validator
            if vid not in self._nodes or vid in byzantine:
                continue  # compile() protects Byzantine ids; belt and braces
            if window.start > horizon:
                continue
            self._sim.schedule(
                max(window.start, 0),
                EventPriority.CONTROL,
                partial(self._crash, vid),
                note=f"crash v{vid}",
            )
            if window.end <= horizon:
                self._sim.schedule(
                    window.end,
                    EventPriority.CONTROL,
                    partial(self._recover, vid),
                    note=f"recover v{vid}",
                )
        if self._bus is None:
            return
        for window in self._faults.partition_windows:
            if window.start > horizon:
                continue
            for vid in window.isolated:
                self._sim.schedule(
                    max(window.start, 0),
                    EventPriority.CONTROL,
                    partial(self._partition_marker, "partition", vid),
                    note=f"partition v{vid}",
                )
                if window.heal <= horizon:
                    self._sim.schedule(
                        window.heal,
                        EventPriority.CONTROL,
                        partial(self._partition_marker, "heal", vid),
                        note=f"heal v{vid}",
                    )

    # -- transitions --------------------------------------------------------

    def _set_awake(self, vid: int, awake: bool) -> None:
        """Every awake transition goes through the network, which mirrors
        the flag in the asleep mask its delivery plans consult."""

        self._network.set_awake(vid, awake)

    def _wake(self, vid: int) -> None:
        if vid in self._crashed:
            return  # a crashed validator wakes at recovery, not on schedule
        node = self._nodes[vid]
        if node.corrupted:
            return  # Byzantine validators are always awake already
        self._set_awake(vid, True)
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
        self._set_awake(vid, False)
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
            self._set_awake(vid, False)
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
            self._set_awake(vid, True)
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
        self._set_awake(vid, True)  # Byzantine validators remain always awake
        self._network.flush_pending(vid)
        node.on_corrupted(self._sim.now)
        if self._bus is not None:
            self._bus.emit_control(ControlEvent(self._sim.now, "corrupt-effective", vid))
