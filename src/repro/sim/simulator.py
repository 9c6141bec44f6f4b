"""The event queue at the heart of every experiment.

The simulator is deliberately minimal: a scheduler over
``(time, priority, seq)``-ordered callbacks and a run loop.  Determinism
is a hard requirement — every experiment in EXPERIMENTS.md is
reproducible from its seed — so the only tie-breakers are the explicit
priority class and ``seq``, the order in which events were scheduled.

Scheduling is a **calendar/bucket queue**, not a heap: all event times
are integer ticks with a bounded horizon (a run of ``V`` views spans
``O(V·Δ)`` ticks while dispatching millions of events), so the queue
keys events by tick.  A tick's slot holds its first event *directly*
(lazy buckets: no allocation for the common single-event tick) and
grows a real bucket — one append-only list per priority class — only
when a second event lands on the same tick.  ``schedule_callback``, the
only way into the calendar, is an O(1) dict insert/append; dispatch
follows a **next-nonempty-bucket skip pointer** — a min-heap of pending
ticks, pushed once per slot creation and popped once per slot drain — so
run cost is O(ticks·log ticks + events), independent of how sparse the
horizon is (a lone event a million ticks out costs one heap pop, not a
million-tick cursor scan).  Within a bucket, append order *is* ``seq``
order, and the dispatch loop restarts from the most urgent priority
class after every callback, which reproduces exactly the
``(time, priority, seq)`` total order a heap would yield (see
``tests/property/test_scheduler_equivalence.py``, which checks the
bucket queue event-for-event, dense and sparse, against the heap
scheduler kept as a test oracle in ``tests/naive_oracles.py``).

A calendar entry is the bare callable: no caller ever cancelled an
event, so there is no handle object, no stored sequence number and no
per-event ``cancelled`` check in the dispatch loops.
"""

from __future__ import annotations

import heapq
from enum import IntEnum
from typing import Callable

import random


class EventPriority(IntEnum):
    """Execution order of events scheduled at the same tick.

    CONTROL events (wake/sleep/corruption) run first so that a validator
    waking at ``t`` receives its buffered messages before any timer at
    ``t``.  DELIVERY before TIMER encodes "a message sent at ``t`` arrives
    *by* ``t + Delta``": it is usable by the timer firing at that tick.
    """

    CONTROL = 0
    DELIVERY = 1
    TIMER = 2
    ANALYSIS = 3


class Simulator:
    """Deterministic discrete-event scheduler with integer time."""

    def __init__(self, seed: int = 0) -> None:
        # tick -> slot.  A slot is either the tick's single pending entry,
        # a (priority, callback) pair, or, once a second event lands on
        # the tick, a full bucket: one list of callbacks per priority
        # class, appended in scheduling order, so list order is dispatch
        # order.
        self._buckets: dict[int, object] = {}
        self._bucket_pool: list[list[list]] = []  # drained buckets, reused
        # Min-heap of pending ticks: one entry per live slot, pushed on
        # creation, popped when that tick is drained.  The run loop jumps
        # straight to the next nonempty tick instead of scanning every
        # tick, so sparse horizons cost O(log ticks).
        self._tick_heap: list[int] = []
        self._now = 0
        self._running = False
        self._events_processed = 0
        self._live = 0  # queued events not yet dispatched
        self.rng = random.Random(seed)

    @property
    def now(self) -> int:
        """Current simulation time in ticks."""

        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule_callback(
        self, time: int, priority: EventPriority, callback: Callable[[], None]
    ) -> None:
        """Queue ``callback`` at ``(time, priority)``, behind what is there.

        The one scheduling entry point.  Within a ``(time, priority)``
        class, dispatch order is call order: callers that need a
        reproducible calendar (every caller — see docs/ARCHITECTURE.md,
        "Run assembly and calendar order") only have to make their calls
        in a reproducible order.
        """

        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        prio = int(priority)
        slot = self._buckets.get(time)
        if slot is None:
            self._buckets[time] = (prio, callback)
            heapq.heappush(self._tick_heap, time)
        else:
            if slot.__class__ is not list:
                # Lazy bucket: the tick's first event was stored directly;
                # it keeps its dispatch position because it enters its
                # priority list before the newcomer.
                pool = self._bucket_pool
                first = slot
                slot = self._buckets[time] = pool.pop() if pool else [[], [], [], []]
                slot[first[0]].append(first[1])
            slot[prio].append(callback)
        self._live += 1

    def pending_callbacks(self):
        """Iterate the callbacks of every pending event.

        Snapshot capture scans these (``functools.partial`` args expose
        in-flight envelopes) to decide which per-view protocol state is
        still reachable.  Ticks come in slot-creation order; one tick's
        callbacks come in dispatch order.
        """

        for slot in self._buckets.values():
            if slot.__class__ is list:
                for callbacks in slot:
                    yield from callbacks
            else:
                yield slot[1]

    def _drain_bucket(self, bucket: list[list], limit: int | None = None) -> int:
        """Dispatch one tick's bucket in ``(priority, seq)`` order.

        Callbacks may append to this very bucket (a zero-delay delivery,
        a control action at the current tick); the scan restarts from the
        most urgent priority class after every callback so such arrivals
        are sequenced exactly as a ``(time, priority, seq)`` heap would
        sequence them.  Returns the number of events executed; raises
        once more than ``limit`` events have run (when given).
        """

        # The four priority lists are stable objects (only ever appended
        # to), so locals stay valid across callbacks; the unrolled
        # cascade restarts at CONTROL after every dispatch, reproducing
        # heap order for same-tick arrivals at any priority.
        l0, l1, l2, l3 = bucket
        i0 = i1 = i2 = i3 = 0
        executed = 0
        while True:
            if i0 < len(l0):
                callback = l0[i0]
                i0 += 1
            elif i1 < len(l1):
                callback = l1[i1]
                i1 += 1
            elif i2 < len(l2):
                callback = l2[i2]
                i2 += 1
            elif i3 < len(l3):
                callback = l3[i3]
                i3 += 1
            else:
                return executed
            self._live -= 1
            self._events_processed += 1
            callback()
            executed += 1
            if limit is not None and executed > limit:
                raise RuntimeError("event-loop safety limit exceeded")

    def _recycle(self, bucket: list[list]) -> None:
        """Return a drained bucket's lists to the reuse pool (bounded)."""

        pool = self._bucket_pool
        if len(pool) < 32:
            for events in bucket:
                events.clear()
            pool.append(bucket)

    def run_until(self, end_time: int) -> None:
        """Process every event scheduled strictly before or at ``end_time``.

        Events an executing callback schedules at or before ``end_time``
        are processed in the same call.
        """

        self._run(end_time, None)
        self._now = max(self._now, end_time)

    def run_to_exhaustion(self, safety_limit: int = 10_000_000) -> None:
        """Process every pending event (bounded by ``safety_limit`` events)."""

        self._run(None, safety_limit)

    def _run(self, end_time: int | None, safety_limit: int | None) -> None:
        """The shared dispatch loop behind both run entry points.

        Each pending tick has exactly one heap entry (pushed when its
        slot is created); callbacks running at tick ``t`` can only
        create slots at ``t' > t`` or re-create ``t`` itself after its
        slot was consumed (which re-pushes the tick), so popped ticks
        arrive in nondecreasing order and the ``(time, priority, seq)``
        total order of a heap is reproduced exactly.  Single-entry slots
        — the common shape on sparse ticks — dispatch inline without any
        bucket machinery.
        """

        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        buckets = self._buckets
        heap = self._tick_heap
        heappop = heapq.heappop
        remaining = safety_limit
        try:
            while heap:
                if end_time is not None and heap[0] > end_time:
                    break
                tick = heappop(heap)
                self._now = tick
                slot = buckets[tick]
                if slot.__class__ is list:
                    executed = self._drain_bucket(slot, remaining)
                    if remaining is not None:
                        remaining -= executed
                    del buckets[tick]
                    self._recycle(slot)
                    continue
                # Single-entry slot: dispatch inline.  Deleting the slot
                # *before* the callback lets a same-tick spawn create a
                # fresh slot (and re-push the tick), which the loop then
                # processes next — exactly heap order, since nothing
                # else was pending at this tick.
                del buckets[tick]
                self._live -= 1
                self._events_processed += 1
                slot[1]()
                if remaining is not None:
                    remaining -= 1
                    if remaining < 0:
                        raise RuntimeError("event-loop safety limit exceeded")
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of queued, not yet dispatched events (live counter, O(1))."""

        return self._live
