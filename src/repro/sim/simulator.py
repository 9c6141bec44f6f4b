"""The event queue at the heart of every experiment.

The simulator is deliberately minimal: a scheduler over
``(time, priority, seq)``-ordered callbacks and a run loop.  Determinism
is a hard requirement — every experiment in EXPERIMENTS.md is
reproducible from its seed — so the only tie-breakers are the explicit
priority class and a monotonically increasing sequence number.

Scheduling is a **calendar/bucket queue**, not a heap: all event times
are integer ticks with a bounded horizon (a run of ``V`` views spans
``O(V·Δ)`` ticks while dispatching millions of events), so the queue
keys events by tick.  A tick's slot holds its first event *directly*
(lazy buckets: no allocation for the common single-event tick) and
grows a real bucket — one append-only list per priority class — only
when a second event lands on the same tick.  ``schedule`` is an O(1)
dict insert/append; dispatch follows a **next-nonempty-bucket skip
pointer** — a min-heap of pending ticks, pushed once per slot creation
and popped once per slot drain — so run cost is
O(ticks·log ticks + events), independent of how sparse the horizon is
(a lone event a million ticks out costs one heap pop, not a
million-tick cursor scan).  Within a bucket, append order *is* ``seq``
order — ``seq`` increases monotonically — and the dispatch loop
restarts from the most urgent priority class after every callback,
which reproduces exactly the ``(time, priority, seq)`` total order a
heap would yield (see ``tests/property/test_scheduler_equivalence.py``,
which checks the bucket queue event-for-event, dense and sparse, against
the heap scheduler kept as a test oracle in ``tests/naive_oracles.py``).

The :class:`ScheduledEvent` handle is a ``__slots__`` object rather than
an ``order=True`` dataclass, which keeps per-event allocation small on
the broadcast hot path.
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


class ScheduledEvent:
    """Cancellable handle for one queued callback."""

    __slots__ = ("time", "priority", "seq", "callback", "note", "cancelled", "_sim")

    def __init__(
        self,
        time: int,
        priority: int,
        seq: int,
        callback: Callable[[], None],
        note: str,
        sim: "Simulator",
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.note = note
        self.cancelled = False
        self._sim = sim

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        flag = " cancelled" if self.cancelled else ""
        return f"ScheduledEvent(t={self.time},p={self.priority},#{self.seq}{flag})"


class Simulator:
    """Deterministic discrete-event scheduler with integer time."""

    def __init__(self, seed: int = 0) -> None:
        # tick -> slot.  A slot is either the tick's single pending entry
        # (a ScheduledEvent handle, or a (priority, callback) pair from
        # schedule_callback) or, once a second event lands on the tick, a
        # full bucket: one list per priority class, appended in seq order
        # (seq is monotone), so list order is dispatch order.
        self._buckets: dict[int, object] = {}
        self._bucket_pool: list[list[list]] = []  # drained buckets, reused
        # Min-heap of pending ticks: one entry per live slot, pushed on
        # creation, popped when that tick is drained.  The run loop jumps
        # straight to the next nonempty tick instead of scanning every
        # tick, so sparse horizons cost O(log ticks).
        self._tick_heap: list[int] = []
        self._seq = 0
        self._now = 0
        self._running = False
        self._events_processed = 0
        self._live = 0  # queued events that are not cancelled
        self.rng = random.Random(seed)

    @property
    def now(self) -> int:
        """Current simulation time in ticks."""

        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def schedule(
        self,
        time: int,
        priority: EventPriority,
        callback: Callable[[], None],
        note: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` at ``time``; returns a cancellable handle."""

        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, int(priority), seq, callback, note, self)
        slot = self._buckets.get(time)
        if slot is None:
            self._buckets[time] = event
            heapq.heappush(self._tick_heap, time)
        else:
            if slot.__class__ is not list:
                slot = self._promote(slot, time)
            slot[event.priority].append(event)
        self._live += 1
        return event

    def _promote(self, entry, time: int) -> list[list]:
        """Replace a single-entry slot with a full bucket holding it.

        Buckets are created lazily: a tick's dict slot holds its first
        event directly (no bucket allocation, no per-tick list churn) and
        only grows a real bucket when a second event lands on the same
        tick.  The first entry keeps its dispatch position because it is
        appended to its priority list before the newcomer.
        """

        pool = self._bucket_pool
        bucket = pool.pop() if pool else [[], [], [], []]
        if entry.__class__ is ScheduledEvent:
            bucket[entry.priority].append(entry)
        else:  # (priority, callback) pair from schedule_callback
            bucket[entry[0]].append(entry[1])
        self._buckets[time] = bucket
        return bucket

    def schedule_in(
        self,
        delay: int,
        priority: EventPriority,
        callback: Callable[[], None],
        note: str = "",
    ) -> ScheduledEvent:
        """Schedule ``callback`` after ``delay`` ticks."""

        return self.schedule(self._now + delay, priority, callback, note)

    def schedule_callback(
        self, time: int, priority: EventPriority, callback: Callable[[], None]
    ) -> None:
        """Fire-and-forget fast path: schedule with no cancellable handle.

        The broadcast/forward fanout schedules hundreds of thousands of
        delivery events per run and never cancels one; storing the bare
        callback in the bucket skips the :class:`ScheduledEvent`
        allocation entirely.  Dispatch order is identical to
        :meth:`schedule` — within a ``(time, priority)`` bucket list,
        append order *is* seq order.
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
                slot = self._promote(slot, time)
            slot[prio].append(callback)
        self._live += 1

    def pending_callbacks(self):
        """Iterate the callbacks of every live pending event.

        Snapshot capture scans these (``functools.partial`` args expose
        in-flight envelopes) to decide which per-view protocol state is
        still reachable.  Cancelled events are skipped; order is
        unspecified.
        """

        for slot in self._buckets.values():
            if isinstance(slot, list):  # promoted bucket: list per priority
                entries = (entry for events in slot for entry in events)
            elif isinstance(slot, tuple):  # (priority, callback) single slot
                entries = (slot[1],)
            else:  # a lone ScheduledEvent
                entries = (slot,)
            for entry in entries:
                if entry.__class__ is ScheduledEvent:
                    if not entry.cancelled:
                        yield entry.callback
                else:
                    yield entry

    @staticmethod
    def cancel(event: ScheduledEvent) -> None:
        """Cancel a scheduled event (lazy removal from its bucket).

        A no-op on events that already ran (``_sim`` is cleared on
        dispatch) or were already cancelled, so the live pending counter
        stays exact.
        """

        sim = event._sim
        if sim is not None and not event.cancelled:
            event.cancelled = True
            sim._live -= 1

    def _drain_bucket(
        self, bucket: list[list[ScheduledEvent]], limit: int | None = None
    ) -> int:
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
                event = l0[i0]
                i0 += 1
            elif i1 < len(l1):
                event = l1[i1]
                i1 += 1
            elif i2 < len(l2):
                event = l2[i2]
                i2 += 1
            elif i3 < len(l3):
                event = l3[i3]
                i3 += 1
            else:
                return executed
            if event.__class__ is ScheduledEvent:
                if event.cancelled:
                    continue
                event._sim = None  # executed: late cancel() becomes a no-op
                callback = event.callback
            else:
                callback = event  # bare fire-and-forget callable
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
                if slot.__class__ is ScheduledEvent:
                    if slot.cancelled:
                        continue
                    slot._sim = None
                    callback = slot.callback
                else:  # (priority, callback) pair from schedule_callback
                    callback = slot[1]
                self._live -= 1
                self._events_processed += 1
                callback()
                if remaining is not None:
                    remaining -= 1
                    if remaining < 0:
                        raise RuntimeError("event-loop safety limit exceeded")
        finally:
            self._running = False

    def pending_count(self) -> int:
        """Number of not-yet-cancelled queued events (live counter, O(1))."""

        return self._live
