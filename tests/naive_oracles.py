"""Reference implementations the fast paths are tested against.

Both were the production code before a rewrite and are kept only as
oracles: :class:`HeapSimulator` for the bucket-queue scheduler
(``tests/property/test_scheduler_equivalence.py``,
``test_delivery_order.py``) and :func:`majority_chain_naive` for the
tip-indexed :func:`repro.core.quorum.majority_chain`
(``tests/property/test_fastpath_properties.py``).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Callable, Iterable

from repro.chain.log import Log
from repro.core.quorum import meets_quorum
from repro.core.state import Pair
from repro.sim.simulator import EventPriority, ScheduledEvent, Simulator


class HeapSimulator(Simulator):
    """The pre-bucket-queue heap scheduler, kept as a reference oracle.

    Semantically identical to :class:`Simulator`: a binary heap of
    ``(time, priority, seq, event)`` tuples dispatched in ascending
    order, so randomized equivalence tests can check the bucket queue
    event-for-event against an independent implementation.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._queue: list[tuple[int, int, int, ScheduledEvent]] = []

    def schedule(
        self,
        time: int,
        priority: EventPriority,
        callback: Callable[[], None],
        note: str = "",
    ) -> ScheduledEvent:
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        seq = self._seq
        self._seq = seq + 1
        event = ScheduledEvent(time, int(priority), seq, callback, note, self)
        heapq.heappush(self._queue, (time, event.priority, seq, event))
        self._live += 1
        return event

    def schedule_callback(
        self, time: int, priority: EventPriority, callback: Callable[[], None]
    ) -> None:
        """Handle-free scheduling, via a full handle (reference semantics)."""

        self.schedule(time, priority, callback)

    def run_until(self, end_time: int) -> None:
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        try:
            while queue and queue[0][0] <= end_time:
                event = heapq.heappop(queue)[3]
                if event.cancelled:
                    continue
                event._sim = None
                self._live -= 1
                self._now = event.time
                self._events_processed += 1
                event.callback()
            self._now = max(self._now, end_time)
        finally:
            self._running = False

    def run_to_exhaustion(self, safety_limit: int = 10_000_000) -> None:
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        processed = 0
        try:
            while queue:
                event = heapq.heappop(queue)[3]
                if event.cancelled:
                    continue
                event._sim = None
                self._live -= 1
                self._now = event.time
                self._events_processed += 1
                event.callback()
                processed += 1
                if processed > safety_limit:
                    raise RuntimeError("event-loop safety limit exceeded")
        finally:
            self._running = False


def majority_chain_naive(pairs: Iterable[Pair], sender_count: int) -> list[Log]:
    """Reference implementation of :func:`majority_chain` (prefix-set based).

    Kept as the oracle for randomised property tests: it materialises every
    prefix of every reported log and counts supporters per prefix ``Log``,
    exactly as the fast path did before the tip-indexed rewrite.
    """

    pair_list = list(pairs)
    if not pair_list or sender_count <= 0:
        return []
    supporters: dict[Log, set[int]] = defaultdict(set)
    for sender, log in pair_list:
        for prefix in log.all_prefixes():
            supporters[prefix].add(sender)
    chain = [
        log
        for log, senders in supporters.items()
        if meets_quorum(len(senders), sender_count)
    ]
    chain.sort(key=len)
    return chain
