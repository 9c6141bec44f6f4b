"""Reference implementations the fast paths are tested against.

All were the production code before a rewrite and are kept only as
oracles: :class:`HeapSimulator` for the bucket-queue scheduler
(``tests/property/test_scheduler_equivalence.py``,
``test_delivery_order.py``), :func:`majority_chain_naive` for the
tip-indexed :func:`repro.core.quorum.majority_chain`
(``tests/property/test_fastpath_properties.py``) and
:class:`NeverRetiringValidator` for run-time view retirement
(``tests/integration/test_view_retirement.py``).
"""

from __future__ import annotations

import heapq
from collections import defaultdict
from typing import Callable, Iterable

from repro.chain.log import Log
from repro.core.quorum import meets_quorum
from repro.core.state import Pair
from repro.core.tobsvd import TobSvdValidator
from repro.sim.simulator import EventPriority, Simulator


class HeapSimulator(Simulator):
    """The pre-bucket-queue heap scheduler, kept as a reference oracle.

    Semantically identical to :class:`Simulator`: a binary heap of
    ``(time, priority, seq, callback)`` tuples dispatched in ascending
    order, so randomized equivalence tests can check the bucket queue
    event-for-event against an independent implementation.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._queue: list[tuple[int, int, int, Callable[[], None]]] = []
        self._seq = 0

    def schedule_callback(
        self, time: int, priority: EventPriority, callback: Callable[[], None]
    ) -> None:
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time} before current time {self._now}"
            )
        heapq.heappush(self._queue, (time, int(priority), self._seq, callback))
        self._seq += 1
        self._live += 1

    def _dispatch(self, end_time: int | None, safety_limit: int | None) -> None:
        if self._running:
            raise RuntimeError("simulator is not re-entrant")
        self._running = True
        queue = self._queue
        processed = 0
        try:
            while queue and (end_time is None or queue[0][0] <= end_time):
                time, _priority, _seq, callback = heapq.heappop(queue)
                self._live -= 1
                self._now = time
                self._events_processed += 1
                callback()
                processed += 1
                if safety_limit is not None and processed > safety_limit:
                    raise RuntimeError("event-loop safety limit exceeded")
        finally:
            self._running = False

    def run_until(self, end_time: int) -> None:
        self._dispatch(end_time, None)
        self._now = max(self._now, end_time)

    def run_to_exhaustion(self, safety_limit: int = 10_000_000) -> None:
        self._dispatch(None, safety_limit)


class NeverRetiringValidator(TobSvdValidator):
    """A TOB-SVD validator that keeps every view's GA instance and proposal
    book live for the whole run, as every validator did before views were
    retired at decide time; a late message for an old view meets the full
    ``V``/``E`` state instead of a tombstone."""

    def _retire_views_below(self, floor: int) -> None:
        pass


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
