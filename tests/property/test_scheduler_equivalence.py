"""The tick-bucket scheduler is event-for-event equal to the heap oracle.

The calendar/bucket queue in :mod:`repro.sim.simulator` claims to
reproduce the exact ``(time, priority, seq)`` total order of the
:class:`HeapSimulator` oracle (:mod:`tests.naive_oracles`).  These tests
drive both schedulers with the same randomized workload — nested
scheduling from inside callbacks, zero-delay same-tick events at every
priority — and require identical execution traces.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.simulator import EventPriority, Simulator
from tests.naive_oracles import HeapSimulator

PRIORITIES = list(EventPriority)


@st.composite
def schedules(draw):
    """A workload script: top-level events, each optionally spawning more.

    Each entry is ``(time, priority, spawns)`` where ``spawns`` is a list
    of ``(extra_delay, priority)`` events the callback schedules when it
    runs; ``extra_delay`` 0 exercises same-tick re-entry at every
    priority.
    """

    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, 12),  # time
                st.sampled_from(PRIORITIES),
                st.lists(
                    st.tuples(
                        st.integers(0, 4),  # extra delay (0 = same tick)
                        st.sampled_from(PRIORITIES),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=12,
        )
    )
    return entries


def run_script(sim, entries, horizon=40):
    """Execute the script on ``sim``; returns the dispatch trace."""

    trace = []

    def make_callback(label, spawns):
        def callback():
            trace.append((sim.now, label))
            for j, (extra, prio) in enumerate(spawns):
                sim.schedule_callback(
                    sim.now + extra, prio, make_callback(f"{label}.{j}", [])
                )

        return callback

    for i, (time, prio, spawns) in enumerate(entries):
        sim.schedule_callback(time, prio, make_callback(f"e{i}", spawns))
    sim.run_until(horizon)
    return trace


@st.composite
def sparse_schedules(draw):
    """Like :func:`schedules`, but over a huge, mostly-empty horizon.

    Times spread across a billion ticks (forcing the skip pointer to
    jump, never scan) with spawn delays large enough to land in empty
    regions and small enough (including 0) to hit the same tick — the
    single-slot promotion and same-tick re-entry edges of the lazy
    bucket representation.
    """

    entries = draw(
        st.lists(
            st.tuples(
                st.integers(0, 1_000_000_000),  # time: sparse horizon
                st.sampled_from(PRIORITIES),
                st.lists(
                    st.tuples(
                        st.sampled_from([0, 1, 999_983]),  # spawn delay
                        st.sampled_from(PRIORITIES),
                    ),
                    max_size=3,
                ),
            ),
            min_size=1,
            max_size=10,
        )
    )
    return entries


class TestSchedulerEquivalence:
    @settings(max_examples=200, deadline=None)
    @given(schedules())
    def test_bucket_matches_heap_event_for_event(self, entries):
        bucket_trace = run_script(Simulator(seed=1), entries)
        heap_trace = run_script(HeapSimulator(seed=1), entries)
        assert bucket_trace == heap_trace

    @settings(max_examples=150, deadline=None)
    @given(sparse_schedules())
    def test_bucket_matches_heap_on_sparse_horizons(self, entries):
        horizon = 2_000_000_000
        bucket_trace = run_script(Simulator(seed=1), entries, horizon=horizon)
        heap_trace = run_script(HeapSimulator(seed=1), entries, horizon=horizon)
        assert bucket_trace == heap_trace

    @settings(max_examples=75, deadline=None)
    @given(sparse_schedules())
    def test_counters_agree_on_sparse_horizons(self, entries):
        bucket, heap = Simulator(seed=1), HeapSimulator(seed=1)
        run_script(bucket, entries, horizon=2_000_000_000)
        run_script(heap, entries, horizon=2_000_000_000)
        assert bucket.events_processed == heap.events_processed
        assert bucket.pending_count() == heap.pending_count()
        assert bucket.now == heap.now

    @settings(max_examples=100, deadline=None)
    @given(schedules())
    def test_counters_agree(self, entries):
        bucket, heap = Simulator(seed=1), HeapSimulator(seed=1)
        run_script(bucket, entries)
        run_script(heap, entries)
        assert bucket.events_processed == heap.events_processed
        assert bucket.pending_count() == heap.pending_count()
        assert bucket.now == heap.now

    def test_run_to_exhaustion_matches(self):
        entries = [(3, EventPriority.TIMER, [(0, EventPriority.CONTROL)])]
        traces = []
        for sim in (Simulator(), HeapSimulator()):
            trace = []
            for t, p, spawns in entries:
                def cb(sim=sim, trace=trace, spawns=spawns):
                    trace.append((sim.now, "root"))
                    for extra, prio in spawns:
                        sim.schedule_callback(
                            sim.now + extra,
                            prio,
                            lambda: trace.append((sim.now, "spawn")),
                        )
                sim.schedule_callback(t, p, cb)
            sim.run_to_exhaustion()
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_same_tick_control_preempts_remaining_deliveries(self):
        # A DELIVERY callback scheduling a CONTROL event at the same tick:
        # the CONTROL event must run before the remaining DELIVERY events,
        # exactly as (time, priority, seq) ordering dictates.
        for sim_cls in (Simulator, HeapSimulator):
            sim = sim_cls()
            order = []

            def first():
                order.append("d1")
                sim.schedule_callback(
                    sim.now, EventPriority.CONTROL, lambda: order.append("c")
                )

            sim.schedule_callback(5, EventPriority.DELIVERY, first)
            sim.schedule_callback(5, EventPriority.DELIVERY, lambda: order.append("d2"))
            sim.run_until(5)
            assert order == ["d1", "c", "d2"], sim_cls.__name__
