"""Unit tests for the discrete-event simulator and time config."""

import pytest

from repro.sim.clock import TimeConfig
from repro.sim.simulator import EventPriority, Simulator


class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule_callback(5, EventPriority.TIMER, lambda: order.append("b"))
        sim.schedule_callback(1, EventPriority.TIMER, lambda: order.append("a"))
        sim.run_until(10)
        assert order == ["a", "b"]

    def test_priority_breaks_time_ties(self):
        sim = Simulator()
        order = []
        sim.schedule_callback(3, EventPriority.TIMER, lambda: order.append("timer"))
        sim.schedule_callback(3, EventPriority.DELIVERY, lambda: order.append("delivery"))
        sim.schedule_callback(3, EventPriority.CONTROL, lambda: order.append("control"))
        sim.run_until(3)
        assert order == ["control", "delivery", "timer"]

    def test_fifo_within_same_priority(self):
        sim = Simulator()
        order = []
        for i in range(5):
            sim.schedule_callback(1, EventPriority.TIMER, lambda i=i: order.append(i))
        sim.run_until(1)
        assert order == [0, 1, 2, 3, 4]

    def test_now_tracks_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_callback(4, EventPriority.TIMER, lambda: seen.append(sim.now))
        sim.run_until(10)
        assert seen == [4]
        assert sim.now == 10

    def test_scheduling_in_the_past_rejected(self):
        sim = Simulator()
        sim.schedule_callback(2, EventPriority.TIMER, lambda: None)
        sim.run_until(5)
        with pytest.raises(ValueError):
            sim.schedule_callback(3, EventPriority.TIMER, lambda: None)

    def test_events_scheduled_during_run_are_processed(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_callback(sim.now, EventPriority.TIMER, lambda: order.append("nested"))

        sim.schedule_callback(1, EventPriority.TIMER, first)
        sim.run_until(1)
        assert order == ["first", "nested"]

    def test_run_until_excludes_later_events(self):
        sim = Simulator()
        hits = []
        sim.schedule_callback(5, EventPriority.TIMER, lambda: hits.append(5))
        sim.schedule_callback(6, EventPriority.TIMER, lambda: hits.append(6))
        sim.run_until(5)
        assert hits == [5]
        sim.run_until(6)
        assert hits == [5, 6]

    def test_run_to_exhaustion(self):
        sim = Simulator()
        hits = []
        sim.schedule_callback(100, EventPriority.TIMER, lambda: hits.append(1))
        sim.run_to_exhaustion()
        assert hits == [1]

    def test_pending_count(self):
        sim = Simulator()
        sim.schedule_callback(1, EventPriority.TIMER, lambda: None)
        sim.schedule_callback(2, EventPriority.TIMER, lambda: None)
        assert sim.pending_count() == 2
        sim.run_until(1)
        assert sim.pending_count() == 1

    def test_deterministic_rng(self):
        assert Simulator(seed=5).rng.random() == Simulator(seed=5).rng.random()


class TestSparseHorizons:
    """The lazy-slot / skip-pointer fast path (single events, huge gaps)."""

    def test_far_future_event_runs_without_tick_scan(self):
        # A horizon this size would take minutes under a per-tick cursor
        # scan; the skip pointer makes it one heap pop.
        sim = Simulator()
        hits = []
        sim.schedule_callback(10**9, EventPriority.TIMER, lambda: hits.append(sim.now))
        sim.run_to_exhaustion()
        assert hits == [10**9]
        assert sim.now == 10**9

    def test_single_slot_promotes_to_bucket_in_seq_order(self):
        # First entry arrives alone (slot), second forces promotion; the
        # first must keep its dispatch position within its priority.
        sim = Simulator()
        order = []
        sim.schedule_callback(7, EventPriority.TIMER, lambda: order.append("a"))
        sim.schedule_callback(7, EventPriority.TIMER, lambda: order.append("b"))
        sim.schedule_callback(7, EventPriority.CONTROL, lambda: order.append("c"))
        sim.run_until(7)
        assert order == ["c", "a", "b"]

    def test_bare_callback_slot_promotes_with_its_priority(self):
        sim = Simulator()
        order = []
        sim.schedule_callback(4, EventPriority.TIMER, lambda: order.append("timer"))
        sim.schedule_callback(4, EventPriority.DELIVERY, lambda: order.append("delivery"))
        sim.run_until(4)
        assert order == ["delivery", "timer"]

    def test_single_slot_spawning_same_tick_event_preserves_order(self):
        sim = Simulator()
        order = []

        def first():
            order.append("first")
            sim.schedule_callback(
                sim.now, EventPriority.CONTROL, lambda: order.append("spawn")
            )

        sim.schedule_callback(9, EventPriority.DELIVERY, first)
        sim.run_until(9)
        assert order == ["first", "spawn"]
        assert sim.events_processed == 2

    def test_sparse_exhaustion_respects_safety_limit(self):
        sim = Simulator()
        sim.schedule_callback(10, EventPriority.TIMER, lambda: None)
        sim.schedule_callback(10**6, EventPriority.TIMER, lambda: None)
        with pytest.raises(RuntimeError):
            sim.run_to_exhaustion(safety_limit=1)


class TestTimeConfig:
    def test_view_arithmetic(self):
        time = TimeConfig(delta=4, view_length_deltas=4)
        assert time.view_ticks == 16
        assert time.view_start(3) == 48
        assert time.view_of(47) == 2
        assert time.view_of(48) == 3

    def test_deltas_conversion(self):
        time = TimeConfig(delta=4)
        assert time.deltas(2.5) == 10
        assert time.in_deltas(10) == 2.5

    def test_fractional_ticks_rejected(self):
        time = TimeConfig(delta=3)
        with pytest.raises(ValueError):
            time.deltas(0.5)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            TimeConfig(delta=0)
        with pytest.raises(ValueError):
            TimeConfig(delta=1, view_length_deltas=0)
