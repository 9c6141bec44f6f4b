"""Property-based tests for schedules, participation sets and compliance."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import CrashWindow, FaultPlan, FaultSpec, PartitionWindow
from repro.sim.simulator import EventPriority, Simulator
from repro.sleepy.compliance import check_compliance, max_tolerable_byzantine
from repro.sleepy.controller import SleepController
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.participation import ParticipationModel
from repro.sleepy.schedule import AwakeSchedule, Interval


@st.composite
def schedules(draw, n_max=8, horizon=200):
    n = draw(st.integers(2, n_max))
    intervals = {}
    for vid in range(n):
        ivs = []
        time = draw(st.integers(0, 30))
        for _ in range(draw(st.integers(0, 3))):
            length = draw(st.integers(1, 50))
            ivs.append(Interval(time, time + length))
            time += length + draw(st.integers(1, 30))
        if draw(st.booleans()):
            ivs.append(Interval(time, None))
        intervals[vid] = ivs
    return AwakeSchedule(n, intervals)


@st.composite
def corruption_plans(draw, n=8):
    plan = CorruptionPlan.static(
        frozenset(draw(st.sets(st.integers(0, n - 1), max_size=n // 2)))
    )
    for _ in range(draw(st.integers(0, 2))):
        plan = plan.with_corruption(
            scheduled_at=draw(st.integers(0, 100)),
            validator=draw(st.integers(0, n - 1)),
            delta=draw(st.integers(1, 8)),
            mildly_adaptive=draw(st.booleans()),
        )
    return plan


class TestScheduleProperties:
    @given(schedules(), st.integers(0, 199))
    def test_awake_iff_inside_some_interval(self, schedule, time):
        for vid in range(schedule.n):
            expected = any(iv.contains(time) for iv in schedule.intervals_for(vid))
            assert schedule.awake(vid, time) == expected

    @given(schedules(), st.integers(0, 150), st.integers(0, 49))
    def test_awake_throughout_implies_awake_everywhere(self, schedule, t1, span):
        t2 = t1 + span
        for vid in range(schedule.n):
            if schedule.awake_throughout(vid, t1, t2):
                for t in range(t1, t2 + 1, max(1, span // 5)):
                    assert schedule.awake(vid, t)

    @given(schedules())
    @settings(max_examples=30)
    def test_transitions_reconstruct_awake_state(self, schedule):
        horizon = 200
        for vid in range(schedule.n):
            state = schedule.awake(vid, 0)
            transitions = dict()
            for time, becomes in schedule.transition_times(vid, horizon):
                transitions[time] = becomes
            current = state if 0 not in transitions else transitions[0]
            for t in range(horizon + 1):
                if t in transitions and t > 0:
                    current = transitions[t]
                assert schedule.awake(vid, t) == current, (vid, t)


class TestParticipationProperties:
    @given(schedules(), corruption_plans(), st.integers(0, 150))
    @settings(max_examples=50)
    def test_honest_and_byzantine_disjoint(self, schedule, plan, time):
        plan = CorruptionPlan(
            initial_byzantine=frozenset(
                v for v in plan.initial_byzantine if v < schedule.n
            ),
            scheduled=[c for c in plan.scheduled if c.validator < schedule.n],
        )
        model = ParticipationModel(schedule=schedule, corruption=plan)
        assert not (model.honest_at(time) & model.byzantine_at(time))

    @given(schedules(), corruption_plans(), st.integers(0, 100), st.integers(0, 50))
    @settings(max_examples=50)
    def test_byzantine_monotone(self, schedule, plan, t1, span):
        plan = CorruptionPlan(
            initial_byzantine=frozenset(
                v for v in plan.initial_byzantine if v < schedule.n
            ),
            scheduled=[c for c in plan.scheduled if c.validator < schedule.n],
        )
        model = ParticipationModel(schedule=schedule, corruption=plan)
        assert model.byzantine_at(t1) <= model.byzantine_at(t1 + span)

    @given(schedules(), st.integers(0, 100), st.integers(0, 30), st.integers(0, 30))
    @settings(max_examples=50)
    def test_honest_throughout_antitone_in_interval(self, schedule, t, a, b):
        """A longer interval can only shrink H_{t1,t2}."""

        model = ParticipationModel(schedule=schedule, corruption=CorruptionPlan.none())
        small = model.honest_throughout(t, t + a)
        large = model.honest_throughout(t - b, t + a)
        assert large <= small


class TestComplianceProperties:
    @given(st.integers(2, 60))
    def test_max_tolerable_is_tight(self, n):
        f = max_tolerable_byzantine(n)
        assert f < 0.5 * n
        assert (f + 1) >= 0.5 * n

    @given(st.integers(3, 20), st.data())
    @settings(max_examples=40)
    def test_static_compliance_matches_closed_form(self, n, data):
        f = data.draw(st.integers(0, n - 1))
        model = ParticipationModel(
            schedule=AwakeSchedule.always_awake(n),
            corruption=CorruptionPlan.static(frozenset(range(n - f, n))),
        )
        report = check_compliance(model, t_b=10, t_s=5, rho=0.5, horizon=50)
        assert report.compliant == (f <= max_tolerable_byzantine(n))

    @given(schedules(), st.integers(1, 20), st.integers(0, 10))
    @settings(max_examples=30)
    def test_compliance_antitone_in_t_s(self, schedule, t_b, t_s):
        """A longer stability requirement can only make compliance harder."""

        model = ParticipationModel(schedule=schedule, corruption=CorruptionPlan.none())
        relaxed = check_compliance(model, t_b=t_b, t_s=0, rho=0.5, horizon=100)
        strict = check_compliance(model, t_b=t_b, t_s=t_s, rho=0.5, horizon=100)
        if relaxed.violations:
            # Any violation with T_s = 0 must persist (H_{t-Ts,t} ⊆ H_t).
            assert strict.violations


class _RecordingSimulator(Simulator):
    """Keeps what the controller wrote, per tick, in write order."""

    def __init__(self):
        super().__init__()
        self.written = {}

    def schedule_callback(self, time, priority, callback):
        assert priority == EventPriority.CONTROL  # so write order is dispatch order
        self.written.setdefault(time, []).append((callback.func.__name__, callback.args))
        super().schedule_callback(time, priority, callback)


class _Node:
    awake = True
    corrupted = False

    def __init__(self, vid):
        self.validator_id = vid


class _Network:
    def set_awake(self, vid, awake):
        pass


@st.composite
def fault_plans(draw, n):
    def window():
        start = draw(st.integers(0, 150))
        return start, start + draw(st.integers(1, 60))

    crashes = tuple(
        CrashWindow(draw(st.integers(0, n - 1)), *window())
        for _ in range(draw(st.integers(0, 3)))
    )
    partitions = tuple(
        PartitionWindow(*window(), tuple(draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=2))))
        for _ in range(draw(st.integers(0, 2)))
    )
    return FaultPlan(FaultSpec(), n, 2, 250, crashes, partitions)


def _calendar(schedule, corruption, plan, horizons):
    """What ``install`` over successive windows leaves in the calendar."""

    sim = _RecordingSimulator()
    controller = SleepController(
        sim, _Network(), schedule, corruption, trace=object(), fault_plan=plan
    )
    for vid in range(schedule.n):
        controller.manage(_Node(vid))
    after = -1
    for horizon in horizons:
        controller.install(horizon, after=after)
        after = horizon
    assert sim.pending_count() == sum(map(len, sim.written.values()))
    return sim.written


class TestWindowedInstall:
    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_split_install_writes_the_from_genesis_calendar(self, data):
        schedule = data.draw(schedules())
        corruption = data.draw(corruption_plans(n=schedule.n))
        plan = data.draw(st.none() | fault_plans(schedule.n))
        whole = _calendar(schedule, corruption, plan, [250])
        # Window edges on event ticks are the interesting ones: an event at
        # exactly h1 belongs to the first window only.
        edge = st.integers(0, 249)
        if whole:
            edge |= st.sampled_from(sorted(whole)).filter(lambda tick: tick < 250)
        h1 = data.draw(edge)
        h2 = data.draw(st.integers(h1 + 1, 250))
        expected = {tick: calls for tick, calls in whole.items() if tick <= h2}
        assert _calendar(schedule, corruption, plan, [h2]) == expected
        assert _calendar(schedule, corruption, plan, [h1, h2]) == expected
