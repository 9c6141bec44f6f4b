"""Property tests for the fault-injection engine's determinism and safety.

Four invariant families:

* **Plan determinism** — compiling a :class:`FaultSpec` is a pure
  function of ``(spec, dims)``, and the stateless per-message decisions
  form an identical injected event stream for identical seeds (hypothesis
  sweeps the spec space).
* **Run determinism** — a faulty run's decision stream is byte-identical
  across repeated executions, and identical whether the network asks
  the plan about every fan-out or not at all when the plan is
  semantically empty (hooks-vs-inline equivalence).
* **Batch ≡ per link** — :meth:`FaultPlan.decide`'s masks for a whole
  fan-out equal what ``cut`` / ``copies`` / ``spike`` answer link by link,
  for any recipient order, plan mask, origin, window overlap and rate mix.
* **Safety under faults** — the streaming safety check holds across a
  seed × fault-config matrix of crash, partition, message-fault and
  combined plans: compliance-checked fault plans stay inside the sleepy
  model, where safety is unconditional.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.faults import FaultPlan, FaultSpec, PartitionWindow
from repro.harness.scenarios import (
    crash_recovery_scenario,
    partition_scenario,
    stable_scenario,
)


class _Payload:
    def __init__(self, tag: str) -> None:
        self._tag = tag

    def digest(self) -> str:
        return self._tag


class _Envelope:
    def __init__(self, tag: str) -> None:
        self.payload = _Payload(tag)


def _message_stream(plan: FaultPlan, count: int = 120) -> list[tuple]:
    """The injected per-message decision stream over a fixed traffic shape."""

    stream = []
    for i in range(count):
        sender, recipient = i % plan.n, (i * 7 + 1) % plan.n
        envelope = _Envelope(f"payload-{i}")
        time = (i * 3) % plan.horizon if plan.horizon else 0
        stream.append(
            (
                plan.copies(sender, recipient, envelope, time),
                plan.spike(sender, recipient, envelope, time),
            )
        )
    return stream


def _decisions(result) -> list[tuple]:
    return [
        (e.time, e.view, e.validator, e.log) for e in result.trace.decisions
    ]


fault_specs = st.builds(
    FaultSpec,
    seed=st.integers(0, 2**16),
    crash_count=st.integers(0, 3),
    crash_view=st.integers(1, 3),
    drop_rate=st.floats(0.0, 0.4),
    duplicate_rate=st.floats(0.0, 0.4),
    delay_spike_rate=st.floats(0.0, 0.4),
    partitions=st.integers(0, 2),
)


class TestPlanDeterminism:
    @given(fault_specs)
    @settings(max_examples=40, deadline=None)
    def test_compile_and_decisions_pure_in_spec(self, spec):
        a = spec.compile(n=10, delta=2, horizon=200)
        b = spec.compile(n=10, delta=2, horizon=200)
        assert a.crash_windows == b.crash_windows
        assert a.partition_windows == b.partition_windows
        assert a.plan_id == b.plan_id
        assert _message_stream(a) == _message_stream(b)

    def test_different_seeds_give_different_streams(self):
        base = FaultSpec(seed=0, drop_rate=0.3, duplicate_rate=0.2)
        reference = _message_stream(base.compile(n=10, delta=2, horizon=200))
        differing = sum(
            _message_stream(base.with_seed(seed).compile(n=10, delta=2, horizon=200))
            != reference
            for seed in range(1, 9)
        )
        assert differing == 8  # 120 Bernoulli samples per stream: collision ~ 0

    @given(fault_specs)
    @settings(max_examples=20, deadline=None)
    def test_spec_id_roundtrips_with_plan(self, spec):
        assert FaultSpec.from_dict(spec.to_dict()).spec_id == spec.spec_id


class TestRunDeterminism:
    def test_faulty_run_is_repeatable(self):
        streams = [
            _decisions(
                crash_recovery_scenario(
                    n=10, num_views=6, delta=2, seed=3, drop_rate=0.05
                ).run()
            )
            for _ in range(2)
        ]
        assert streams[0] and streams[0] == streams[1]

    def test_partition_run_is_repeatable(self):
        streams = [
            _decisions(partition_scenario(n=10, num_views=6, delta=2, seed=5).run())
            for _ in range(2)
        ]
        assert streams[0] and streams[0] == streams[1]

    def test_hooks_vs_inline_byte_identity(self):
        # A plan whose only "fault" is a partition window far past the
        # horizon: has_message_faults is True, so the network asks the
        # plan about every fan-out — but no decision ever fires.  The
        # decision stream must be byte-equal to the plain run that never
        # leaves the shared-fanout fast path: injection plumbing itself
        # is behaviour-invariant.
        config = TobSvdConfig(n=8, num_views=6, delta=2, seed=1)
        idle_plan = FaultPlan(
            spec=FaultSpec(),
            n=config.n,
            delta=config.delta,
            horizon=config.horizon,
            crash_windows=(),
            partition_windows=(
                PartitionWindow(10**9, 10**9 + 1, (0,)),
            ),
        )
        assert idle_plan.has_message_faults
        hooked = TobSvdProtocol(config, fault_plan=idle_plan).run()
        plain = stable_scenario(n=8, num_views=6, delta=2, seed=1).run()
        assert _decisions(hooked) == _decisions(plain)
        assert hooked.network.fault_drops == 0
        assert hooked.network.fault_duplicates == 0
        assert hooked.network.fault_spikes == 0


@st.composite
def fan_outs(draw):
    """A plan's arguments plus fan-outs to decide under it.

    Recipient orders are permutations (registration order ≠ id order) and
    may grow between fan-outs (a late ``register``); windows overlap
    freely; times sit on window edges; every rate may be zero.
    """

    n = draw(st.sampled_from([2, 3, 16, 70]))  # 70: past one machine word
    rate = st.sampled_from([0.0, 0.3, 1.0])
    spec = FaultSpec(
        seed=draw(st.integers(0, 2**16)),
        drop_rate=draw(rate),
        duplicate_rate=draw(rate),
        delay_spike_rate=draw(rate),
        delay_spike_deltas=draw(st.sampled_from([0, 2])),
    )
    windows = tuple(
        PartitionWindow(start, start + length, tuple(sorted(isolated)))
        for start, length, isolated in draw(
            st.lists(
                st.tuples(
                    st.integers(0, 20),
                    st.integers(1, 12),
                    st.sets(st.integers(0, n - 1), min_size=1, max_size=max(1, n // 2)),
                ),
                max_size=3,
            )
        )
    )
    edges = [
        time
        for w in windows
        for time in (w.start - 1, w.start, w.heal - 1, w.heal)
        if time >= 0
    ]
    times = st.sampled_from(edges) if edges else st.integers(0, 40)
    order = tuple(draw(st.permutations(range(n))))
    sends = draw(
        st.lists(
            st.tuples(
                st.integers(1, n),  # how many nodes have registered so far
                st.integers(0, n + 1),  # origin: n and n + 1 never register
                st.one_of(st.just(0), st.just(-1), st.integers(0, 2**70)),  # plan
                times,
                st.integers(0, 3),  # payload tag
            ),
            min_size=1,
            max_size=6,
        )
    )
    return (spec, n, 2, 64, (), windows), order, sends


class TestBatchMatchesPerLink:
    @given(fan_outs())
    @settings(max_examples=150, deadline=None)
    def test_decide_equals_the_per_link_definition(self, data):
        plan_args, order, sends = data
        batch, reference = FaultPlan(*plan_args), FaultPlan(*plan_args)
        for registered, origin, plan, time, tag in sends:
            ids = order[:registered]
            plan &= (1 << registered) - 1
            envelope = _Envelope(f"payload-{tag}")
            kept = dup = spiked = 0
            for index, vid in enumerate(ids):
                if not plan >> index & 1:
                    continue
                copies = reference.copies(origin, vid, envelope, time)
                if copies:
                    kept |= 1 << index
                    dup |= (copies == 2) << index
                    spiked |= bool(reference.spike(origin, vid, envelope, time)) << index
            assert batch.decide(origin, ids, plan, envelope, time) == (kept, dup, spiked)


# The acceptance matrix: >= 3 seeds x >= 4 fault configurations, each run
# under bounded retention so the *streaming* safety reducer is what
# certifies the run.
_FAULT_MATRIX = [
    ("crash", dict(crash_count=2, crash_view=2, crash_deltas=8)),
    ("partition", dict(partitions=1, partition_fraction=0.25, partition_view=2)),
    ("messages", dict(drop_rate=0.1, duplicate_rate=0.1, delay_spike_rate=0.05)),
    (
        "combined",
        dict(
            crash_count=1,
            crash_view=3,
            drop_rate=0.05,
            partitions=1,
            partition_fraction=0.2,
            partition_view=1,
        ),
    ),
]


class TestSafetyUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "name,params", _FAULT_MATRIX, ids=[name for name, _ in _FAULT_MATRIX]
    )
    def test_streaming_safety_holds(self, name, params, seed):
        spec = FaultSpec(seed=seed, **params)
        builder = {
            "crash": crash_recovery_scenario,
            "partition": partition_scenario,
        }.get(name)
        if builder is not None:
            protocol = builder(
                n=10, num_views=8, delta=2, seed=seed,
                fault_spec=spec, trace_mode="bounded",
            )
        else:
            config = TobSvdConfig(n=10, num_views=8, delta=2, seed=seed)
            plan = spec.compile(
                n=config.n, delta=config.delta, horizon=config.horizon,
                view_ticks=config.time.view_ticks,
            )
            protocol = stable_scenario(
                n=10, num_views=8, delta=2, seed=seed,
                trace_mode="bounded", fault_plan=plan,
            )
        result = protocol.run()
        analysis = result.analysis
        assert analysis.safety().safe, f"{name} seed={seed} violated safety"
        if name in ("crash", "combined"):
            assert analysis.fault_summary()["crashes"] > 0
        if name == "partition":
            summary = analysis.fault_summary()
            assert summary["partitions"] > 0 and summary["heals"] > 0
