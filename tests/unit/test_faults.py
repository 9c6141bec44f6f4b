"""Unit tests for the deterministic fault-injection engine.

Covers the declarative :class:`FaultSpec` (validation, identity,
round-tripping), compilation into :class:`FaultPlan` (victim selection,
horizon clamping, minority caps, window merging), the stateless
per-message decisions, harness-layer chaos (:class:`ChaosPlan`,
:func:`retry_backoff`), schedule subtraction, and the result-store
corruption recovery + quarantine machinery the self-healing executor
rests on.
"""

import hashlib
import json
import os
import pickle
import sys
import types
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

import repro.faults
from repro.faults import (
    ChaosPlan,
    CrashWindow,
    FaultPlan,
    FaultSpec,
    PartitionWindow,
    _draw_limit,
    crashed_schedule,
    retry_backoff,
)
from repro.harness.sweep import (
    ExperimentSpec,
    ResultStore,
    canonical_record,
    quarantine_record,
    run_cell,
    run_sweep,
)
from repro.sleepy.schedule import AwakeSchedule

TINY = ExperimentSpec(
    name="faults-unit", ns=(4,), fs=(0,), deltas=(1,), seeds=2,
    num_views=4, txs_per_cell=2,
)


class _FakePayload:
    def __init__(self, tag: str) -> None:
        self._tag = tag

    def digest(self) -> str:
        return self._tag


class _FakeEnvelope:
    def __init__(self, tag: str = "msg") -> None:
        self.payload = _FakePayload(tag)


# ---------------------------------------------------------------------------
# FaultSpec
# ---------------------------------------------------------------------------


class TestFaultSpec:
    def test_defaults_inject_nothing(self):
        spec = FaultSpec()
        assert not spec.any_faults
        plan = spec.compile(n=8, delta=2, horizon=100)
        assert plan.crash_windows == ()
        assert plan.partition_windows == ()
        assert not plan.has_message_faults

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"drop_rate": -0.1},
            {"drop_rate": 1.5},
            {"duplicate_rate": 2.0},
            {"delay_spike_rate": -1.0},
            {"crash_count": -1},
            {"partitions": -2},
            {"crash_count": 1, "crash_deltas": 0},
            {"partitions": 1, "partition_fraction": 0.0},
            {"partitions": 1, "partition_fraction": 0.5},
            {"partitions": 1, "partition_deltas": 0},
        ],
    )
    def test_validation_rejects(self, kwargs):
        with pytest.raises(ValueError):
            FaultSpec(**kwargs)

    def test_canonical_key_distinguishes_specs(self):
        base = FaultSpec(seed=1, drop_rate=0.1)
        assert base.canonical_key != FaultSpec(seed=2, drop_rate=0.1).canonical_key
        assert base.canonical_key != FaultSpec(seed=1, drop_rate=0.2).canonical_key
        assert base.spec_id != FaultSpec(seed=2, drop_rate=0.1).spec_id
        assert len(base.spec_id) == 16

    def test_roundtrip(self):
        spec = FaultSpec(seed=7, crash_count=2, drop_rate=0.05, partitions=1)
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="unknown fault-spec keys"):
            FaultSpec.from_dict({"seed": 1, "bogus": 2})

    def test_with_seed_changes_only_seed(self):
        spec = FaultSpec(seed=1, crash_count=2)
        reseeded = spec.with_seed(9)
        assert reseeded.seed == 9
        assert reseeded.crash_count == 2


# ---------------------------------------------------------------------------
# Compilation
# ---------------------------------------------------------------------------


class TestCompile:
    def test_compile_is_deterministic(self):
        spec = FaultSpec(seed=3, crash_count=3, partitions=2, drop_rate=0.1)
        a = spec.compile(n=10, delta=2, horizon=200)
        b = spec.compile(n=10, delta=2, horizon=200)
        assert a.crash_windows == b.crash_windows
        assert a.partition_windows == b.partition_windows
        assert a.plan_id == b.plan_id

    def test_different_seed_different_victims(self):
        spec = FaultSpec(seed=0, crash_count=3)
        plans = [
            spec.with_seed(seed).compile(n=12, delta=2, horizon=200)
            for seed in range(8)
        ]
        victim_sets = {
            tuple(w.validator for w in plan.crash_windows) for plan in plans
        }
        assert len(victim_sets) > 1

    def test_protected_ids_never_crash_or_isolate(self):
        protected = frozenset({0, 1})
        spec = FaultSpec(seed=5, crash_count=3, partitions=2)
        plan = spec.compile(n=10, delta=2, horizon=400, protected=protected)
        for window in plan.crash_windows:
            assert window.validator not in protected
        for window in plan.partition_windows:
            assert not (set(window.isolated) & protected)

    def test_crash_count_capped_at_minority(self):
        plan = FaultSpec(seed=1, crash_count=50).compile(n=9, delta=2, horizon=400)
        assert len({w.validator for w in plan.crash_windows}) <= (9 - 1) // 2

    def test_partition_size_capped_at_minority(self):
        plan = FaultSpec(seed=1, partitions=1, partition_fraction=0.49).compile(
            n=10, delta=2, horizon=400
        )
        (window,) = plan.partition_windows
        assert len(window.isolated) <= (10 - 1) // 2

    def test_horizon_clamps_windows(self):
        spec = FaultSpec(seed=2, crash_count=2, crash_view=5)
        plan = spec.compile(n=8, delta=2, horizon=10)  # crash starts at t=40
        assert plan.crash_windows == ()
        plan = FaultSpec(seed=2, partitions=3, partition_view=0).compile(
            n=8, delta=2, horizon=1
        )
        assert len(plan.partition_windows) <= 1

    def test_partitions_also_crash_isolated_group(self):
        spec = FaultSpec(seed=4, partitions=1, partition_fraction=0.25)
        plan = spec.compile(n=8, delta=2, horizon=400)
        (window,) = plan.partition_windows
        crashed = {w.validator for w in plan.crash_windows}
        assert set(window.isolated) <= crashed

    def test_overlapping_windows_merge(self):
        spec = FaultSpec(
            seed=6, crash_count=2, crash_view=1, crash_deltas=8,
            partitions=1, partition_view=1, partition_deltas=8,
        )
        plan = spec.compile(n=10, delta=2, horizon=400)
        seen: dict[int, list[CrashWindow]] = {}
        for window in plan.crash_windows:
            seen.setdefault(window.validator, []).append(window)
        for windows in seen.values():
            windows.sort(key=lambda w: w.start)
            for earlier, later in zip(windows, windows[1:]):
                assert earlier.end < later.start  # merged: strictly disjoint

    def test_window_validation(self):
        with pytest.raises(ValueError):
            CrashWindow(0, 5, 5)
        with pytest.raises(ValueError):
            CrashWindow(0, -1, 5)
        with pytest.raises(ValueError):
            PartitionWindow(5, 5, (1,))
        with pytest.raises(ValueError):
            PartitionWindow(0, 5, ())


# ---------------------------------------------------------------------------
# Stateless message decisions
# ---------------------------------------------------------------------------


class TestMessageDecisions:
    def test_decisions_are_order_independent(self):
        plan = FaultSpec(seed=1, drop_rate=0.3, duplicate_rate=0.2).compile(
            n=8, delta=2, horizon=100
        )
        envelope = _FakeEnvelope()
        args = [(s, r, envelope, t) for s in range(4) for r in range(4) for t in (0, 5)]
        forward = [plan.copies(*a) for a in args]
        backward = [plan.copies(*a) for a in reversed(args)]
        assert forward == list(reversed(backward))

    def test_zero_rates_never_fault(self):
        plan = FaultSpec(seed=1).compile(n=8, delta=2, horizon=100)
        envelope = _FakeEnvelope()
        assert all(
            plan.copies(s, r, envelope, t) == 1
            and plan.spike(s, r, envelope, t) == 0
            for s in range(4) for r in range(4) for t in (0, 7)
        )

    def test_all_zero_plan_stays_off_the_message_path(self, monkeypatch):
        # The disabled fault layer costs nothing because it is not there:
        # no hook installed, no per-message decision made, and the run is
        # event for event the plan-free run.
        from repro.core.tobsvd import TobSvdConfig
        from repro.harness import stable_scenario

        def forbidden(self, *args):
            raise AssertionError("a per-message fault decision was made")

        for name in ("cut", "copies", "spike", "decide"):
            monkeypatch.setattr(FaultPlan, name, forbidden)

        shape = dict(n=8, num_views=4, delta=2, seed=0)
        plan = FaultSpec().compile(
            n=8, delta=2, horizon=TobSvdConfig(**shape).horizon
        )
        planned = stable_scenario(fault_plan=plan, **shape).run()
        plain = stable_scenario(**shape).run()

        assert planned.network._msg_faults is None
        assert planned.simulator.events_processed == plain.simulator.events_processed

        def decisions(result):
            return [
                (e.time, e.view, e.validator, e.log.log_id)
                for e in result.trace.decisions
            ]

        assert decisions(planned) and decisions(planned) == decisions(plain)

    def test_rates_hit_expected_frequencies(self):
        plan = FaultSpec(seed=1, drop_rate=0.25).compile(n=8, delta=2, horizon=100)
        samples = [
            plan.copies(s, r, _FakeEnvelope(f"m{i}"), t)
            for i in range(20)
            for s in range(8) for r in range(8) for t in (0,)
        ]
        drop_fraction = samples.count(0) / len(samples)
        assert 0.15 < drop_fraction < 0.35

    def test_cut_severs_cross_group_only(self):
        plan = FaultSpec(
            seed=2, partitions=1, partition_fraction=0.25, partition_view=0
        ).compile(n=8, delta=2, horizon=400)
        (window,) = plan.partition_windows
        inside = window.isolated[0]
        outside = next(v for v in range(8) if v not in window.isolated)
        mid = (window.start + window.heal) // 2
        assert plan.cut(inside, outside, mid)
        assert plan.cut(outside, inside, mid)
        assert not plan.cut(outside, outside, mid)
        assert not plan.cut(inside, outside, window.heal)  # healed

    def test_spike_adds_configured_ticks(self):
        plan = FaultSpec(seed=3, delay_spike_rate=1.0, delay_spike_deltas=3).compile(
            n=8, delta=2, horizon=100
        )
        assert plan.spike(0, 1, _FakeEnvelope(), 0) == 6  # 3Δ * 2 ticks


# ---------------------------------------------------------------------------
# The injected stream is pinned: per link, per fan-out, across pickling
# ---------------------------------------------------------------------------

# The rig's ``sim-adverse-n16`` rates, compiled at its dimensions.
ADVERSE = FaultSpec(
    seed=0, crash_count=2, crash_view=8, crash_deltas=8,
    drop_rate=0.05, duplicate_rate=0.02, delay_spike_rate=0.05,
)
GOLDEN_N = 16
GOLDEN_TIMES = (0, 7, 8, 23, 24, 40, 55, 56, 100)  # both partitions' edges
GOLDEN_DIGESTS = tuple(
    hashlib.sha256(f"golden-{i}".encode()).hexdigest() for i in range(3)
)
# SHA-256 of the stream below, recorded at the commit before the batch
# entry existed (one fresh keyed hasher and one f-string per draw).
GOLDEN = [
    (ADVERSE, "9ef2270889cd0ea48749f85670bfe2eae229f174e067aff85cc8e1f48de100dd"),
    (
        replace(ADVERSE, partitions=2),
        "fb54ab324152fa8d97eb031309297e78aa53e2352889ebaf4bb46d7957977fcc",
    ),
]


def golden_plan(spec: FaultSpec) -> FaultPlan:
    return spec.compile(n=GOLDEN_N, delta=2, horizon=256)


def per_link_triples(plan, sender, envelope, time):
    """``(cut, copies, spike of a kept copy)`` per recipient, by definition."""

    for recipient in range(GOLDEN_N):
        copies = plan.copies(sender, recipient, envelope, time)
        yield (
            plan.cut(sender, recipient, time),
            copies,
            plan.spike(sender, recipient, envelope, time) if copies else 0,
        )


def batch_triples(plan, sender, envelope, time):
    """The same triples read off one :meth:`FaultPlan.decide` call."""

    ids = tuple(range(GOLDEN_N))
    kept, dup, spiked = plan.decide(sender, ids, (1 << GOLDEN_N) - 1, envelope, time)
    assert not (dup | spiked) & ~kept
    for recipient in ids:
        bit = 1 << recipient
        cut = plan.cut(sender, recipient, time)
        assert not (cut and kept & bit)
        yield (
            cut,
            (1 + bool(dup & bit)) if kept & bit else 0,
            plan.spike_ticks if spiked & bit else 0,
        )


def stream_hash(plan, triples) -> str:
    stream = hashlib.sha256()
    for time in GOLDEN_TIMES:
        for digest in GOLDEN_DIGESTS:
            envelope = _FakeEnvelope(digest)
            for sender in range(GOLDEN_N):
                for cut, copies, spike in triples(plan, sender, envelope, time):
                    stream.update(f"{int(cut)}{copies}{spike};".encode())
    return stream.hexdigest()


class TestGoldenStream:
    """A change to the key, the preimage or the float compare fails here,
    not only in the full-size rig."""

    @pytest.mark.parametrize("triples", [per_link_triples, batch_triples])
    @pytest.mark.parametrize("spec,expected", GOLDEN, ids=["adverse", "partitions"])
    def test_stream_is_the_recorded_one(self, spec, expected, triples):
        assert stream_hash(golden_plan(spec), triples) == expected

    def test_identity_constants_did_not_move(self):
        assert repro.faults.FAULT_SPEC_VERSION == 1
        assert [golden_plan(spec).plan_id for spec, _ in GOLDEN] == [
            "4af60a517ba30285", "a0ec9d7e8eb4364e",
        ]


class TestPlanPickling:
    """``hashlib`` objects do not pickle, plans do — also after serving draws."""

    @pytest.mark.parametrize("spec,expected", GOLDEN, ids=["adverse", "partitions"])
    def test_used_plan_round_trips_to_the_same_stream(self, spec, expected):
        plan = golden_plan(spec)
        assert stream_hash(plan, batch_triples) == expected  # primes every sender
        thawed = pickle.loads(pickle.dumps(plan))
        assert (thawed.spec, thawed.plan_id) == (plan.spec, plan.plan_id)
        assert thawed.crash_windows == plan.crash_windows
        assert thawed.partition_windows == plan.partition_windows
        assert stream_hash(thawed, batch_triples) == expected
        assert stream_hash(thawed, per_link_triples) == expected


#: The smallest positive float, the rig's rates, and the edges of ``(0, 1]``.
LIMIT_RATES = (5e-324, 0.02, 0.05, 0.3, 0.5, 1 - 2**-53, 1.0)


class TestDrawLimits:
    """:meth:`FaultPlan.decide` compares raw digests with byte limits; the
    per-link draws compare ``int(digest) / 2**64`` with the rate.  The two
    must agree on every digest, the float-rounding boundary included."""

    @staticmethod
    def agree(x: int, rate: float) -> bool:
        return (x.to_bytes(8, "big") < _draw_limit(rate)) == (x / 2**64 < rate)

    @pytest.mark.parametrize("rate", LIMIT_RATES)
    def test_limit_sits_on_the_float_boundary(self, rate):
        limit = int.from_bytes(_draw_limit(rate), "big")
        assert 0 < limit < 2**64
        for x in (0, limit - 1, limit, limit + 1, 2**64 - 1):
            assert self.agree(x, rate), (rate, x)
        assert (limit - 1) / 2**64 < rate <= limit / 2**64

    @settings(max_examples=500, deadline=None)
    @given(
        x=st.integers(0, 2**64 - 1),
        rate=st.sampled_from(LIMIT_RATES) | st.floats(0.0, 1.0),
    )
    def test_any_digest_agrees_with_the_float_compare(self, x, rate):
        if not rate:
            assert _draw_limit(rate) is None  # rate zero: no draw at all
        else:
            assert self.agree(x, rate)

    def test_at_rate_one_the_top_digests_round_up_to_a_miss(self):
        assert int.from_bytes(_draw_limit(1.0), "big") == 2**64 - 1024


class _CountedHasher:
    """A primed hasher that counts the draws made from it."""

    def __init__(self, hasher, draws: list) -> None:
        self._hasher, self._draws = hasher, draws

    def copy(self):
        self._draws[0] += 1
        return self._hasher.copy()


class TestRepeatedFanOuts:
    """One validator forwarding two envelopes with one payload in one tick
    asks for the same draws twice; ``decide`` makes each draw once."""

    @staticmethod
    def per_link(plan, origin, ids, mask, envelope, time):
        kept = dup = spiked = 0
        for index, vid in enumerate(ids):
            if mask >> index & 1 and plan.copies(origin, vid, envelope, time):
                kept |= 1 << index
                dup |= (plan.copies(origin, vid, envelope, time) == 2) << index
                spiked |= bool(plan.spike(origin, vid, envelope, time)) << index
        return kept, dup, spiked

    #: High rates, so a drawn recipient left out of a later ask has hits.
    SPEC = replace(ADVERSE, drop_rate=0.3, duplicate_rate=0.5, delay_spike_rate=0.5)

    def test_a_repeat_draws_only_recipients_not_drawn_before(self):
        plan, reference = golden_plan(self.SPEC), golden_plan(self.SPEC)
        ids, origin, envelope = tuple(range(GOLDEN_N)), 3, _FakeEnvelope("one-payload")
        everyone = (1 << GOLDEN_N) - 1
        draws = [0]
        plan._primed[origin] = tuple(
            _CountedHasher(hasher, draws) for hasher in plan._prime(origin)
        )
        made = []
        for mask, time in [
            (everyone & ~0b110000, 40),  # first ask at tick 40
            (everyone & ~0b100000, 40),  # same tick, one recipient more
            (everyone & ~0b100011, 40),  # same tick, drawn recipients only
            (everyone, 41),  # a new tick draws afresh
        ]:
            before = draws[0]
            got = plan.decide(origin, ids, mask, envelope, time)
            assert got == self.per_link(reference, origin, ids, mask, envelope, time)
            made.append(draws[0] - before)
        assert made[0] >= 14 and made[3] >= 16  # one drop draw per recipient
        assert 1 <= made[1] <= 3 and made[2] == 0

    def test_another_recipient_order_does_not_reuse_masks(self):
        plan, reference = golden_plan(self.SPEC), golden_plan(self.SPEC)
        envelope = _FakeEnvelope("one-payload")
        for ids in (tuple(range(GOLDEN_N)), tuple(reversed(range(GOLDEN_N)))):
            mask = (1 << GOLDEN_N) - 1
            got = plan.decide(2, ids, mask, envelope, 40)
            assert got == self.per_link(reference, 2, ids, mask, envelope, 40)


class TestFaultWork:
    """The fault path's work is counted, so CI can hold it without a clock.

    Before the batch entry one fan-out cost ~105 Python calls into
    ``faults.py`` and every draw built a fresh keyed hasher.
    """

    def test_one_decision_per_fan_out_and_hashers_per_sender(self, monkeypatch):
        from repro.harness import equivocating_scenario
        from repro.harness.scenarios import compile_checked_fault_plan

        n = 16
        constructions = [0]

        def blake2b(*args, **kwargs):
            constructions[0] += 1
            return hashlib.blake2b(*args, **kwargs)

        monkeypatch.setattr(
            repro.faults, "hashlib",
            types.SimpleNamespace(blake2b=blake2b, sha256=hashlib.sha256),
        )
        protocol = equivocating_scenario(n=n, f=5, num_views=8, delta=2)
        plan = compile_checked_fault_plan(
            replace(ADVERSE, crash_view=2), protocol.config, protocol.corruption,
            None, "count-guard",
        )
        protocol = equivocating_scenario(n=n, f=5, num_views=8, delta=2, fault_plan=plan)
        calls = {"faults": 0, "fan_outs": 0}
        faults_file = repro.faults.__file__

        def profile(frame, event, arg):
            if event == "call":
                code = frame.f_code
                if code.co_filename == faults_file:
                    calls["faults"] += 1
                elif code.co_name == "_fan_out":
                    calls["fan_outs"] += 1

        sys.setprofile(profile)
        try:
            result = protocol.run()
        finally:
            sys.setprofile(None)
        network = result.network
        injected = network.fault_drops + network.fault_duplicates + network.fault_spikes
        assert calls["fan_outs"] > 1000 and injected > 1000  # the faulty path ran
        assert calls["faults"] / calls["fan_outs"] <= 2, calls
        assert 0 < constructions[0] <= 3 * n * n + 3, constructions
        # The repeated-draw memo holds the last tick's fan-outs only.
        assert plan._drawn
        assert {rest.rsplit(b"|", 1)[1] for _, rest, _ in plan._drawn} == {
            b"%d" % plan._drawn_at
        }


# ---------------------------------------------------------------------------
# crashed_schedule
# ---------------------------------------------------------------------------


class TestCrashedSchedule:
    def test_subtracts_windows(self):
        base = AwakeSchedule.always_awake(3)
        effective = crashed_schedule(base, [CrashWindow(1, 10, 20)])
        assert effective.awake(1, 9)
        assert not effective.awake(1, 10)
        assert not effective.awake(1, 19)
        assert effective.awake(1, 20)
        assert effective.awake(0, 15)  # untouched validator

    def test_empty_windows_is_identity(self):
        base = AwakeSchedule.always_awake(4)
        effective = crashed_schedule(base, [])
        for vid in range(4):
            for t in (0, 7, 31):
                assert effective.awake(vid, t) == base.awake(vid, t)


# ---------------------------------------------------------------------------
# Harness-layer chaos
# ---------------------------------------------------------------------------


class TestChaosPlan:
    def test_first_attempt_only(self):
        chaos = ChaosPlan(kill_rate=1.0)
        assert chaos.kills("abc", 0)
        assert not chaos.kills("abc", 1)
        assert not chaos.kills("abc", 2)

    def test_kill_cells_force_select(self):
        chaos = ChaosPlan(kill_cells=frozenset({"deadbeef"}))
        assert chaos.kills("deadbeef", 0)
        assert not chaos.kills("cafebabe", 0)

    def test_deterministic_by_seed(self):
        ids = [f"cell{i:04x}" for i in range(64)]
        a = [ChaosPlan(kill_rate=0.5, seed=1).kills(c, 0) for c in ids]
        b = [ChaosPlan(kill_rate=0.5, seed=1).kills(c, 0) for c in ids]
        c = [ChaosPlan(kill_rate=0.5, seed=2).kills(c, 0) for c in ids]
        assert a == b
        assert a != c
        assert 10 < sum(a) < 54  # roughly half

    def test_kill_rate_validated(self):
        with pytest.raises(ValueError):
            ChaosPlan(kill_rate=1.5)


class TestRetryBackoff:
    def test_deterministic_and_growing(self):
        first = retry_backoff("cell", 1, base=0.1)
        assert first == retry_backoff("cell", 1, base=0.1)
        second = retry_backoff("cell", 2, base=0.1)
        third = retry_backoff("cell", 3, base=0.1)
        assert 0.1 <= first < 0.2  # base * [1, 2)
        assert 0.2 <= second < 0.4
        assert 0.4 <= third < 0.8

    def test_jitter_varies_by_cell(self):
        delays = {retry_backoff(f"cell{i}", 1, base=0.1) for i in range(16)}
        assert len(delays) > 8

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError):
            retry_backoff("cell", 0, base=0.1)


# ---------------------------------------------------------------------------
# Quarantine records + result-store recovery
# ---------------------------------------------------------------------------


class TestQuarantineRecord:
    def test_shape(self):
        cell = TINY.expand()[0]
        record = quarantine_record(cell, "worker died (exit code -9)", attempts=3)
        assert record == {
            "cell_id": cell.cell_id,
            "cell": cell.to_dict(),
            "run_seed": cell.run_seed,
            "status": "failed",
            "error": "worker died (exit code -9)",
            "metrics": {},
            "attempts": 3,
        }
        json.loads(canonical_record(record))  # serialisable


class TestResultStoreRecover:
    def _store_with_lines(self, tmp_path, lines):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        with open(store.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        return store

    def test_clean_store_untouched(self, tmp_path):
        cells = TINY.expand()
        lines = [canonical_record(run_cell(c)) for c in cells[:2]]
        store = self._store_with_lines(tmp_path, lines)
        assert store.recover() == 0
        assert not os.path.exists(store.bad_path)
        assert len(store.load()) == 2

    def test_bad_json_quarantined(self, tmp_path):
        cells = TINY.expand()
        good = canonical_record(run_cell(cells[0]))
        store = self._store_with_lines(tmp_path, [good, "{not json", good])
        assert store.recover() == 1
        with open(store.bad_path, encoding="utf-8") as fh:
            assert fh.read() == "{not json\n"
        with open(store.path, encoding="utf-8") as fh:
            assert fh.read() == good + "\n" + good + "\n"

    def test_hash_mismatch_quarantined(self, tmp_path):
        cells = TINY.expand()
        record = run_cell(cells[0])
        corrupt = dict(record, cell_id="0" * 16)  # cell no longer hashes to id
        store = self._store_with_lines(
            tmp_path, [canonical_record(record), canonical_record(corrupt)]
        )
        assert store.recover() == 1
        assert store.completed_ids() == {record["cell_id"]}

    def test_recovered_cells_rerun_on_resume(self, tmp_path):
        store = ResultStore(str(tmp_path / "results.jsonl"))
        outcome = run_sweep(TINY, store=store)
        assert outcome.executed == 2 and outcome.recovered == 0
        # Corrupt one line in place; resume must quarantine + re-run it.
        with open(store.path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        victim = json.loads(lines[0])["cell_id"]
        lines[0] = lines[0][: len(lines[0]) // 2]  # truncate mid-record
        with open(store.path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        resumed = run_sweep(TINY, store=ResultStore(store.path))
        assert resumed.recovered == 1
        assert resumed.executed == 1  # only the corrupted cell re-ran
        assert {r["cell_id"] for r in resumed.records} >= {victim}
        assert all(r["status"] == "ok" for r in resumed.records)

    def test_failed_records_rerun_on_resume(self, tmp_path):
        cells = TINY.expand()
        store = ResultStore(str(tmp_path / "results.jsonl"))
        store.append(run_cell(cells[0]))
        store.append(quarantine_record(cells[1], "worker died", attempts=2))
        outcome = run_sweep(TINY, store=store)
        assert outcome.executed == 1  # the quarantined cell, and only it
        assert all(r["status"] == "ok" for r in outcome.records)
