"""Unit tests for the snapshot/fork engine (:mod:`repro.snapshot`)."""

from __future__ import annotations

import pytest

from repro.chain.transactions import TransactionPool
from repro.faults import FaultSpec
from repro.harness.scenarios import compile_checked_fault_plan, stable_scenario
from repro.snapshot import (
    MAGIC,
    SNAPSHOT_VERSION,
    Snapshot,
    SnapshotError,
    SnapshotMeta,
    SnapshotStore,
    bisect_views,
    capture,
    fork,
    fork_tick,
    resume,
    snapshot_id,
    warm_snapshot,
)


def build(n=5, num_views=8, delta=2, seed=0, trace_mode="full"):
    return stable_scenario(
        n=n, num_views=num_views, delta=delta, seed=seed,
        pool=TransactionPool(), trace_mode=trace_mode,
    )


def decisions_of(result):
    """Comparable decision trace: (time, view, validator, log identity)."""

    return [
        (e.time, e.view, e.validator, e.log.log_id)
        for e in result.trace.decisions
    ]


# -- identity ----------------------------------------------------------------


def test_snapshot_id_is_stable_and_distinct():
    sid = snapshot_id("scenario-a", 7, 3)
    assert sid == snapshot_id("scenario-a", 7, 3)
    assert len(sid) == 16
    assert int(sid, 16) >= 0  # hex
    assert sid != snapshot_id("scenario-b", 7, 3)
    assert sid != snapshot_id("scenario-a", 8, 3)
    assert sid != snapshot_id("scenario-a", 7, 4)


def test_fork_tick_is_one_before_view_start():
    protocol = build()
    config = protocol.config
    assert fork_tick(config, 3) == config.time.view_start(3) - 1


def test_fork_tick_rejects_out_of_range_views():
    config = build(num_views=6).config
    with pytest.raises(SnapshotError):
        fork_tick(config, 0)
    with pytest.raises(SnapshotError):
        fork_tick(config, 7)


# -- capture and blob format -------------------------------------------------


def test_capture_requires_a_started_protocol():
    protocol = build()
    with pytest.raises(SnapshotError, match="start"):
        capture(protocol, "key", 2)


def test_capture_records_position_and_recipe():
    protocol = build(n=4, num_views=8)
    snap = warm_snapshot(protocol, "key", 4, seed=11)
    assert snap.meta.view == 4
    assert snap.meta.tick == fork_tick(protocol.config, 4)
    assert snap.meta.seed == 11
    assert snap.meta.n == 4
    assert snap.meta.num_views == 8
    assert snap.meta.snapshot_id == snapshot_id("key", 11, 4)


def test_blob_roundtrip_is_canonical():
    snap = warm_snapshot(build(n=4), "key", 3)
    blob = snap.to_bytes()
    loaded = Snapshot.from_bytes(blob)
    assert loaded.to_bytes() == blob
    assert loaded.meta == snap.meta
    assert loaded.payload == snap.payload


def test_from_bytes_rejects_bad_magic():
    with pytest.raises(SnapshotError, match="magic"):
        Snapshot.from_bytes(b"NOTASNAP" + b"\x00" * 32)


def test_meta_rejects_unknown_version():
    meta = SnapshotMeta(
        snapshot_id="x", scenario_key="k", seed=0, view=1, tick=7,
        n=4, num_views=8, delta=2, trace_mode="full",
    )
    data = meta.to_dict()
    assert data["version"] == SNAPSHOT_VERSION
    data["version"] = SNAPSHOT_VERSION + 1
    with pytest.raises(SnapshotError, match="version"):
        SnapshotMeta.from_dict(data)


def test_v2_blobs_are_rejected_not_thawed():
    # v2 payloads pickle a Network without the mask-plan fields (and
    # calendar callbacks bound to methods that no longer exist); v4
    # payloads pickle ``ScheduledEvent`` handles in the calendar and a run
    # whose controller sits under ``_controller``; v5 payloads hold every
    # view live and thaw without a retirement cursor; v6 payloads thaw a
    # world without hosted ids and a network without an egress slot.
    blob = warm_snapshot(build(n=4), "key", 3).to_bytes()
    current = f'"version":{SNAPSHOT_VERSION}'.encode()
    assert blob.count(current) == 1
    for stale in (2, 4, 5, 6):
        with pytest.raises(SnapshotError, match=f"unsupported snapshot version {stale}"):
            Snapshot.from_bytes(blob.replace(current, b'"version":%d' % stale))


def test_v7_blobs_are_refused():
    # A v7 payload pickles an empty network dedup table beside per-validator
    # dedup sets; this build dedups only against the network's holder
    # table, so a thawed v7 run would re-handle every envelope it held.
    blob = warm_snapshot(build(n=4), "key", 3).to_bytes()
    assert SNAPSHOT_VERSION == 8
    stale = blob.replace(b'"version":8', b'"version":7')
    with pytest.raises(SnapshotError, match="unsupported snapshot version 7"):
        Snapshot.from_bytes(stale)


# -- fork soundness ----------------------------------------------------------


def test_fork_resumes_to_the_genesis_decision_trace():
    baseline = build(n=5, num_views=8)
    expected = decisions_of(baseline.run())

    snap = warm_snapshot(build(n=5, num_views=8), "stable", 4)
    forked = fork(snap)
    forked.advance(forked.config.horizon)
    assert decisions_of(forked.finish()) == expected


def test_capture_carries_retired_views_as_tombstones():
    # Views retire during the run, not at capture: before view 6 the last
    # decide phase (view 5) has retired every view below 3, so the blob
    # holds live GA instances and books for views 3..5 and a two-mask
    # tombstone for each older one — and forks to the genesis run.
    expected = decisions_of(build(n=5, num_views=8).run())
    snap = warm_snapshot(build(n=5, num_views=8), "stable", 6)
    thawed = snap.thaw()
    for validator in thawed.validators.values():
        assert set(validator._instances) == set(validator._books) == {3, 4, 5}
        assert set(validator._retired_logs) == set(validator._retired_books) == {0, 1, 2}
        assert validator._retired_logs[2].accepted == 0b11111

    forked = fork(snap)
    forked.advance(forked.config.horizon)
    assert decisions_of(forked.finish()) == expected


def test_capture_keeps_views_a_buffered_envelope_references():
    # A validator napping across the fork tick holds sleep-buffered
    # envelopes addressing old views.  It ran no decide phase while
    # asleep, so it retired nothing and its post-wake flush replays them
    # against live state; the awake validators retired those views, and
    # the flush's forwards reach their tombstones.  Oracle: identical
    # decision traces.
    from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
    from repro.sleepy.schedule import AwakeSchedule

    def napping(num_views=10):
        config = TobSvdConfig(n=5, num_views=num_views, delta=2, seed=3)
        ticks = config.time.view_ticks
        schedule = AwakeSchedule.nap(
            5, sleeper=4, nap_start=2 * ticks + 1, nap_end=7 * ticks + 1
        )
        return TobSvdProtocol(config, schedule=schedule)

    expected = decisions_of(napping().run())

    snap = warm_snapshot(napping(), "nap", 6)
    thawed = snap.thaw()
    buffered_views = {
        envelope.payload.ga_key[1]
        for envelope in thawed.network.buffered_envelopes()
        if hasattr(envelope.payload, "ga_key")
    }
    awake = [v for vid, v in thawed.validators.items() if vid != 4]
    floor = min(validator._retired_below for validator in awake)
    retired = {view for view in buffered_views if view < floor}
    assert retired, "fixture must buffer envelopes for retired views"
    assert thawed.validators[4]._retired_below == 0
    for validator in awake:
        assert retired <= set(validator._retired_logs)
        assert not retired & set(validator._instances)

    forked = fork(snap)
    forked.advance(forked.config.horizon)
    assert decisions_of(forked.finish()) == expected


def _pending_batch_deliveries(protocol):
    return [
        callback
        for callback in protocol.simulator.pending_callbacks()
        if getattr(getattr(callback, "func", None), "__name__", "") == "_deliver_mask"
    ]


def test_mid_storm_capture_forks_to_the_genesis_run():
    # Captured in the middle of an echo storm: forward batches (mask
    # plans) are in the calendar and validator 4 is asleep with a
    # non-empty buffer.  The network's holder table (the run's only dedup
    # record) travels in the blob, shared with the thawed validators, and
    # the fork must end on exactly the genesis run's decisions, counters
    # and event count.
    from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
    from repro.node.deploy import canonical_decision_bytes
    from repro.node.runtime import decisions_as_records
    from repro.sleepy.schedule import AwakeSchedule

    def napping():
        config = TobSvdConfig(n=5, num_views=10, delta=2, seed=3)
        ticks = config.time.view_ticks
        schedule = AwakeSchedule.nap(
            5, sleeper=4, nap_start=2 * ticks + 1, nap_end=7 * ticks + 1
        )
        return TobSvdProtocol(config, schedule=schedule)

    def fingerprint(protocol):
        result = protocol.finish()
        stats = result.network.stats
        return (
            {
                vid: canonical_decision_bytes(decisions_as_records(v.decided))
                for vid, v in result.validators.items()
            },
            decisions_of(result),
            (stats.sends, stats.deliveries, stats.weighted_deliveries),
            dict(stats.by_type),
            result.simulator.events_processed,
        )

    genesis = napping()
    genesis.run()

    live = napping()
    live.start()
    # Vote phase of view 5 plus one hop: the votes have landed and every
    # recipient's forward of them is in flight.
    live.advance(live.config.time.view_start(5) + 2 * live.config.delta)
    assert len(_pending_batch_deliveries(live)) >= live.config.n
    assert live.network.pending_count(4) > 0
    assert live.network._holders
    snap = capture(live, "storm", 5)

    thawed = snap.thaw()
    assert thawed.network._holders == live.network._holders
    assert thawed.network._holders is not live.network._holders
    for validator in thawed.validators.values():
        assert validator._holders is thawed.network._holders
    assert thawed.network.pending_count(4) == live.network.pending_count(4)
    thawed.network.check_awake_mask()  # the asleep mask travelled with the flag

    forked = fork(snap)
    forked.advance(forked.config.horizon)
    assert fingerprint(forked) == fingerprint(genesis)


def test_message_fault_run_captured_mid_view_resumes_to_the_same_run():
    # The plan has served draws by capture time, so it holds primed
    # ``hashlib`` state that cannot be pickled; the blob carries the plan
    # without it and the resumed run re-primes on its first fan-out.
    from repro.harness.scenarios import compile_checked_fault_plan, equivocating_scenario
    from repro.node.deploy import canonical_decision_bytes
    from repro.node.runtime import decisions_as_records

    def faulty():
        shape = dict(n=8, f=2, num_views=8, delta=2, seed=1)
        probe = equivocating_scenario(**shape)
        plan = compile_checked_fault_plan(
            FaultSpec(
                seed=1, crash_count=1, crash_view=5, drop_rate=0.05,
                duplicate_rate=0.05, delay_spike_rate=0.1,
            ),
            probe.config, probe.corruption, None, "snapshot-test",
        )
        return equivocating_scenario(fault_plan=plan, **shape)

    def fingerprint(result):
        network = result.network
        return (
            {
                vid: canonical_decision_bytes(decisions_as_records(v.decided))
                for vid, v in result.validators.items()
            },
            result.simulator.events_processed,
            (network.fault_drops, network.fault_duplicates, network.fault_spikes),
        )

    genesis = fingerprint(faulty().run())
    assert all(genesis[2])

    live = faulty()
    live.start()
    live.advance(live.config.time.view_start(3) + 3 * live.config.delta)  # mid-view
    assert live.network.fault_drops and live.fault_plan._primed
    snap = capture(live, "faulty", 3)
    assert snap.thaw().fault_plan._primed == {}
    assert fingerprint(resume(Snapshot.from_bytes(snap.to_bytes()))) == genesis


def test_forks_are_isolated_from_each_other():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 3)
    first = fork(snap)
    first.advance(first.config.horizon)
    first_decisions = decisions_of(first.finish())

    # Running the first fork must not perturb a second fork of the same
    # snapshot: each fork thaws a fresh object graph.
    second = fork(snap)
    second.advance(second.config.horizon)
    assert decisions_of(second.finish()) == first_decisions


def test_resume_matches_manual_fork():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 3)
    manual = fork(snap)
    manual.advance(manual.config.horizon)
    assert decisions_of(resume(snap)) == decisions_of(manual.finish())


def test_fork_extends_the_horizon():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 4)
    forked = fork(snap, num_views=12)
    assert forked.config.num_views == 12
    forked.advance(forked.config.horizon)
    result = forked.finish()
    decided_views = {e.view for e in result.trace.decisions}
    assert max(decided_views) >= 11


def _extension_world(seed, crash, num_views):
    """The ISSUE-18 differential world: churn, two corruptions, an
    equivocating proposer and (optionally) one crash window, with every
    schedule drawn for the 14-view horizon whatever ``num_views`` is."""

    import random

    from repro.adversary.tob_attackers import make_tob_attacker_factory
    from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
    from repro.sleepy.corruption import CorruptionPlan
    from repro.sleepy.schedule import AwakeSchedule

    long = TobSvdConfig(n=9, num_views=14, delta=2, seed=seed)
    view_ticks = long.time.view_ticks
    schedule = AwakeSchedule.random_churn(
        n=9, horizon=long.horizon, rng=random.Random(seed), churners=(1, 4),
        min_awake=2 * view_ticks, min_asleep=7 * long.delta,
    )
    corruption = CorruptionPlan.static({8}).with_corruption(
        scheduled_at=long.time.view_start(10), validator=6, delta=long.delta
    )
    plan = None
    if crash is not None:
        crash_view, crash_deltas = crash
        spec = FaultSpec(
            seed=seed, crash_count=1, crash_view=crash_view, crash_deltas=crash_deltas
        )
        plan = compile_checked_fault_plan(
            spec, long, corruption, schedule, "extension", require_compliance=False
        )
    return TobSvdProtocol(
        TobSvdConfig(n=9, num_views=num_views, delta=2, seed=seed),
        schedule=schedule,
        corruption=corruption,
        byzantine_factory=make_tob_attacker_factory("equivocating-proposer"),
        fault_plan=plan,
    )


# (crash_view, crash_deltas): none; wholly inside the extension; crash
# before the 8-view horizon (t=70), recover after it.
@pytest.mark.parametrize("crash", [None, (9, 8), (6, 16)])
@pytest.mark.parametrize("seed", range(6))
def test_extended_fork_is_the_from_genesis_run(seed, crash):
    def fingerprint(result):
        return (
            {vid: [(t, log.log_id) for t, log in v.decided]
             for vid, v in result.validators.items()},
            [(e.time, e.kind, e.validator) for e in result.trace.control],
            result.simulator.events_processed,
        )

    genesis = _extension_world(seed, crash, 14).run()
    control = [kind for _t, kind, _v in fingerprint(genesis)[1]]
    assert "corrupt-effective" in control and "sleep" in control
    assert ("crash" in control) == (crash is not None)

    snap = warm_snapshot(_extension_world(seed, crash, 8), "extension", 5)
    forked = fork(snap, num_views=14)
    forked.advance(forked.config.horizon)
    assert fingerprint(forked.finish()) == fingerprint(genesis)


def test_fork_rejects_message_fault_specs():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 4)
    with pytest.raises(SnapshotError, match="crash-only"):
        fork(snap, fault_spec=FaultSpec(drop_rate=0.5))


def test_fork_rejects_pre_fork_crash_windows():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 4)
    with pytest.raises(SnapshotError, match="fork tick"):
        fork(snap, fault_spec=FaultSpec(crash_count=1, crash_view=1))


def test_fork_rejects_plan_and_spec_together():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 4)
    with pytest.raises(SnapshotError, match="not both"):
        fork(snap, fault_plan=object(), fault_spec=FaultSpec(crash_count=1))


def test_fork_rejects_pre_fork_corruptions():
    snap = warm_snapshot(build(n=4, num_views=8), "stable", 4)
    with pytest.raises(SnapshotError, match="fork tick"):
        fork(snap, corrupt={1: snap.meta.tick})


def test_post_fork_crash_fork_still_runs():
    snap = warm_snapshot(build(n=5, num_views=8), "stable", 3)
    forked = fork(snap, fault_spec=FaultSpec(crash_count=1, crash_view=4))
    forked.advance(forked.config.horizon)
    result = forked.finish()
    assert result.trace.decisions  # the continuation made progress


# -- the store ---------------------------------------------------------------


def test_store_roundtrip_and_counters(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    snap = warm_snapshot(build(n=4), "key", 3)

    assert store.get(snap.meta.snapshot_id) is None
    assert store.stats() == {"hits": 0, "misses": 1, "saves": 0, "forks": 0}

    path = store.put(snap)
    assert path.is_file()
    assert store.put(snap) == path  # idempotent: first write wins
    assert store.stats()["saves"] == 1

    loaded = store.get(snap.meta.snapshot_id)
    assert loaded is not None
    assert loaded.to_bytes() == snap.to_bytes()
    assert store.stats()["hits"] == 1

    assert store.ids() == [snap.meta.snapshot_id]
    (meta,) = store.metas()
    assert meta == snap.meta


def test_store_empty_stats_shape():
    assert SnapshotStore.empty_stats() == {
        "hits": 0, "misses": 0, "saves": 0, "forks": 0,
    }


# -- bisection ---------------------------------------------------------------


def make_bisect_protocol():
    return build(n=5, num_views=16, trace_mode="bounded")


def test_bisect_all_good_returns_none():
    report = bisect_views(make_bisect_protocol, 16, lambda result: True)
    assert report.first_bad_view is None
    assert len(report.probes) == 1  # one probe at the end settles it


def test_bisect_finds_the_first_bad_view():
    config = make_bisect_protocol().config
    bad_tick = config.time.view_start(12) - 1  # "bad" from view 11's end on

    report = bisect_views(
        make_bisect_protocol, 16, lambda result: result.simulator.now < bad_tick
    )
    assert report.first_bad_view == 11
    # Forking from captured prefixes beats replaying each probe from genesis.
    genesis_equivalent = sum(probe.view + 1 for probe in report.probes)
    assert report.views_replayed < genesis_equivalent


def test_bisect_reuses_a_persistent_store(tmp_path):
    store = SnapshotStore(tmp_path / "bisect")
    config = make_bisect_protocol().config
    bad_tick = config.time.view_start(12) - 1

    def predicate(result):
        return result.simulator.now < bad_tick

    first = bisect_views(
        make_bisect_protocol, 16, predicate, scenario_key="b", store=store
    )
    second = bisect_views(
        make_bisect_protocol, 16, predicate, scenario_key="b", store=store
    )
    assert second.first_bad_view == first.first_bad_view == 11
    assert second.views_replayed < first.views_replayed


# -- ``repro bisect`` --------------------------------------------------------


def _bisect_cli(capsys, *argv):
    from repro import cli

    code = cli.main(["bisect", *argv])
    return code, capsys.readouterr().out


def test_bisect_cli_all_good_takes_one_probe(capsys):
    code, out = _bisect_cli(capsys, "stable", "--n", "5", "--views", "8", "--delta", "2")
    assert code == 0
    assert out.count("probe end-of-view") == 1
    assert "all 8 views satisfy 'progress'" in out


EQUIVOCATING = ("equivocating", "--n", "8", "--f", "3", "--views", "12",
                "--delta", "2", "--seed", "0")


def test_bisect_cli_finds_the_first_stalled_view(capsys, tmp_path):
    import re

    code, out = _bisect_cli(capsys, *EQUIVOCATING)
    assert code == 1
    probes = re.findall(r"probe end-of-view +(\d+) \(from (\w+)\): (\w+)", out)
    assert probes == [
        ("12", "genesis", "BAD"), ("6", "genesis", "BAD"), ("3", "genesis", "BAD"),
        ("1", "genesis", "good"), ("2", "v2", "good"),
    ]
    assert "first bad view: 3" in out

    # The equivocator stalls views; it cannot make decisions conflict.
    code, out = _bisect_cli(capsys, *EQUIVOCATING, "--check", "safety")
    assert code == 0 and "all 12 views satisfy 'safety'" in out

    # Probe snapshots persist: the same bisection again forks from them.
    def replayed(out):
        return int(re.search(r"views replayed: (\d+)", out).group(1))

    store = ("--snapshot-dir", str(tmp_path / "probes"))
    first = _bisect_cli(capsys, *EQUIVOCATING, *store)
    second = _bisect_cli(capsys, *EQUIVOCATING, *store)
    assert first[0] == second[0] == 1 and "first bad view: 3" in second[1]
    assert replayed(second[1]) < replayed(first[1])
