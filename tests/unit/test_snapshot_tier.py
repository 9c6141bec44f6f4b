"""Unit tests for the harness's snapshot cache tier (sweep integration)."""

from __future__ import annotations

import json

import pytest

from repro.harness.sweep import (
    Cell,
    ExperimentSpec,
    SnapshotStore,
    _snapshot_view,
    _tobsvd_scaffold,
    canonical_fault_entry,
    canonical_record,
    run_cell,
    run_sweep,
)

CRASH = json.dumps({"crash_count": 1, "crash_view": 6, "crash_deltas": 4})
DROPS = json.dumps({"drop_rate": 0.25})


def make_cell(faults="", **overrides):
    defaults = dict(
        spec_name="t", protocol="tobsvd", n=5, f=0, delta=2,
        attacker="none", participation="stable", seed_index=0,
        num_views=10, txs_per_cell=4, faults=canonical_fault_entry(faults),
    )
    defaults.update(overrides)
    return Cell(**defaults)


def plan_for(cell):
    config, _, _, fault_plan = _tobsvd_scaffold(cell)
    return config, fault_plan


# -- fault-entry canonicalization --------------------------------------------


def test_empty_entry_passes_through():
    assert canonical_fault_entry("") == ""


def test_entries_normalize_to_sorted_compact_json():
    loose = json.dumps({"crash_view": 6, "crash_count": 1}, indent=2)
    tight = json.dumps({"crash_count": 1, "crash_view": 6})
    assert canonical_fault_entry(loose) == canonical_fault_entry(tight)


def test_no_op_specs_normalize_to_the_no_fault_arm():
    assert canonical_fault_entry(json.dumps({"seed": 3})) == ""


def test_malformed_entries_raise():
    with pytest.raises(ValueError):
        canonical_fault_entry("not json")
    with pytest.raises(ValueError):
        canonical_fault_entry(json.dumps({"bogus_key": 1}))


# -- spec fault axis ---------------------------------------------------------


def test_fault_axis_multiplies_tobsvd_cells_only():
    spec = ExperimentSpec(
        name="t", protocols=("tobsvd", "mr"), ns=(5,), num_views=10,
        fault_specs=("", CRASH),
    )
    cells = spec.expand()
    tobsvd = [c for c in cells if c.protocol == "tobsvd"]
    structural = [c for c in cells if c.protocol == "mr"]
    assert len(tobsvd) == 2  # fault-free + crash arm
    assert len(structural) == 1  # structural baselines keep one arm
    assert all(not c.faults for c in structural)


def test_spec_roundtrips_fault_specs():
    spec = ExperimentSpec(name="t", fault_specs=("", CRASH))
    assert ExperimentSpec.from_dict(spec.to_dict()) == spec


def test_spec_rejects_empty_or_malformed_fault_specs():
    with pytest.raises(ValueError):
        ExperimentSpec(name="t", fault_specs=())
    with pytest.raises(ValueError):
        ExperimentSpec(name="t", fault_specs=("nonsense",))


# -- cell identity -----------------------------------------------------------


def test_fault_free_cells_keep_their_historical_identity():
    cell = make_cell()
    assert cell.canonical_key == cell.prefix_key
    assert cell.prefix_id == cell.cell_id
    assert "faults" not in cell.to_dict()


def test_fault_siblings_share_prefix_but_not_cell_id():
    base, crashed = make_cell(), make_cell(faults=CRASH)
    assert base.prefix_key == crashed.prefix_key
    assert base.run_seed == crashed.run_seed  # shared RNG stream
    assert base.cell_id != crashed.cell_id
    assert f"|faults={crashed.faults}" in crashed.canonical_key


def test_faulted_cells_roundtrip_to_dict():
    cell = make_cell(faults=CRASH)
    assert Cell.from_dict(cell.to_dict()) == cell


# -- fork-view selection -----------------------------------------------------


def test_fault_free_cells_are_ineligible_without_warmup_views():
    cell = make_cell()
    config, plan = plan_for(cell)
    assert plan is None
    assert _snapshot_view(cell, config, plan, None) == 0


def test_warmup_views_makes_fault_free_cells_eligible():
    cell = make_cell()
    config, plan = plan_for(cell)
    assert _snapshot_view(cell, config, plan, 3) == 3


def test_crash_plans_fork_at_the_first_crash_window():
    cell = make_cell(faults=CRASH)
    config, plan = plan_for(cell)
    view = _snapshot_view(cell, config, plan, None)
    assert view >= 1
    earliest = min(w.start for w in plan.crash_windows)
    assert view * config.time.view_ticks <= earliest


def test_message_fault_plans_are_ineligible():
    cell = make_cell(faults=DROPS)
    config, plan = plan_for(cell)
    assert plan.has_message_faults
    assert _snapshot_view(cell, config, plan, 5) == 0


# -- forked execution byte-identity ------------------------------------------


def test_forked_records_match_genesis_byte_for_byte(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    for cell in (make_cell(faults=CRASH), make_cell(faults=CRASH, seed_index=1)):
        genesis = canonical_record(run_cell(cell))
        forked = canonical_record(run_cell(cell, snapshot_store=store))
        assert forked == genesis
    assert store.stats()["forks"] == 2
    assert store.stats()["saves"] == 2  # distinct prefixes: one save each


def test_siblings_reuse_the_stored_prefix(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    crash_early = json.dumps(
        {"crash_count": 1, "crash_view": 6, "crash_deltas": 2}
    )
    first = make_cell(faults=CRASH)
    sibling = make_cell(faults=crash_early)
    assert first.prefix_key == sibling.prefix_key

    run_cell(first, snapshot_store=store)
    before = store.stats()
    run_cell(sibling, snapshot_store=store)
    after = store.stats()
    assert after["hits"] == before["hits"] + 1  # same fork view -> warm hit
    assert after["saves"] == before["saves"]


def test_message_fault_cells_fall_back_to_genesis(tmp_path):
    store = SnapshotStore(tmp_path / "snaps")
    cell = make_cell(faults=DROPS)
    record = canonical_record(run_cell(cell, snapshot_store=store))
    assert record == canonical_record(run_cell(cell))
    assert store.stats()["forks"] == 0


# -- sweep-level counters ----------------------------------------------------


def test_serial_sweep_reports_cache_counters(tmp_path):
    spec = ExperimentSpec(
        name="t", ns=(5,), num_views=10, txs_per_cell=4,
        fault_specs=("", CRASH),
    )
    outcome = run_sweep(spec, snapshot_dir=str(tmp_path / "snaps"))
    assert outcome.cache is not None
    assert set(outcome.cache) == {"prebuild", "snapshot"}
    assert set(outcome.cache["snapshot"]) == {"hits", "misses", "saves", "forks"}
    assert outcome.cache["snapshot"]["forks"] == 1  # the crash arm forked


def test_sweep_without_snapshot_dir_reports_zero_snapshot_activity():
    spec = ExperimentSpec(name="t", ns=(5,), num_views=10, txs_per_cell=4)
    outcome = run_sweep(spec)
    assert outcome.cache["snapshot"] == SnapshotStore.empty_stats()
