"""Unit tests for snapshot-affinity lease placement (fleet coordinator)."""

from __future__ import annotations

from repro.harness.lease import LeaseTable


def table_with(cell_ids, affinity=None, ttl=5.0):
    table = LeaseTable(ttl=ttl)
    table.add_cells([{"cell_id": cid} for cid in cell_ids])
    if affinity:
        table.affinity = {
            cid: frozenset(ids) for cid, ids in affinity.items()
        }
    return table


def granted_ids(batch):
    return [payload["cell_id"] for payload in batch]


def test_warm_cells_jump_to_the_head_of_a_grant():
    table = table_with(
        ["c1", "c2", "c3", "c4"],
        affinity={"c3": {"s1"}, "c4": {"s2"}},
    )
    table.register("r1")
    table.advertise("r1", ["s1"])
    batch = table.grant("r1", now=0.0, max_cells=2)
    # c3's warm-up snapshot is cached on r1, so it leads the grant; the
    # second slot falls back to FIFO order.
    assert granted_ids(batch) == ["c3", "c1"]
    assert table.counters.leases_affinity_matched == 1


def test_unmatched_runners_keep_fifo_order():
    table = table_with(["c1", "c2", "c3"], affinity={"c3": {"s1"}})
    table.register("r1")  # never advertised snapshots
    batch = table.grant("r1", now=0.0, max_cells=3)
    assert granted_ids(batch) == ["c1", "c2", "c3"]
    assert table.counters.leases_affinity_matched == 0


def test_no_affinity_map_means_fifo_even_with_adverts():
    table = table_with(["c1", "c2"])
    table.register("r1")
    table.advertise("r1", ["s1"])
    assert granted_ids(table.grant("r1", now=0.0, max_cells=2)) == ["c1", "c2"]
    assert table.counters.leases_affinity_matched == 0


def test_matched_class_is_capped_at_the_grant_size():
    table = table_with(
        ["c1", "c2", "c3", "c4"],
        affinity={cid: {"s1"} for cid in ("c2", "c3", "c4")},
    )
    table.register("r1")
    table.advertise("r1", ["s1"])
    first = table.grant("r1", now=0.0, max_cells=2)
    # Only two matched cells move forward per grant; the still-warm c4
    # jumps ahead again on the next one.
    assert granted_ids(first) == ["c2", "c3"]
    second = table.grant("r1", now=0.0, max_cells=2)
    assert granted_ids(second) == ["c4", "c1"]
    assert table.counters.leases_affinity_matched == 3


def test_fifo_is_stable_within_both_classes():
    table = table_with(
        ["c1", "c2", "c3", "c4", "c5"],
        affinity={"c2": {"s1"}, "c4": {"s1"}},
    )
    table.register("r1")
    table.advertise("r1", ["s1"])
    batch = table.grant("r1", now=0.0, max_cells=5)
    # Matched cells first in their original relative order, then the rest
    # in theirs — deterministic placement given the request order.
    assert granted_ids(batch) == ["c2", "c4", "c1", "c3", "c5"]


def test_affinity_respects_commits_and_other_runners():
    table = table_with(
        ["c1", "c2", "c3"],
        affinity={"c1": {"s1"}, "c2": {"s1"}},
    )
    table.register("r1")
    table.advertise("r1", ["s1"])
    batch = table.grant("r1", now=0.0, max_cells=1)
    assert granted_ids(batch) == ["c1"]
    assert table.complete("c1", "r1") == "committed"

    # A second, cold runner just takes FIFO from what remains.
    table.register("r2")
    assert granted_ids(table.grant("r2", now=0.0, max_cells=2)) == ["c2", "c3"]
    table.check_invariants()


def test_placement_is_deterministic_across_identical_tables():
    def run():
        table = table_with(
            ["c1", "c2", "c3", "c4"],
            affinity={"c2": {"s1"}, "c3": {"s2"}},
        )
        table.register("r1")
        table.advertise("r1", ["s1", "s2"])
        return granted_ids(table.grant("r1", now=0.0, max_cells=3))

    assert run() == run() == ["c2", "c3", "c1"]
