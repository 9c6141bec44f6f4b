"""Slow-marked bounded-memory smoke: 256 views with O(state) retention.

The long-horizon workload the TraceBus exists for: an n=8, 256-view
stable run emits tens of thousands of trace events (each carrying a full
``Log`` reference under full retention).  Under ``bounded`` retention
the run must

* retain **zero** events (the reducers keep aggregates only) while the
  full-trace twin retains every one of them,
* keep the reducer state table under a fixed cap that scales with
  *state* (blocks + ticks + validators), not with events, and
* produce decisions that match the full-retention run event-for-event
  (count, per-view earliest times, watermark metrics).

The same horizon is where per-view *work* and the *process* heap used to
grow with history (every proposal rescanned the pool, every ``Log``
copied its id encoding), so two deterministic scaling guards ride along:
doubling the horizon must double — not quadruple — the proposer's
batching work, and the 512-view end heap stays under a fixed ceiling.
A fast count guard checks that validators retire finished views, so the
live per-view protocol state does not grow with the horizon.

CI runs this file explicitly so a regression that quietly re-attaches
O(events) retention to bounded mode, or O(history) cost to a proposal,
cannot slip through a green suite.
"""

import gc
import tracemalloc

import pytest

from repro.chain.log import Log
from repro.chain.transactions import TransactionPool
from repro.harness import stable_scenario

N = 8
NUM_VIEWS = 256
DELTA = 2

# Reducer state is ~5 entries per view at n=8 (decided + proposed block
# ids, earliest-decision marks, phase times); 16 per view is generous
# headroom that still sits orders of magnitude below the event count.
STATE_CAP = 16 * NUM_VIEWS


@pytest.fixture(scope="module")
def runs():
    results = {}
    for mode in ("bounded", "full"):
        results[mode] = stable_scenario(
            n=N, num_views=NUM_VIEWS, delta=DELTA, seed=0, trace_mode=mode
        ).run()
    return results


@pytest.mark.slow
class TestBoundedMemoryLongHorizon:
    def test_bounded_run_retains_no_events(self, runs):
        bounded = runs["bounded"].observability
        assert bounded.bus.events_emitted > 10_000
        assert bounded.bus.retained_events() == 0
        assert runs["bounded"].trace is None

    def test_full_run_retains_every_event(self, runs):
        full = runs["full"].observability
        assert full.bus.retained_events() == full.bus.events_emitted
        assert full.bus.events_emitted == runs["bounded"].observability.bus.events_emitted

    def test_reducer_state_stays_under_cap(self, runs):
        analysis = runs["bounded"].analysis
        assert 0 < analysis.state_entries() <= STATE_CAP

    def test_decisions_match_full_mode_event_for_event(self, runs):
        bounded = runs["bounded"].analysis
        full_trace = runs["full"].trace
        assert bounded.decision_count == len(full_trace.decisions)
        assert bounded.decision_count == N * (NUM_VIEWS + 1)  # wrap-up view
        assert bounded.decision_times_by_view() == {
            view: min(e.time for e in full_trace.decisions if e.view == view)
            for view in {e.view for e in full_trace.decisions}
        }
        assert bounded.new_blocks == NUM_VIEWS
        assert bounded.chain_growth == NUM_VIEWS
        assert bounded.safety().safe
        # The streaming reducers of both runs agree with each other too.
        full = runs["full"].analysis
        assert bounded.decision_times_by_view() == full.decision_times_by_view()
        assert bounded.highest_decision_per_validator() == {
            vid: log for vid, log in full.highest_decision_per_validator().items()
        }


def one_tx_per_view_run(num_views, validity=None):
    """The benchmark rig's ``sim-long-n8`` feed: one submission one tick
    before each view, all pre-loaded, bounded retention."""

    pool = TransactionPool(validity) if validity else TransactionPool()
    protocol = stable_scenario(
        n=N, num_views=num_views, delta=DELTA, seed=0, pool=pool, trace_mode="bounded"
    )
    view_ticks = protocol.config.time.view_ticks
    for view in range(1, num_views - 3):
        pool.submit(payload=f"tx-{view}", at_time=view * view_ticks - 1)
    return protocol


@pytest.mark.slow
class TestHorizonFlatProposalPath:
    def test_batching_work_is_linear_in_the_horizon(self, monkeypatch):
        work = {"calls": 0}

        def counting_validity(tx):
            work["calls"] += 1
            return True

        contains = Log.contains_transaction

        def counting_contains(log, tx):
            work["calls"] += 1
            return contains(log, tx)

        monkeypatch.setattr(Log, "contains_transaction", counting_contains)
        counts = {}
        for num_views in (256, 512):
            work["calls"] = 0
            result = one_tx_per_view_run(num_views, counting_validity).run()
            assert result.analysis.new_blocks == num_views
            counts[num_views] = work["calls"]
        # Every proposal batches O(pending) transactions: the count is
        # proportional to the horizon.  A pool rescan makes it quadratic
        # (4x for twice the views).
        assert counts[256] >= N * 200
        assert counts[512] <= 2.2 * counts[256]

    def test_end_heap_at_512_views_stays_under_ceiling(self):
        gc.collect()
        tracemalloc.start()
        try:
            result = one_tx_per_view_run(512).run()
            end_heap, _peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result.analysis.new_blocks == 512
        # 118 MiB when every Log owned a copy of its id encoding, 44.6 MiB
        # while validators kept every view's GA instance and proposal book,
        # 13.1 MiB while each validator kept its own envelope dedup set
        # (4 MiB for eight) and the tag and VRF memos kept every entry
        # (~5.7 MiB with one holder table and windowed memos).
        assert end_heap <= 9 * 2**20


def test_validators_keep_a_bounded_number_of_live_views():
    # Decide(v) retires every view below v - 2, so a validator holds GA
    # instances and proposal books for v - 2 .. v and, once LOG or
    # PROPOSAL messages for it arrive, v + 1 — whatever the horizon.
    result = stable_scenario(n=N, num_views=64, delta=DELTA, seed=0, trace_mode="bounded").run()
    for validator in result.validators.values():
        assert len(validator._instances) <= 4
        assert len(validator._books) <= 4
        assert len(validator._retired_logs) == 64 - 2
