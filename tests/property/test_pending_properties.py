"""``pending_for_log`` against its definition (see PERFORMANCE.md).

``TransactionPool.pending_for_log`` answers from memos kept on the logs
and a time-sorted index; ``pending_for(log.transactions(), before)`` is
the definition.  The two must return the *same objects in the same
order* whatever happened before the query, so the generated histories
mix everything that could make a memo lie:

* forked lineages, queried in any order and with cut-offs that go back
  as well as forward in time;
* invalid transactions and non-monotone submission times;
* a ``submit`` arriving after memos exist;
* two pools (equal contents) queried against the same logs;
* hand-built blocks carrying transactions that are not visible yet, or
  that no pool ever saw;
* pickled → thawed logs, which must come back without a memo.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.log import Log
from repro.chain.transactions import TransactionPool, bounded_payload_validity
from tests.conftest import make_tx

MAX_TIME = 12
VALID, INVALID = "ok", "far-too-long"

submissions = st.tuples(st.integers(0, MAX_TIME), st.sampled_from([VALID, VALID, INVALID]))
cutoffs = st.none() | st.integers(0, MAX_TIME + 1)


def new_pools():
    return [TransactionPool(bounded_payload_validity(len(VALID))) for _ in range(2)]


def submit_to_all(pools, at_time, payload):
    return [pool.submit(payload=payload, at_time=at_time) for pool in pools][0]


def assert_matches_definition(pool, log, before):
    got = pool.pending_for_log(log, before)
    want = pool.pending_for(log.transactions(), before)
    assert got == want
    assert all(a is b for a, b in zip(got, want))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_pending_for_log_matches_definition(data):
    pools = new_pools()
    txs = [
        submit_to_all(pools, at_time, payload)
        for at_time, payload in data.draw(st.lists(submissions, max_size=8), label="preload")
    ]
    logs = [Log.genesis()]
    for step in range(data.draw(st.integers(1, 14), label="steps")):
        action = data.draw(
            st.sampled_from(["extend", "extend", "query", "query", "query", "submit", "thaw"]),
            label="action",
        )
        if action == "extend":
            # Any subset, in any order: re-batched, not-yet-visible and
            # invalid transactions are all things a Byzantine block holds.
            batch = data.draw(st.lists(st.sampled_from(txs), unique=True, max_size=4)) if txs else []
            if data.draw(st.booleans(), label="foreign"):
                batch.append(make_tx(10_000 + step, payload=VALID, at=step))
            parent = data.draw(st.sampled_from(logs), label="parent")
            logs.append(parent.append_block(batch, proposer=step % 3, view=step))
        elif action == "submit":
            txs.append(submit_to_all(pools, *data.draw(submissions, label="late submit")))
        elif action == "thaw":
            thawed = pickle.loads(pickle.dumps(data.draw(st.sampled_from(logs), label="thawed")))
            assert thawed.pending_memo is None
            logs.append(thawed)
        else:
            assert_matches_definition(
                data.draw(st.sampled_from(pools), label="pool"),
                data.draw(st.sampled_from(logs), label="log"),
                data.draw(cutoffs, label="before"),
            )
    # Whatever the history left behind, every log answers for every pool.
    for log in logs:
        for pool in pools:
            assert_matches_definition(pool, log, data.draw(cutoffs, label="final before"))


def test_hand_built_block_with_a_not_yet_visible_transaction():
    """The memo of a log that already holds a future transaction must not
    offer it again once the cut-off passes its submission time."""

    pool = TransactionPool()
    now, future = pool.submit("a", at_time=1), pool.submit("b", at_time=9)
    early = Log.genesis().append_block([future], proposer=0, view=0)
    assert pool.pending_for_log(early, before=5) == [now]
    child = early.append_block([now], proposer=1, view=1)
    assert pool.pending_for_log(child, before=20) == []
    assert pool.pending_for_log(early, before=20) == [now]


def test_predicate_runs_on_every_call_and_only_on_candidates():
    calls = []

    def predicate(tx):
        calls.append(tx.tx_id)
        return True

    pool = TransactionPool(predicate)
    a, b, c = (pool.submit(at_time=t) for t in (0, 1, 2))
    log = Log.genesis().append_block([a], proposer=0, view=0)
    assert pool.pending_for_log(log, before=3) == [b, c]
    assert pool.pending_for_log(log, before=3) == [b, c]
    assert calls == [1, 2, 1, 2]  # ``a`` is in the log: never evaluated
