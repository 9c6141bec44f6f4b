"""Property tests guarding the hot-path rewrites (see PERFORMANCE.md).

Three invariants keep the fast paths honest:

* shared prefix ``Log`` objects (from the per-log prefix cache) are
  indistinguishable — equal and hash-equal — from logs constructed from
  the raw block slices;
* cached digests (payload digests, envelope ids, log ids) equal their
  from-scratch recomputations;
* the tip-indexed :func:`majority_chain` agrees with the naive
  prefix-materialising reference (:mod:`tests.naive_oracles`) on
  arbitrary pair sets, including equivocation-heavy inputs (one sender
  backing several logs) and conflicting forks.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.chain.log import Log, common_prefix
from repro.core.quorum import majority_chain
from repro.crypto.hashing import stable_digest
from repro.crypto.signatures import KeyRegistry
from repro.net.messages import Envelope, LogMessage
from tests.conftest import make_tx
from tests.naive_oracles import majority_chain_naive

REGISTRY = KeyRegistry(16, seed=7)


@st.composite
def block_trees(draw):
    """A random tree of logs rooted at genesis (forks included)."""

    logs = [Log.genesis()]
    for i in range(draw(st.integers(1, 8))):
        parent = draw(st.sampled_from(logs))
        logs.append(
            parent.append_block([make_tx(30_000 + i)], proposer=i % 3, view=i)
        )
    return logs


@st.composite
def multi_pair_sets(draw):
    """Pair sets where one sender may back several (conflicting) logs.

    Models both honest snapshots (unique sender per pair) and the
    adversarial inputs property tests must cover: equivocators appear with
    two or more conflicting logs in a raw (un-intersected) pair set.
    """

    logs = draw(block_trees())
    pairs = set()
    for sender in range(draw(st.integers(1, 8))):
        for _ in range(draw(st.integers(1, 3))):  # >1 = equivocation-heavy
            pairs.add((sender, draw(st.sampled_from(logs))))
    sender_count = draw(st.integers(1, 12))
    return frozenset(pairs), sender_count


def full_rehash(log) -> str:
    return stable_digest(("log", tuple(b.block_id for b in log.blocks)))


class TestPrefixSharing:
    @given(block_trees())
    def test_shared_prefixes_equal_fresh_construction(self, logs):
        for log in logs:
            for length in range(1, len(log) + 1):
                shared = log.prefix(length)
                fresh = Log(log.blocks[:length])
                assert shared == fresh
                assert hash(shared) == hash(fresh)
                assert shared.log_id == fresh.log_id
                assert shared.blocks == fresh.blocks

    @given(block_trees())
    def test_all_prefixes_are_shared_instances(self, logs):
        for log in logs:
            prefixes = list(log.all_prefixes())
            assert prefixes == [log.prefix(i) for i in range(1, len(log) + 1)]
            # Repeated queries return the same objects, not new ones.
            assert all(a is b for a, b in zip(prefixes, log.all_prefixes()))

    @given(block_trees())
    def test_common_prefix_matches_naive_scan(self, logs):
        for a in logs:
            for b in logs:
                cp = common_prefix(a, b)
                best = 1
                for i in range(min(len(a), len(b))):
                    if a.blocks[i] == b.blocks[i]:
                        best = i + 1
                    else:
                        break
                assert cp == Log(a.blocks[:best])


class TestDigestCaching:
    @given(block_trees())
    def test_log_id_matches_full_rehash(self, logs):
        for log in logs:
            expected = stable_digest(("log", tuple(b.block_id for b in log.blocks)))
            assert log.log_id == expected

    @given(block_trees())
    def test_eight_siblings_share_one_parent_hasher(self, logs):
        for parent in logs:
            siblings = [
                parent.append_block([make_tx(40_000 + i)], proposer=i, view=77)
                for i in range(8)
            ]
            assert len({s.log_id for s in siblings}) == 8
            for sibling in siblings:
                assert sibling.log_id == full_rehash(sibling)

    @given(block_trees(), st.integers(1, 6))
    def test_fork_below_the_head_of_a_grown_encoding(self, logs, growth):
        # Grow one lineage well past ``base`` (its shared encoding now
        # extends beyond every ancestor), then fork from each ancestor.
        base = logs[-1]
        head = base
        for i in range(growth):
            head = head.append_block([make_tx(50_000 + i)], proposer=0, view=80 + i)
        for ancestor in head.all_prefixes():
            fork = ancestor.append_block([make_tx(60_000)], proposer=1, view=99)
            grandchild = fork.append_block([make_tx(60_001)], proposer=2, view=100)
            assert fork.log_id == full_rehash(fork)
            assert grandchild.log_id == full_rehash(grandchild)
        # The forks copied; the original lineage still reads its own ids.
        child = head.append_block([], proposer=3, view=101)
        assert child.log_id == full_rehash(child)

    @given(block_trees())
    def test_log_id_survives_a_pickle_round_trip(self, logs):
        thawed = pickle.loads(pickle.dumps(logs))
        for before, after in zip(logs, thawed):
            assert after.log_id == before.log_id == full_rehash(after)
            assert after.blocks == before.blocks
            assert hash(after) == hash(before)
            child = after.append_block([make_tx(70_000)], proposer=0, view=90)
            assert child.log_id == full_rehash(child)

    @given(block_trees(), st.integers(0, 15))
    def test_cached_payload_digest_matches_recomputation(self, logs, signer):
        for log in logs:
            payload = LogMessage(ga_key=("p", 1), log=log)
            cached = payload.digest()
            assert cached == payload.digest()  # stable across calls
            assert cached == stable_digest(
                ("LOG", tuple(payload.ga_key), log.log_id)
            )
            envelope = Envelope(
                payload=payload,
                signature=REGISTRY.key_for(signer).sign(payload.digest()),
            )
            assert envelope.envelope_id == stable_digest(
                ("env", cached, signer)
            )
            assert envelope.envelope_id == envelope.envelope_id


class TestMajorityChainEquivalence:
    @settings(max_examples=200)
    @given(multi_pair_sets())
    def test_fast_path_matches_naive_reference(self, data):
        pairs, sender_count = data
        assert majority_chain(pairs, sender_count) == majority_chain_naive(
            pairs, sender_count
        )

    @given(block_trees())
    def test_conflicting_fork_split_matches_naive(self, logs):
        base = logs[0]
        fork_a = base.append_block([make_tx(91)], proposer=0, view=50)
        fork_b = base.append_block([make_tx(92)], proposer=1, view=50)
        pairs = frozenset(
            (vid, fork_a if vid % 2 else fork_b) for vid in range(9)
        )
        assert majority_chain(pairs, 9) == majority_chain_naive(pairs, 9)

    def test_equivocating_sender_counted_once_per_boundary(self):
        base = Log.genesis()
        fork_a = base.append_block([make_tx(1)], proposer=0, view=0)
        fork_b = base.append_block([make_tx(2)], proposer=1, view=0)
        # Sender 0 equivocates: both forks carry its support; genesis gets
        # one vote from it, not two.
        pairs = frozenset({(0, fork_a), (0, fork_b), (1, fork_a), (2, fork_a)})
        assert majority_chain(pairs, 3) == majority_chain_naive(pairs, 3)
        assert majority_chain(pairs, 3) == [base, fork_a]
