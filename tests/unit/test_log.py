"""Unit tests for blocks, logs, and the Section-3.2 prefix algebra."""

import pickle

import pytest

from repro.chain.block import Block
from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log, common_prefix, highest
from repro.crypto.hashing import stable_digest
from tests.conftest import chain_of, fork_of, make_tx


class TestBlock:
    def test_genesis_block_has_no_parent(self):
        assert GENESIS_BLOCK.is_genesis
        assert GENESIS_BLOCK.parent_id == ""

    def test_block_id_depends_on_content(self):
        a = Block(parent_id="p", transactions=(make_tx(1),), proposer=0, view=0)
        b = Block(parent_id="p", transactions=(make_tx(2),), proposer=0, view=0)
        assert a.block_id != b.block_id

    def test_block_id_depends_on_parent(self):
        a = Block(parent_id="p1", transactions=(), proposer=0, view=0)
        b = Block(parent_id="p2", transactions=(), proposer=0, view=0)
        assert a != b

    def test_equal_content_equal_blocks(self):
        a = Block(parent_id="p", transactions=(make_tx(1),), proposer=2, view=3)
        b = Block(parent_id="p", transactions=(make_tx(1),), proposer=2, view=3)
        assert a == b
        assert hash(a) == hash(b)


class TestLogConstruction:
    def test_genesis_log(self, genesis):
        assert len(genesis) == 1
        assert genesis.tip == GENESIS_BLOCK

    def test_append_builds_parent_links(self, genesis):
        log = genesis.append_block([make_tx(1)], proposer=0, view=0)
        assert len(log) == 2
        assert log.blocks[1].parent_id == GENESIS_BLOCK.block_id

    def test_empty_log_rejected(self):
        with pytest.raises(ValueError):
            Log(())

    def test_non_genesis_root_rejected(self):
        orphan = Block(parent_id="nowhere", transactions=(), proposer=0, view=0)
        with pytest.raises(ValueError):
            Log((orphan,))

    def test_broken_parent_link_rejected(self, genesis):
        stray = Block(parent_id="not-genesis", transactions=(), proposer=0, view=0)
        with pytest.raises(ValueError):
            Log((GENESIS_BLOCK, stray))

    def test_extend_by_a_built_block_matches_the_raw_constructor(self):
        chain = chain_of(3)
        block = Block(
            parent_id=chain.tip.block_id, transactions=(make_tx(9),), proposer=1, view=7
        )
        extended = chain.extend(block)
        assert extended.log_id == Log(chain.blocks + (block,)).log_id
        assert extended.blocks == chain.blocks + (block,)
        assert extended.parent is chain
        assert extended.prefix(len(chain)) is chain

    def test_extend_rejects_a_block_that_names_another_parent(self):
        chain = chain_of(3)
        stray = Block(parent_id=chain.blocks[1].block_id, transactions=(), proposer=1, view=7)
        with pytest.raises(ValueError):
            chain.extend(stray)

    def test_prefix_constructor(self):
        log = chain_of(4)
        assert len(log.prefix(3)) == 3
        assert log.prefix(3).prefix_of(log)

    def test_prefix_bad_length_rejected(self):
        log = chain_of(2)
        with pytest.raises(ValueError):
            log.prefix(0)
        with pytest.raises(ValueError):
            log.prefix(4)


class TestPrefixAlgebra:
    def test_prefix_of_self(self):
        log = chain_of(3)
        assert log.prefix_of(log)

    def test_genesis_prefix_of_everything(self, genesis):
        assert genesis.prefix_of(chain_of(5))

    def test_strict_prefix(self):
        log = chain_of(4)
        assert log.prefix(2).prefix_of(log)
        assert not log.prefix_of(log.prefix(2))

    def test_extension_is_inverse_of_prefix(self):
        log = chain_of(3)
        assert log.is_extension_of(log.prefix(2))
        assert not log.prefix(2).is_extension_of(log)

    def test_forks_conflict(self):
        base = chain_of(2)
        a, b = fork_of(base, 1), fork_of(base, 2)
        assert a.conflicts_with(b)
        assert not a.compatible_with(b)

    def test_compatible_chain(self):
        log = chain_of(3)
        assert log.compatible_with(log.prefix(1))
        assert log.prefix(1).compatible_with(log)

    def test_conflicting_same_length(self):
        a, b = chain_of(2, tag=1), chain_of(2, tag=2)
        assert a.conflicts_with(b)

    def test_lt_is_strict_prefix(self):
        log = chain_of(3)
        assert log.prefix(1) < log
        assert not log < log
        a, b = fork_of(log, 1), fork_of(log, 2)
        assert not a < b and not b < a

    def test_equality_by_content(self):
        assert chain_of(3, tag=5) == chain_of(3, tag=5)
        assert chain_of(3, tag=5) != chain_of(3, tag=6)
        assert hash(chain_of(2)) == hash(chain_of(2))


class TestLogQueries:
    def test_transactions_in_order(self, genesis):
        log = genesis.append_block([make_tx(1), make_tx(2)], 0, 0)
        log = log.append_block([make_tx(3)], 0, 1)
        assert [tx.tx_id for tx in log.transactions()] == [1, 2, 3]

    def test_contains_transaction(self, genesis):
        tx = make_tx(42)
        log = genesis.append_block([tx], 0, 0)
        assert log.contains_transaction(tx)
        assert not genesis.contains_transaction(tx)

    def test_all_prefixes_shortest_first(self):
        log = chain_of(3)
        prefixes = list(log.all_prefixes())
        assert [len(p) for p in prefixes] == [1, 2, 3, 4]
        assert prefixes[-1] == log

    def test_proper_prefixes_exclude_self(self):
        log = chain_of(2)
        assert log not in list(log.proper_prefixes())


class TestCommonPrefixAndHighest:
    def test_common_prefix_of_forks(self):
        base = chain_of(2)
        a, b = fork_of(base, 1), fork_of(base, 2)
        assert common_prefix(a, b) == base

    def test_common_prefix_of_chain(self):
        log = chain_of(4)
        assert common_prefix(log, log.prefix(2)) == log.prefix(2)

    def test_common_prefix_disjoint_is_genesis(self, genesis):
        assert common_prefix(chain_of(2, tag=1), chain_of(2, tag=2)) == genesis

    def test_highest_picks_longest(self):
        log = chain_of(3)
        assert highest([log.prefix(1), log, log.prefix(2)]) == log

    def test_highest_of_empty_is_none(self):
        assert highest([]) is None

    def test_highest_deterministic_on_ties(self):
        a, b = chain_of(2, tag=1), chain_of(2, tag=2)
        assert highest([a, b]) == highest([b, a])


def full_rehash(log) -> str:
    return stable_digest(("log", tuple(b.block_id for b in log.blocks)))


class TestDeepChainPickling:
    DEPTH = 4096

    def test_deep_chain_pickles_and_thaws_without_recursing(self):
        """The pickler would spend a few frames per parent link were it
        not for the spine; thawing re-derives every id root first, each
        from its parent's encoding, so nothing recurses per ancestor."""

        log = Log.genesis()
        for view in range(self.DEPTH):
            log = log.append_block([make_tx(view)], proposer=view % 4, view=view)
        thawed = pickle.loads(pickle.dumps(log))
        assert len(thawed) == self.DEPTH + 1
        assert thawed.log_id == log.log_id
        assert thawed.blocks == log.blocks
        assert thawed.log_id == full_rehash(log)
        # Parent links survive, shared with the prefix cache.
        assert thawed.parent is thawed.prefix(self.DEPTH)
        assert [p.log_id for p in thawed.all_prefixes()] == [
            p.log_id for p in log.all_prefixes()
        ]
        # Extending the thawed tip and a thawed mid-chain ancestor (a
        # fork below the head of the shared encoding) still hashes right.
        for base in (thawed, thawed.prefix(self.DEPTH // 2)):
            child = base.append_block([], proposer=0, view=self.DEPTH)
            assert child.log_id == full_rehash(child)

    def test_state_is_tip_plus_parent(self):
        log = chain_of(3)
        spine, parent, tail = log.__getstate__()
        assert (spine, parent, tail) == ((), log.prefix(3), log.tip)
        assert Log(log.blocks).__getstate__() == ((), None, log.blocks)
