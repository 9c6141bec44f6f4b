"""Logs and the prefix/conflict algebra of Section 3.2.

A log is a finite sequence of blocks ``[b_1, ..., b_k]``.  Given two logs
``L`` and ``L'``:

* ``L`` is a **prefix** of ``L'`` (written ``L <= L'`` in the paper's
  notation) iff ``L'`` starts with ``L``'s blocks;
* the logs are **compatible** if one is a prefix of the other;
* otherwise they **conflict**;
* ``L'`` is an **extension** of ``L`` iff ``L`` is a prefix of ``L'``.

Every log in this repository extends the genesis log, mirroring the paper's
assumption about :math:`\\Lambda_g`.

Performance notes (see PERFORMANCE.md).  Logs form append-only lineages —
``append_block`` links each child to its parent — and the module exploits
that three ways:

* **Prefix sharing** — each log lazily builds a per-log cache of its
  strict prefixes (reusing its ancestors' caches), so ``prefix()`` /
  ``all_prefixes()`` / ``common_prefix`` return shared ``Log`` objects in
  O(1) amortised instead of constructing and re-hashing new ones.  The
  cache follows parent links only, never a global table: block ids hash
  transaction *ids*, so equal-id logs from different simulation runs may
  carry distinct :class:`Transaction` objects and must not be conflated;
* **Shared id encoding, sibling hasher** — the canonical byte encoding of
  a log's block-id sequence is a prefix of every descendant's, so a
  lineage keeps *one* growable buffer and a log is ``(buffer, end
  offset)``.  Only logs that get a child materialise theirs; the parent
  then primes one hasher with that encoding and every child derives its
  ``log_id`` from a ``.copy()`` plus its own tip id.  The digests are
  byte-identical to hashing the full sequence from scratch;
* **Trusted slices** — prefixes of a validated log skip parent-link
  re-validation (a contiguous slice of a valid chain is valid by
  construction) and a single-block extension (``extend``, which
  ``append_block`` goes through) checks the one new link.

A log is an immutable *value*, but the caches above are mutable state
shared along a lineage (extending a log appends to its ancestors'
buffer), so the logs of one run are built from one thread — as the
simulator and the node runtime's single protocol loop do.
"""

from __future__ import annotations

from functools import total_ordering
from typing import Iterable, Iterator, Sequence

from repro.chain.block import Block
from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.transactions import Transaction
from repro.crypto.hashing import (
    canonical_str,
    finish_tagged_strings,
    tagged_strings_hasher,
)


#: Every log whose length is a multiple of this pickles its ancestors
#: explicitly; bounds the pickler's recursion (see ``Log._pickle_spine``).
_PICKLE_STRIDE = 64


@total_ordering
class Log:
    """An immutable, hashable sequence of blocks rooted at genesis."""

    __slots__ = (
        "_blocks",
        "_log_id",
        "_hash",
        "_enc",
        "_child_hasher",
        "_parent",
        "_prefixes",
        "_tx_tuple",
        "_token_ctx",
        "_token",
        "pending_memo",
    )

    def __init__(self, blocks: Sequence[Block]) -> None:
        blocks = tuple(blocks)
        if not blocks:
            raise ValueError("a log contains at least the genesis block")
        if blocks[0] != GENESIS_BLOCK:
            raise ValueError("every log must extend the genesis log")
        for parent, child in zip(blocks, blocks[1:]):
            if child.parent_id != parent.block_id:
                raise ValueError(
                    f"broken parent link: {child!r} does not extend {parent!r}"
                )
        self._finish_init(blocks, None)

    def _finish_init(self, blocks: tuple[Block, ...], parent: "Log | None") -> None:
        self._blocks = blocks
        self._parent = parent
        # Both materialise when this log first gets a child.
        self._enc: tuple[bytearray, int] | None = None
        self._child_hasher = None
        if parent is not None:
            self._log_id = parent._child_id(blocks[-1].block_id)
        else:
            hasher = tagged_strings_hasher("log", len(blocks))
            hasher.update(b"".join(canonical_str(b.block_id) for b in blocks[:-1]))
            self._log_id = finish_tagged_strings(hasher, blocks[-1].block_id)
        self._hash = hash(self._log_id)
        self._prefixes: list[Log] | None = None
        self._tx_tuple: tuple[Transaction, ...] | None = None
        self._token_ctx: object | None = None  # RunContext that pinned _token
        self._token: int = -1
        #: Owned by :meth:`TransactionPool.pending_for_log`; never pickled.
        self.pending_memo = None

    @classmethod
    def _trusted(
        cls, blocks: tuple[Block, ...], parent: "Log | None" = None
    ) -> "Log":
        """Build a log from blocks already known to form a valid chain.

        ``parent`` (when given) must be the log of ``blocks[:-1]``; its
        shared id encoding then makes the id derivation O(1) in the
        chain length for every sibling after the first, and the parent
        link feeds the shared prefix cache.
        """

        log = object.__new__(cls)
        if parent is not None and len(parent._blocks) != len(blocks) - 1:
            parent = None
        log._finish_init(blocks, parent)
        return log

    # -- log ids -----------------------------------------------------------------

    def _child_id(self, tip_id: str) -> str:
        """``log_id`` of this log extended by a block with id ``tip_id``.

        Siblings share both the element count and the parent's encoding,
        so one primed hasher serves them all.  (A child's preimage does
        *not* extend its parent's — the count precedes the sequence — so
        the state cannot be carried further down the chain.)
        """

        hasher = self._child_hasher
        if hasher is None:
            hasher = tagged_strings_hasher("log", len(self._blocks) + 1)
            hasher.update(self._materialise_encoding())
            self._child_hasher = hasher
        return finish_tagged_strings(hasher.copy(), tip_id)

    def _materialise_encoding(self) -> bytearray:
        """Put this log at the head of a lineage buffer and return it.

        The buffer is ``canonical_str(block_id)`` of every block,
        concatenated; ``_enc`` remembers it with this log's end offset.
        It is shared down the lineage: a log whose parent is still the
        buffer's head extends it in place, and only extending a log the
        buffer has already grown past (a fork) copies.  One step, never a
        walk: a log with a parent link got its id from that parent's
        hasher, so the parent's encoding exists.  Runs once per log, when
        it gets its first child.
        """

        parent = self._parent
        if parent is None:
            buf = bytearray(
                b"".join(canonical_str(b.block_id) for b in self._blocks)
            )
        else:
            buf, end = parent._enc
            if end != len(buf):
                buf = buf[:end]
            buf += canonical_str(self._blocks[-1].block_id)
        self._enc = (buf, len(buf))
        return buf

    # -- construction -----------------------------------------------------

    @classmethod
    def genesis(cls) -> "Log":
        """The genesis log :math:`\\Lambda_g`."""

        return cls._trusted((GENESIS_BLOCK,))

    def append_block(
        self,
        transactions: Iterable[Transaction],
        proposer: int,
        view: int,
    ) -> "Log":
        """Extend this log with one new block batching ``transactions``."""

        return self.extend(
            Block(
                parent_id=self.tip.block_id,
                transactions=tuple(transactions),
                proposer=proposer,
                view=view,
            )
        )

    def extend(self, block: Block) -> "Log":
        """Extend this log by an already-built ``block``, checking its parent link.

        The child keeps the parent link, so its ``log_id`` comes from the
        sibling hasher and the prefix caches are shared — what a decoder
        that anchors a received chain at a log it already holds needs.
        """

        tip = self._blocks[-1]
        if block.parent_id != tip.block_id:
            raise ValueError(
                f"broken parent link: {block!r} does not extend {tip!r}"
            )
        return Log._trusted(self._blocks + (block,), parent=self)

    def prefix(self, length: int) -> "Log":
        """The prefix of this log with ``length`` blocks (shared instance)."""

        if not 1 <= length <= len(self._blocks):
            raise ValueError(f"invalid prefix length {length}")
        if length == len(self._blocks):
            return self
        return self._strict_prefixes()[length - 1]

    def _strict_prefixes(self) -> list["Log"]:
        """``[prefix(1), ..., prefix(len-1)]``, cached on the queried log.

        Built by walking parent links to the nearest ancestor with a
        cache; a log with no parent link (constructed from raw blocks)
        materialises its prefixes once from block slices.  Only the
        queried log (and a materialised raw root) keeps the list —
        caching it on every intermediate ancestor would pin O(n^2) list
        entries across a chain of length n.  The walk itself is pointer
        chasing, no hashing or construction.
        """

        cached = self._prefixes
        if cached is not None:
            return cached
        stack: list[Log] = []
        node = self._parent
        while node is not None and node._prefixes is None:
            stack.append(node)
            node = node._parent
        if node is not None:
            prefixes = node._prefixes + [node]
        elif stack:
            root = stack.pop()  # deepest walked ancestor, no parent link
            base: list[Log] = []
            prev: Log | None = None
            for length in range(1, len(root._blocks)):
                prev = Log._trusted(root._blocks[:length], parent=prev)
                base.append(prev)
            root._prefixes = base
            prefixes = base + [root]
        else:
            prefixes = []
            prev = None
            for length in range(1, len(self._blocks)):
                prev = Log._trusted(self._blocks[:length], parent=prev)
                prefixes.append(prev)
            self._prefixes = prefixes
            return prefixes
        prefixes.extend(reversed(stack))
        self._prefixes = prefixes
        return prefixes

    # -- serialization -----------------------------------------------------

    def __getstate__(self):
        """Pickle only the tip block and the parent link.

        Everything else is derivable: the block tuple is the parent's plus
        the tip, ``_log_id`` re-derives through the parent's sibling
        hasher, and the id encoding, hasher, lazy caches and
        ``pending_memo`` (which names a live pool) rebuild on demand.  The
        parent link preserves the prefix-sharing topology of the thawed
        graph.  Interning pins (``_token_ctx``/``_token``) are dropped:
        tokens are keyed by digest in the run's own (pickled) table, so
        thawed logs re-read the same values on first touch.

        The leading spine only fixes the *order* the pickler meets the
        ancestors in (see :meth:`_pickle_spine`); loading ignores it.
        """

        parent = self._parent
        if parent is None:
            return ((), None, self._blocks)
        return (self._pickle_spine(), parent, self._blocks[-1])

    def _pickle_spine(self) -> tuple["Log", ...]:
        """Ancestors to pickle before this log, root first.

        Following parent links alone, the pickler recurses once per
        ancestor and a chain of a few hundred blocks exhausts the stack.
        Every ``_PICKLE_STRIDE``-th log therefore names the earlier
        stride logs and then the ``_PICKLE_STRIDE - 1`` logs it directly
        sits on, so each is memoised before anything that points at it
        and the recursion depth is bounded by the stride, whatever the
        chain length.
        """

        length = len(self._blocks)
        if length % _PICKLE_STRIDE:
            return ()
        ancestors = []
        node = self._parent
        while node is not None:
            ancestors.append(node)
            node = node._parent
        ancestors.reverse()
        strides = [a for a in ancestors if len(a._blocks) % _PICKLE_STRIDE == 0]
        return tuple(strides + ancestors[1 - _PICKLE_STRIDE :])

    def __setstate__(self, state) -> None:
        _spine, parent, tail = state
        blocks = tail if parent is None else parent._blocks + (tail,)
        self._finish_init(blocks, parent)

    # -- basic accessors ---------------------------------------------------

    @property
    def blocks(self) -> tuple[Block, ...]:
        return self._blocks

    @property
    def tip(self) -> Block:
        """The last block of the log."""

        return self._blocks[-1]

    @property
    def parent(self) -> "Log | None":
        """The log this one was appended to (``None`` when built from raw blocks)."""

        return self._parent

    @property
    def log_id(self) -> str:
        return self._log_id

    def __len__(self) -> int:
        return len(self._blocks)

    def __iter__(self) -> Iterator[Block]:
        return iter(self._blocks)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Log):
            return NotImplemented
        return self._log_id == other._log_id

    def __lt__(self, other: "Log") -> bool:
        """Strict-prefix partial order promoted to a usable comparison.

        ``a < b`` means "a is a strict prefix of b".  For conflicting logs
        both ``a < b`` and ``b < a`` are False; ``sorted`` over a chain of
        compatible logs therefore orders them shortest-first, which is what
        "highest log" computations rely on.
        """

        return len(self) < len(other) and self.prefix_of(other)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Log(len={len(self)},{self._log_id[:8]})"

    # -- the algebra of Section 3.2 ----------------------------------------

    def prefix_of(self, other: "Log") -> bool:
        """True iff this log is a (non-strict) prefix of ``other``."""

        if len(self) > len(other):
            return False
        # Parent links make block identity at position k determine the whole
        # prefix, so comparing the boundary block suffices.
        return self._blocks[-1] == other._blocks[len(self) - 1]

    def is_extension_of(self, other: "Log") -> bool:
        """True iff this log extends ``other`` (``other`` is a prefix)."""

        return other.prefix_of(self)

    def compatible_with(self, other: "Log") -> bool:
        """True iff one log is a prefix of the other."""

        return self.prefix_of(other) or other.prefix_of(self)

    def conflicts_with(self, other: "Log") -> bool:
        """True iff neither log is a prefix of the other."""

        return not self.compatible_with(other)

    # -- conveniences used across the repository ----------------------------

    def transactions(self) -> list[Transaction]:
        """All transactions in the log, in order."""

        cached = self._tx_tuple
        if cached is None:
            cached = tuple(
                tx for block in self._blocks for tx in block.transactions
            )
            self._tx_tuple = cached
        return list(cached)

    def contains_transaction(self, tx: Transaction) -> bool:
        """True iff some block of the log includes ``tx``.

        A plain scan: the proposer no longer asks (see
        :meth:`TransactionPool.pending_for_log`), and a per-log
        transaction set costs O(chain) memory for every log queried.
        """

        tx_id = tx.tx_id  # int pre-filter: dataclass equality is a Python call
        for block in self._blocks:
            for other in block.transactions:
                if other.tx_id == tx_id and other == tx:
                    return True
        return False

    def proper_prefixes(self) -> Iterator["Log"]:
        """All strict prefixes, shortest first."""

        if len(self._blocks) > 1:
            yield from self._strict_prefixes()

    def all_prefixes(self) -> Iterator["Log"]:
        """All prefixes including the log itself, shortest first."""

        if len(self._blocks) > 1:
            yield from self._strict_prefixes()
        yield self


def common_prefix(a: Log, b: Log) -> Log:
    """The longest common prefix of two logs (at least the genesis log)."""

    if a.prefix_of(b):
        return a
    if b.prefix_of(a):
        return b
    # The logs conflict: binary-search the divergence point.  Equality of
    # the blocks at position k implies equality of the whole prefix (parent
    # links), so "blocks match at k" is monotone in k.
    lo, hi = 1, min(len(a), len(b)) - 1  # genesis always matches
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if a.blocks[mid - 1] == b.blocks[mid - 1]:
            lo = mid
        else:
            hi = mid - 1
    return a.prefix(lo)


def highest(logs: Iterable[Log]) -> Log | None:
    """The longest log among ``logs`` (ties broken by log id for determinism).

    The paper always takes "the highest log output with grade g"; callers
    must only pass mutually-compatible logs for that phrase to be
    meaningful, but the function itself is total.
    """

    result: Log | None = None
    for log in logs:
        if result is None or (len(log), log.log_id) > (len(result), result.log_id):
            result = log
    return result
