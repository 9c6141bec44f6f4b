"""Blocks: immutable batches of transactions with a parent reference.

A block "represents a batch of transactions and it contains a reference to
another block" (Section 3.2).  We realise the reference as the parent
block's identifier; the genesis block has no parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.chain.transactions import Transaction
from repro.crypto.hashing import block_digest


@dataclass(frozen=True)
class Block:
    """An immutable block.

    Attributes:
        parent_id: Identifier of the parent block (``""`` for genesis).
        transactions: The batched transactions, in batching order.
        proposer: Validator id of the proposer (-1 for genesis).
        view: View in which the block was proposed (-1 for genesis).
        block_id: Content-derived identifier, computed on construction.
    """

    parent_id: str
    transactions: tuple[Transaction, ...] = ()
    proposer: int = -1
    view: int = -1
    block_id: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        digest = block_digest(
            self.parent_id,
            [tx.tx_id for tx in self.transactions],
            self.proposer,
            self.view,
        )
        object.__setattr__(self, "block_id", digest)

    @property
    def is_genesis(self) -> bool:
        """True for the unique parentless genesis block."""

        return self.parent_id == ""

    def __hash__(self) -> int:
        return hash(self.block_id)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Block):
            return NotImplemented
        return self.block_id == other.block_id

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = "genesis" if self.is_genesis else f"v{self.view}/p{self.proposer}"
        return f"Block({tag},#tx={len(self.transactions)},{self.block_id[:8]})"
