"""Envelope <-> JSON codec for the real transport.

The in-sim network hands validators live :class:`Envelope` objects; the
socket transport ships canonical-JSON frames.  This codec bridges the
two *losslessly with respect to content identity*: every digest in the
system (block ids, payload digests, ``envelope_id``) is a pure function
of the serialized fields, so a decoded envelope re-derives exactly the
ids the sender's object carried — signatures verify, dedup tokens
collapse wire copies with local originals, and the sim-oracle
equivalence contract (docs/ARCHITECTURE.md) survives the round trip.

Logs are re-validated on decode, *anchor-and-extend*: almost all of a
received log is a chain the receiver already holds (GA inputs only ever
extend earlier outputs), so :func:`decode_log` finds the longest wire
prefix that ends in a log of a :class:`LineageMemo`, confirms that
prefix equals the held log's blocks field for field — comparisons, no
hashing — and then builds, hashes and parent-link-checks only the suffix
it has not seen, extending the held :class:`~repro.chain.log.Log`
through its parent link.  Every decoded log is rooted at genesis, every
block id in it was derived from wire fields (now, or when an identical
block was first decoded) and every link is checked, so a corrupt or
malicious peer cannot smuggle a log with broken parent links past the
codec.  The stateless call (no memo) is the same routine over an empty
memo: the anchor is genesis and the suffix is everything.  Floats (the
single VRF ``value`` field) round-trip exactly through JSON
(``repr``-based encoding), so VRF comparisons are bit-identical across
the wire.
"""

from __future__ import annotations

from repro.chain.block import Block
from repro.chain.genesis import GENESIS_BLOCK
from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.crypto.signatures import Signature
from repro.crypto.vrf import VrfOutput
from repro.net.messages import (
    Envelope,
    LogMessage,
    Payload,
    ProposalMessage,
    RecoveryMessage,
    StructuralVote,
    VoteMessage,
)


class CodecError(ValueError):
    """A wire dict does not describe a well-formed envelope."""


def encode_log(log: Log) -> list:
    """Serialize a log as its non-genesis blocks (genesis is implicit)."""

    return [
        {
            "parent": block.parent_id,
            "proposer": block.proposer,
            "view": block.view,
            "txs": [[tx.tx_id, tx.payload, tx.submitted_at] for tx in block.transactions],
        }
        for block in log.blocks[1:]
    ]


class LineageMemo:
    """One receiver's decoded lineage: tip ``block_id`` -> the log ending there.

    Owned by one runtime, never shared: block ids hash transaction *ids*
    only, so equal-id logs of different runs (or of an equivocating
    sender) may carry different :class:`Transaction` objects — the reason
    ``chain/log.py`` refuses a global table.  :func:`decode_log` only
    reads it; the owner calls :meth:`admit` once the envelope that
    carried a log passed signature verification, so an unauthenticated
    flood can neither grow nor poison it.

    Every held block has exactly the wire's field types (``str`` parent
    and payload, ``int`` everything else; ``bool`` is not ``int``).  For
    those, same-type equality is equality of the hashed encoding, which
    lets the decoder's prefix comparison check the wire side's types
    only.  A log with any other field type decodes as it always did but
    is not held.
    """

    __slots__ = ("_logs",)

    def __init__(self) -> None:
        root = Log.genesis()
        self._logs: dict[str, Log] = {root.tip.block_id: root}

    def __len__(self) -> int:
        return len(self._logs)

    def admit(self, log: Log) -> None:
        """Hold ``log`` and each ancestor not yet held, shortest first.

        Stops at the first block that is not plainly typed (its
        descendants contain it).  The first log admitted under a tip id
        stays: a later variant (same transaction ids, other payloads)
        never matches it in a prefix comparison and is rebuilt from the
        wire each time, as every log was before the memo.
        """

        logs = self._logs
        fresh = []
        node = log
        while node is not None and logs.get(node.tip.block_id) is not node:
            fresh.append(node)
            node = node.parent
        for node in reversed(fresh):
            # A parentless log vouches for all its blocks, a linked one for its tip.
            blocks = node.blocks if node.parent is None else node.blocks[-1:]
            if not all(map(_plainly_typed, blocks)):
                return
            logs.setdefault(node.tip.block_id, node)


def _plainly_typed(block: Block) -> bool:
    return (
        type(block.parent_id) is str
        and type(block.proposer) is int
        and type(block.view) is int
        and all(
            type(tx.tx_id) is int
            and type(tx.payload) is str
            and type(tx.submitted_at) is int
            for tx in block.transactions
        )
    )


def _same_prefix(entries: list, blocks: tuple[Block, ...]) -> bool:
    """True iff each wire entry would decode to exactly the block beside it.

    ``blocks`` are held by a memo, hence plainly typed, so a string field
    can only equal a string; the integer fields need the wire side's type
    checked (``1.0 == 1 == True`` in Python, but they hash differently).
    A malformed entry raises what decoding it would raise.
    """

    for entry, block in zip(entries, blocks):
        txs, proposer, view = entry["txs"], entry["proposer"], entry["view"]
        held = block.transactions
        if (
            type(txs) is not list
            or len(txs) != len(held)
            or entry["parent"] != block.parent_id
            or type(proposer) is not int
            or proposer != block.proposer
            or type(view) is not int
            or view != block.view
        ):
            return False
        for wire_tx, tx in zip(txs, held):
            if type(wire_tx) is not list or len(wire_tx) != 3:
                return False
            tx_id, payload, submitted_at = wire_tx
            if (
                type(tx_id) is not int
                or tx_id != tx.tx_id
                or payload != tx.payload
                or type(submitted_at) is not int
                or submitted_at != tx.submitted_at
            ):
                return False
    return True


def decode_log(blocks: list, memo: LineageMemo | None = None) -> Log:
    """Rebuild a log, re-validating genesis root and parent links.

    Anchors at the longest wire prefix ``memo`` already holds (see the
    module docstring) and builds only the rest; without a memo, or when
    the wire disagrees with the held log anywhere, the anchor is genesis.
    """

    held = (LineageMemo() if memo is None else memo)._logs
    try:
        log, start = held[GENESIS_BLOCK.block_id], 0
        # Back from the tip: entry h claims the id of the block below it,
        # and a held log of exactly h + 1 blocks ends at that height.
        for height in range(len(blocks) - 1, 0, -1):
            anchor = held.get(blocks[height]["parent"])
            if anchor is not None and len(anchor) == height + 1:
                if _same_prefix(blocks[:height], anchor.blocks[1:]):
                    log, start = anchor, height
                break
        for entry in blocks[start:]:
            log = log.extend(
                Block(
                    parent_id=entry["parent"],
                    transactions=tuple(
                        Transaction(tx_id=t[0], payload=t[1], submitted_at=t[2])
                        for t in entry["txs"]
                    ),
                    proposer=entry["proposer"],
                    view=entry["view"],
                )
            )
        return log
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CodecError(f"malformed log on the wire: {exc}") from None


def _encode_payload(payload: Payload) -> dict:
    if isinstance(payload, LogMessage):
        return {"kind": "log", "ga_key": list(payload.ga_key), "log": encode_log(payload.log)}
    if isinstance(payload, ProposalMessage):
        vrf = payload.vrf
        return {
            "kind": "proposal",
            "view": payload.view,
            "log": encode_log(payload.log),
            "vrf": {
                "validator_id": vrf.validator_id,
                "view": vrf.view,
                "value": vrf.value,
                "proof": vrf.proof,
            },
        }
    if isinstance(payload, VoteMessage):
        return {"kind": "vote", "ga_key": list(payload.ga_key), "log": encode_log(payload.log)}
    if isinstance(payload, StructuralVote):
        return {
            "kind": "svote",
            "protocol": payload.protocol,
            "view": payload.view,
            "phase_index": payload.phase_index,
            "log": encode_log(payload.log),
        }
    if isinstance(payload, RecoveryMessage):
        return {"kind": "recovery", "requested_at": payload.requested_at}
    raise CodecError(f"unknown payload type {type(payload).__name__}")


def _decode_payload(data: dict, memo: LineageMemo | None) -> Payload:
    try:
        kind = data["kind"]
        if kind == "log":
            return LogMessage(ga_key=tuple(data["ga_key"]), log=decode_log(data["log"], memo))
        if kind == "proposal":
            vrf = data["vrf"]
            return ProposalMessage(
                view=data["view"],
                log=decode_log(data["log"], memo),
                vrf=VrfOutput(
                    validator_id=vrf["validator_id"],
                    view=vrf["view"],
                    value=vrf["value"],
                    proof=vrf["proof"],
                ),
            )
        if kind == "vote":
            return VoteMessage(ga_key=tuple(data["ga_key"]), log=decode_log(data["log"], memo))
        if kind == "svote":
            return StructuralVote(
                protocol=data["protocol"],
                view=data["view"],
                phase_index=data["phase_index"],
                log=decode_log(data["log"], memo),
            )
        if kind == "recovery":
            return RecoveryMessage(requested_at=data["requested_at"])
    except CodecError:
        raise
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed payload on the wire: {exc}") from None
    raise CodecError(f"unknown payload kind {kind!r}")


def encode_envelope(envelope: Envelope) -> dict:
    """One envelope as a JSON-safe dict (payload + signature)."""

    sig = envelope.signature
    return {
        "payload": _encode_payload(envelope.payload),
        "sig": {"signer": sig.signer, "digest": sig.payload_digest, "tag": sig.tag},
    }


def decode_envelope(data: dict, memo: LineageMemo | None = None) -> Envelope:
    """Rebuild an envelope; content ids re-derive from the decoded fields.

    The signature is carried verbatim — verification stays where it
    lives in the sim path (the network-facing ``broadcast``/delivery
    layer), so a forged frame fails exactly as a forged envelope would.
    ``memo`` is read, never written: the caller admits the decoded log
    once that verification has passed.
    """

    try:
        sig = data["sig"]
        signature = Signature(
            signer=sig["signer"], payload_digest=sig["digest"], tag=sig["tag"]
        )
        payload = _decode_payload(data["payload"], memo)
    except CodecError:
        raise
    except (KeyError, TypeError) as exc:
        raise CodecError(f"malformed envelope on the wire: {exc}") from None
    return Envelope(payload=payload, signature=signature)
