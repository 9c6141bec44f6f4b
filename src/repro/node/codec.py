"""Envelope <-> JSON codec for the real transport.

The in-sim network hands validators live :class:`Envelope` objects; the
socket transport ships canonical-JSON frames.  This codec bridges the
two *losslessly with respect to content identity*: every digest in the
system (block ids, payload digests, ``envelope_id``) is a pure function
of the serialized fields, so a decoded envelope re-derives exactly the
ids the sender's object carried — signatures verify, dedup tokens
collapse wire copies with local originals, and the sim-oracle
equivalence contract (docs/ARCHITECTURE.md) survives the round trip.

**Delta log frames.**  A log travels as ``{"a": anchor, "h": height,
"b": entries}``: the ``block_id`` of its block at ``height`` (genesis is
height 1) and the blocks above it.  The sender picks the anchor from the
tips the receiver has acknowledged holding (docs/ARCHITECTURE.md, "Delta
log frames and acknowledged frontiers"), so a frame carries what the
receiver has not verified yet, not the whole chain.  :func:`decode_log`
resolves the anchor in the receiver's :class:`LineageMemo`, requires the
held log to have exactly ``height`` blocks, and builds, hashes and
parent-link-checks only ``entries``, extending the held
:class:`~repro.chain.log.Log`; an anchor the memo does not hold is an
:class:`AnchorError`.  The full log is the anchor-at-genesis case — what
``encode_envelope(envelope)`` writes and a memo-less
``decode_envelope(wire)`` reads — so there is one decode body and no
flag.  Every decoded log is rooted at genesis and every link is checked,
so a corrupt or malicious peer cannot smuggle a log with broken parent
links past the codec.

An anchor names content identity: block ids, which hash transaction
*ids*, not payloads.  The receiver's held variant of the anchor stands
in for the sender's, even when a Byzantine proposer made a variant
with the same ids and other payloads — the first-wins rule the holdback
already applies to envelope ids; ``log_id``, every block id and the
signature check are unaffected.  Floats (the single VRF ``value`` field)
round-trip exactly through JSON (``repr``-based encoding), so VRF
comparisons are bit-identical across the wire.
"""

from __future__ import annotations

from repro.chain.block import Block
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


class AnchorError(CodecError):
    """A delta log frame is anchored at a block the receiver does not hold."""


def encode_log(log: Log, height: int = 1) -> dict:
    """Serialize a log as its blocks above ``height`` (1: the full log)."""

    blocks = log.blocks
    return {
        "a": blocks[height - 1].block_id,
        "h": height,
        "b": [
            {
                "parent": block.parent_id,
                "proposer": block.proposer,
                "view": block.view,
                "txs": [[tx.tx_id, tx.payload, tx.submitted_at] for tx in block.transactions],
            }
            for block in blocks[height:]
        ],
    }


def anchor_height(log: Log, held: set[str]) -> int:
    """Height of the longest prefix of ``log`` whose tip id is in ``held``.

    ``held`` is a peer's acknowledged frontier, which always contains
    genesis; the walk is O(blocks above the anchor).
    """

    blocks = log.blocks
    height = len(blocks)
    while blocks[height - 1].block_id not in held:
        height -= 1
    return height


class LineageMemo:
    """One receiver's verified lineage: tip ``block_id`` -> the log ending there.

    Owned by one runtime, never shared: block ids hash transaction *ids*
    only, so equal-id logs of different runs (or of an equivocating
    sender) may carry different :class:`Transaction` objects — the reason
    ``chain/log.py`` refuses a global table.  :func:`decode_log` only
    reads it; the owner calls :meth:`admit` for a log it signed or once
    the envelope that carried it passed signature verification, so an
    unauthenticated flood can neither grow nor poison it.  A tip is
    never forgotten, so a peer's acknowledgement of it stays true for
    the life of the process.
    """

    __slots__ = ("_logs",)

    def __init__(self) -> None:
        root = Log.genesis()
        self._logs: dict[str, Log] = {root.tip.block_id: root}

    def __len__(self) -> int:
        return len(self._logs)

    def admit(self, log: Log) -> list[str]:
        """Hold ``log`` and each ancestor not yet held; return their tip ids.

        The first log held under a tip id stays: a later variant (same
        ids, other payloads) adds nothing.
        """

        logs = self._logs
        fresh = []
        node = log
        while node is not None and (tip := node.tip.block_id) not in logs:
            logs[tip] = node
            fresh.append(tip)
            node = node.parent
        return fresh


def decode_log(wire: dict, memo: LineageMemo | None = None) -> Log:
    """Rebuild a log by extending its anchor, checking every new parent link.

    Without a memo only genesis is held, so only a full log decodes.
    """

    held = (LineageMemo() if memo is None else memo)._logs
    try:
        log = held.get(wire["a"])
        if log is None:
            raise AnchorError("log anchored at a block this node does not hold")
        height = wire["h"]
        if type(height) is not int or height != len(log):
            raise CodecError(f"anchor height {height!r}, held log has {len(log)} blocks")
        for entry in wire["b"]:
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
    except CodecError:
        raise
    except (KeyError, TypeError, IndexError, ValueError) as exc:
        raise CodecError(f"malformed log on the wire: {exc}") from None


def _encode_payload(payload: Payload, height: int) -> dict:
    if isinstance(payload, LogMessage):
        log = encode_log(payload.log, height)
        return {"kind": "log", "ga_key": list(payload.ga_key), "log": log}
    if isinstance(payload, ProposalMessage):
        vrf = payload.vrf
        return {
            "kind": "proposal",
            "view": payload.view,
            "log": encode_log(payload.log, height),
            "vrf": {
                "validator_id": vrf.validator_id,
                "view": vrf.view,
                "value": vrf.value,
                "proof": vrf.proof,
            },
        }
    if isinstance(payload, VoteMessage):
        log = encode_log(payload.log, height)
        return {"kind": "vote", "ga_key": list(payload.ga_key), "log": log}
    if isinstance(payload, StructuralVote):
        return {
            "kind": "svote",
            "protocol": payload.protocol,
            "view": payload.view,
            "phase_index": payload.phase_index,
            "log": encode_log(payload.log, height),
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


def encode_envelope(envelope: Envelope, height: int = 1) -> dict:
    """One envelope as a JSON-safe dict (payload + signature).

    A carried log is anchored at its prefix of ``height`` blocks, which
    the receiver must hold; the default is the full log.
    """

    sig = envelope.signature
    return {
        "payload": _encode_payload(envelope.payload, height),
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
