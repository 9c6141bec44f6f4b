"""Envelope codec units: content identity survives the wire.

Every digest in the system is derived from serialized fields, so the
codec's contract is strong: a decoded envelope re-derives the *same*
``envelope_id``, its signature still verifies, and a forged or corrupt
frame fails typed — never half-decodes.
"""

from __future__ import annotations

import json

import pytest

from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.crypto.signatures import KeyRegistry, SignatureError
from repro.crypto.vrf import VRF
from repro.net.messages import (
    Envelope,
    LogMessage,
    ProposalMessage,
    RecoveryMessage,
    StructuralVote,
    VoteMessage,
)
from repro.node.codec import (
    AnchorError,
    CodecError,
    LineageMemo,
    anchor_height,
    decode_envelope,
    decode_log,
    encode_envelope,
    encode_log,
)


REGISTRY = KeyRegistry(4, seed=0)


def sign(payload, signer: int = 1) -> Envelope:
    return Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )


def sample_log() -> Log:
    log = Log.genesis()
    log = log.append_block(
        (Transaction(tx_id=1, payload="a", submitted_at=0),), proposer=2, view=0
    )
    return log.append_block(
        (Transaction(tx_id=2, payload="b", submitted_at=3),), proposer=1, view=1
    )


def roundtrip(envelope: Envelope) -> Envelope:
    # Through actual JSON text, as the wire does — not just dict identity.
    wire = json.loads(json.dumps(encode_envelope(envelope), sort_keys=True))
    return decode_envelope(wire)


PAYLOADS = [
    LogMessage(ga_key=("tobsvd", 3), log=sample_log()),
    ProposalMessage(view=2, log=sample_log(), vrf=VRF(seed=0).evaluate(1, 2)),
    VoteMessage(ga_key=("ga2", 0), log=sample_log()),
    StructuralVote(protocol="mmr2", view=1, phase_index=2, log=sample_log()),
    RecoveryMessage(requested_at=17),
]


class TestRoundtrip:
    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_payload_roundtrips_with_equal_content(self, payload):
        original = sign(payload)
        decoded = roundtrip(original)
        assert decoded.payload == original.payload
        assert decoded.payload.digest() == original.payload.digest()

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_envelope_id_is_preserved(self, payload):
        original = sign(payload)
        assert roundtrip(original).envelope_id == original.envelope_id

    @pytest.mark.parametrize("payload", PAYLOADS, ids=lambda p: type(p).__name__)
    def test_signature_still_verifies(self, payload):
        decoded = roundtrip(sign(payload))
        REGISTRY.require_valid(decoded.signature, decoded.payload.digest())

    def test_vrf_value_is_bit_exact(self):
        vrf = VRF(seed=9).evaluate(3, 5)
        original = sign(ProposalMessage(view=5, log=Log.genesis(), vrf=vrf), signer=3)
        assert roundtrip(original).payload.vrf.value == vrf.value

    def test_log_parent_links_survive(self):
        decoded = roundtrip(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())))
        log = decoded.payload.log
        assert len(log) == 3
        assert log.log_id == sample_log().log_id


class TestRejection:
    def test_tampered_payload_fails_signature_check(self):
        wire = encode_envelope(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())))
        wire["payload"]["ga_key"] = ["tobsvd", 1]  # re-derives a new digest
        decoded = decode_envelope(wire)
        with pytest.raises(SignatureError):
            REGISTRY.require_valid(decoded.signature, decoded.payload.digest())

    def test_unknown_kind_is_a_codec_error(self):
        wire = encode_envelope(sign(RecoveryMessage(requested_at=1)))
        wire["payload"]["kind"] = "warp"
        with pytest.raises(CodecError):
            decode_envelope(wire)

    def test_missing_fields_are_a_codec_error(self):
        wire = encode_envelope(sign(RecoveryMessage(requested_at=1)))
        del wire["sig"]
        with pytest.raises(CodecError):
            decode_envelope(wire)

    def test_broken_parent_link_is_a_codec_error(self):
        wire = encode_envelope(sign(LogMessage(ga_key=("tobsvd", 0), log=sample_log())))
        wire["payload"]["log"]["b"][1]["parent"] = "ff" * 32
        with pytest.raises(CodecError):
            decode_envelope(wire)

    def test_non_dict_input_is_a_codec_error(self):
        with pytest.raises(CodecError):
            decode_envelope({"payload": "nope", "sig": {}})


class TestLineageMemo:
    """Decode against a memo: the blocks above a held anchor, extended in place."""

    @staticmethod
    def wire_log(log: Log, height: int = 1) -> dict:
        return json.loads(json.dumps(encode_log(log, height)))

    def test_known_prefix_is_shared_not_rebuilt(self):
        memo = LineageMemo()
        base = decode_log(self.wire_log(sample_log()), memo)
        memo.admit(base)
        longer = sample_log().append_block((), proposer=3, view=2)
        wire = self.wire_log(longer, height=len(base))
        assert len(wire["b"]) == 1  # only the block the receiver lacks
        decoded = decode_log(wire, memo)
        assert decoded.log_id == longer.log_id
        assert decoded.parent is base
        assert all(a is b for a, b in zip(decoded.blocks, base.blocks))

    def test_decode_never_writes_the_memo(self):
        memo = LineageMemo()
        decode_log(self.wire_log(sample_log()), memo)
        assert len(memo) == 1  # genesis only

    def test_admit_holds_every_new_ancestor(self):
        memo = LineageMemo()
        fresh = memo.admit(decode_log(self.wire_log(sample_log()), memo))
        assert len(memo) == len(sample_log())
        assert sorted(fresh) == sorted(b.block_id for b in sample_log().blocks[1:])
        longer = sample_log().append_block((), proposer=3, view=2)
        assert memo.admit(longer) == [longer.tip.block_id]  # only what is new
        assert memo.admit(longer) == []

    def test_prefix_that_differs_from_the_held_log_is_rebuilt_from_the_wire(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        wire["b"][0]["txs"][0][1] = "another payload"  # same tx_id: every block id survives
        decoded = decode_log(wire, memo)  # a full log: nothing is taken from the memo
        assert decoded.log_id == decode_log(wire).log_id
        assert decoded.blocks[1].transactions[0].payload == "another payload"

    def test_held_variant_stands_in_for_the_senders(self):
        memo = LineageMemo()
        held = decode_log(self.wire_log(sample_log()), memo)
        memo.admit(held)
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        wire["b"][0]["txs"][0][1] = "other"  # same tx_id: a Byzantine payload variant
        longer = decode_log(wire)
        decoded = decode_log(self.wire_log(longer, height=3), memo)
        assert decoded.log_id == longer.log_id  # ids name content identity
        assert decoded.blocks[1].transactions[0].payload == "a"  # the held variant

    def test_parent_id_of_a_held_log_at_the_wrong_height_is_no_anchor(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2), height=3)
        for height in (2, 4, True, 3.0):
            wire["h"] = height
            with pytest.raises(CodecError) as caught:
                decode_log(wire, memo)
            assert type(caught.value) is CodecError

    def test_anchor_the_receiver_does_not_hold_is_an_anchor_error(self):
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2), height=3)
        with pytest.raises(AnchorError):
            decode_log(wire)  # a memo-less decode holds genesis only
        wire["a"] = "ff" * 32
        memo = LineageMemo()
        memo.admit(sample_log())
        with pytest.raises(AnchorError):
            decode_log(wire, memo)
        wire["a"] = ["unhashable"]
        with pytest.raises(CodecError) as caught:
            decode_log(wire, memo)
        assert type(caught.value) is CodecError

    def test_equal_but_differently_typed_field_is_not_a_match(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        wire["b"][0]["proposer"] = 2.0  # == 2, but hashes as a float: block 1's id moves
        with pytest.raises(CodecError):
            decode_log(wire, memo)

    def test_oddly_typed_log_is_held_under_its_own_ids(self):
        wire = self.wire_log(sample_log())
        wire["b"][-1]["view"] = 1.0  # the tip may carry anything canonicalisable
        memo = LineageMemo()
        decoded = decode_log(wire, memo)
        assert decoded.log_id == decode_log(wire).log_id != sample_log().log_id
        memo.admit(decoded)
        assert len(memo) == len(sample_log())
        assert decode_log(encode_log(decoded, height=3), memo) is decoded

    def test_memos_are_independent(self):
        one, other = LineageMemo(), LineageMemo()
        one.admit(decode_log(self.wire_log(sample_log()), one))
        assert len(other) == 1


class TestAnchorHeight:
    def test_longest_acknowledged_prefix(self):
        log = sample_log().append_block((), proposer=3, view=2)
        ids = [block.block_id for block in log.blocks]
        assert anchor_height(log, {ids[0]}) == 1
        assert anchor_height(log, {ids[0], ids[1]}) == 2
        assert anchor_height(log, set(ids)) == len(log)
        assert anchor_height(log, {ids[0], ids[2], "ff" * 32}) == 3
