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
    CodecError,
    LineageMemo,
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
        wire["payload"]["log"][1]["parent"] = "ff" * 32
        with pytest.raises(CodecError):
            decode_envelope(wire)

    def test_non_dict_input_is_a_codec_error(self):
        with pytest.raises(CodecError):
            decode_envelope({"payload": "nope", "sig": {}})


class TestLineageMemo:
    """Decode against a memo: same logs, built from what is already held."""

    @staticmethod
    def wire_log(log: Log) -> list:
        return json.loads(json.dumps(encode_log(log)))

    def test_known_prefix_is_shared_not_rebuilt(self):
        memo = LineageMemo()
        base = decode_log(self.wire_log(sample_log()), memo)
        memo.admit(base)
        longer = sample_log().append_block((), proposer=3, view=2)
        decoded = decode_log(self.wire_log(longer), memo)
        assert decoded.log_id == longer.log_id
        assert decoded.parent is base
        assert decoded.blocks[:-1] == base.blocks
        assert all(a is b for a, b in zip(decoded.blocks, base.blocks))

    def test_decode_never_writes_the_memo(self):
        memo = LineageMemo()
        decode_log(self.wire_log(sample_log()), memo)
        assert len(memo) == 1  # genesis only

    def test_admit_holds_every_new_ancestor(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        assert len(memo) == len(sample_log())

    def test_prefix_that_differs_from_the_held_log_is_rebuilt_from_the_wire(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        wire[0]["txs"][0][1] = "another payload"  # same tx_id: every block id survives
        decoded = decode_log(wire, memo)
        assert decoded.log_id == decode_log(wire).log_id
        assert decoded.blocks[1].transactions[0].payload == "another payload"

    def test_parent_id_of_a_held_log_at_the_wrong_height_is_no_anchor(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        with pytest.raises(CodecError):
            decode_log(wire[1:], memo)  # entry 0 now names the block at height 1
        with pytest.raises(CodecError):
            decode_log(wire[1:])

    def test_equal_but_differently_typed_field_is_not_a_match(self):
        memo = LineageMemo()
        memo.admit(decode_log(self.wire_log(sample_log()), memo))
        wire = self.wire_log(sample_log().append_block((), proposer=3, view=2))
        wire[0]["proposer"] = 2.0  # == 2, but hashes as a float: block 1's id moves
        with pytest.raises(CodecError):
            decode_log(wire, memo)

    def test_oddly_typed_log_decodes_but_is_not_held(self):
        wire = self.wire_log(sample_log())
        wire[-1]["view"] = 1.0  # the tip may carry anything canonicalisable
        memo = LineageMemo()
        decoded = decode_log(wire, memo)
        assert decoded.log_id == decode_log(wire).log_id
        memo.admit(decoded)
        assert len(memo) == len(sample_log()) - 1  # its plainly-typed ancestors only

    def test_memos_are_independent(self):
        one, other = LineageMemo(), LineageMemo()
        one.admit(decode_log(self.wire_log(sample_log()), one))
        assert len(other) == 1
