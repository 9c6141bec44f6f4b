"""Unit tests for the run-scoped intern/lineage layer (repro.runctx)."""

from repro.chain.log import Log
from repro.crypto.signatures import KeyRegistry
from repro.net.messages import Envelope, LogMessage
from repro.runctx import LineageStore, RunContext
from tests.conftest import chain_of, fork_of

REGISTRY = KeyRegistry(4, seed=11)


def envelope_for(log, signer=0, ga_key=("t", 0)):
    payload = LogMessage(ga_key=ga_key, log=log)
    return Envelope(
        payload=payload, signature=REGISTRY.key_for(signer).sign(payload.digest())
    )


class TestEnvelopeInterning:
    def test_same_content_same_token(self):
        ctx = RunContext()
        log = chain_of(2)
        a, b = envelope_for(log), envelope_for(log)
        assert a is not b
        assert ctx.envelope_token(a) == ctx.envelope_token(b)

    def test_different_signer_or_payload_different_token(self):
        ctx = RunContext()
        log = chain_of(2)
        tokens = {
            ctx.envelope_token(envelope_for(log, signer=0)),
            ctx.envelope_token(envelope_for(log, signer=1)),
            ctx.envelope_token(envelope_for(fork_of(log, 1), signer=0)),
        }
        assert len(tokens) == 3

    def test_tokens_are_dense_small_ints(self):
        ctx = RunContext()
        logs = [chain_of(i + 1, tag=i) for i in range(5)]
        tokens = [ctx.envelope_token(envelope_for(log)) for log in logs]
        assert tokens == list(range(5))

    def test_pin_does_not_leak_across_contexts(self):
        # The PR 1 intern-table lesson: an object reused by two runs must
        # be re-interned per run, never carry a stale token across.
        ctx_a, ctx_b = RunContext(), RunContext()
        log = chain_of(2)
        filler = envelope_for(log, signer=1)
        envelope = envelope_for(log, signer=0)
        assert ctx_a.envelope_token(envelope) == 0
        ctx_b.envelope_token(filler)  # token 0 taken by different content
        assert ctx_b.envelope_token(envelope) == 1
        # Re-reading from the first context still yields its own token.
        assert ctx_a.envelope_token(envelope) == 0

    def test_log_tokens_follow_log_id(self):
        ctx = RunContext()
        log = chain_of(3)
        clone = Log(log.blocks)  # distinct instance, same content
        assert ctx.log_token(log) == ctx.log_token(clone)
        assert ctx.log_token(log) != ctx.log_token(log.prefix(2))

    def test_log_pin_rescoped_per_context(self):
        ctx_a, ctx_b = RunContext(), RunContext()
        log = chain_of(2)
        other = chain_of(3, tag=9)
        assert ctx_a.log_token(log) == 0
        ctx_b.log_token(other)
        assert ctx_b.log_token(log) == 1
        assert ctx_a.log_token(log) == 0


class TestLineageStore:
    def test_note_keeps_first_instance_per_tip(self):
        store = LineageStore()
        log = chain_of(3)
        clone = Log(log.blocks)
        assert store.note(log) is log
        assert store.note(clone) is log
        assert len(store) == 1

    def test_run_context_facade(self):
        ctx = RunContext()
        log = chain_of(3)
        assert ctx.note_log(log) is log
        assert ctx.note_log(Log(log.blocks)) is log
