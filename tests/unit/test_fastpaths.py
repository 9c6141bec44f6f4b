"""Unit tests for the hot-path caches (hashing, state snapshots, event core)."""

import pytest

from repro.core.state import HandleOutcome, LogView
from repro.crypto.hashing import (
    _canonical,
    _flat_tuple_bytes,
    canonical_str,
    finish_tagged_strings,
    stable_digest,
    tagged_strings_hasher,
)
from repro.crypto.signatures import KeyRegistry
from repro.net.messages import Envelope, LogMessage
from repro.sim.simulator import EventPriority, Simulator
from tests.conftest import chain_of

REGISTRY = KeyRegistry(8, seed=3)


def log_envelope(vid, log, key=("k", 0)):
    payload = LogMessage(ga_key=key, log=log)
    return Envelope(
        payload=payload, signature=REGISTRY.key_for(vid).sign(payload.digest())
    )


class TestHashingFastPath:
    @pytest.mark.parametrize(
        "obj",
        [
            (),
            ("a",),
            ("sig", "secret" * 10, "digest" * 10),
            ("env", "d" * 64, 3),
            (0, -17, 2**80, "mixed", ""),
            ("unicode", "héllo wörld"),
        ],
    )
    def test_flat_tuple_bytes_matches_canonical(self, obj):
        assert _flat_tuple_bytes(obj) == _canonical(obj)

    @pytest.mark.parametrize(
        "obj",
        [
            ("bool", True),  # bools canonicalise as B1/B0, not I1/I0
            ("float", 1.5),
            ("nested", ("a", "b")),
            ("none", None),
            ("bytes", b"raw"),
        ],
    )
    def test_non_flat_tuples_fall_back(self, obj):
        assert _flat_tuple_bytes(obj) is None
        # ... and stable_digest still hashes them via the general encoder.
        import hashlib

        assert stable_digest(obj) == hashlib.sha256(_canonical(obj)).hexdigest()

    def test_tagged_strings_hasher_matches_generic(self):
        items = ("b" * 64, "c" * 64, "d" * 64)
        primed = tagged_strings_hasher("log", 3)
        primed.update(b"".join(canonical_str(s) for s in items[:-1]))
        # One primed hasher serves every sequence sharing the fed prefix.
        for last in ("d" * 64, "e" * 64):
            assert finish_tagged_strings(primed.copy(), last) == stable_digest(
                ("log", items[:-1] + (last,))
            )

    def test_bool_and_int_digests_stay_distinct(self):
        assert stable_digest((1,)) != stable_digest((True,))
        assert stable_digest((0,)) != stable_digest((False,))


class TestPairsSnapshotCache:
    def test_snapshot_reused_until_mutation(self):
        view = LogView()
        view.handle(log_envelope(0, chain_of(2)))
        first = view.pairs()
        assert view.pairs() is first  # cached object reused
        view.handle(log_envelope(1, chain_of(2)))
        second = view.pairs()
        assert second is not first
        assert dict(second)[1] == chain_of(2)

    def test_duplicate_does_not_invalidate(self):
        view = LogView()
        envelope = log_envelope(0, chain_of(2))
        view.handle(envelope)
        snapshot = view.pairs()
        assert view.handle(envelope) is HandleOutcome.DUPLICATE
        assert view.pairs() is snapshot

    def test_equivocation_invalidates(self):
        view = LogView()
        view.handle(log_envelope(0, chain_of(2, tag=1)))
        snapshot = view.pairs()
        outcome = view.handle(log_envelope(0, chain_of(2, tag=2)))
        assert outcome is HandleOutcome.EQUIVOCATION
        assert view.pairs() == frozenset()
        assert view.pairs() is not snapshot


class TestVerifyTagCache:
    def test_repeated_verifies_hit_cache(self):
        registry = KeyRegistry(2, seed=0)
        payload = LogMessage(ga_key=("k", 0), log=chain_of(1))
        digest = payload.digest()
        signature = registry.key_for(0).sign(digest)
        for _ in range(3):
            assert registry.verify(signature, digest)
        # A forged tag over cached content is still rejected.
        from repro.crypto.signatures import Signature

        forged = Signature(signer=0, payload_digest=digest, tag="f" * 64)
        assert not registry.verify(forged, digest)


class TestLeanEventCore:
    def test_pending_count_is_live(self):
        sim = Simulator()
        for t in range(5):
            sim.schedule_callback(t, EventPriority.TIMER, lambda: None)
        assert sim.pending_count() == 5
        sim.run_until(2)
        assert sim.pending_count() == 2
        sim.run_to_exhaustion()
        assert sim.pending_count() == 0

    def test_heap_order_never_compares_handles(self):
        # Same (time, priority) events rely on seq alone for ordering.
        sim = Simulator()
        order = []
        for i in range(64):
            sim.schedule_callback(7, EventPriority.DELIVERY, lambda i=i: order.append(i))
        sim.run_until(7)
        assert order == list(range(64))
