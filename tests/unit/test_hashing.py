"""Unit tests for repro.crypto.hashing."""

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.crypto.hashing import (
    _canonical,
    _flat_tuple_bytes,
    block_digest,
    digest_to_unit_float,
    stable_digest,
)

#: JSON scalars and lists a hostile wire can put where an int belongs.
ODD_SCALARS = (
    st.none()
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.text(max_size=3)
    | st.lists(st.integers(), max_size=2)
)


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest(("a", 1, 2.5)) == stable_digest(("a", 1, 2.5))

    def test_distinguishes_values(self):
        assert stable_digest("a") != stable_digest("b")

    def test_distinguishes_types(self):
        assert stable_digest(1) != stable_digest("1")
        assert stable_digest(True) != stable_digest(1)
        assert stable_digest(None) != stable_digest("")

    def test_distinguishes_structure(self):
        assert stable_digest(("ab",)) != stable_digest(("a", "b"))
        assert stable_digest((("a",), "b")) != stable_digest(("a", ("b",)))

    def test_nested_containers(self):
        value = ("x", [1, 2, (3, None)], b"bytes")
        assert stable_digest(value) == stable_digest(value)

    def test_list_and_tuple_equivalent(self):
        # Lists and tuples canonicalise identically (both are sequences).
        assert stable_digest([1, 2]) == stable_digest((1, 2))

    def test_string_length_prefix_prevents_ambiguity(self):
        assert stable_digest(("a", "bc")) != stable_digest(("ab", "c"))

    def test_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            stable_digest(object())

    def test_hex_output(self):
        digest = stable_digest("anything")
        assert len(digest) == 64
        int(digest, 16)  # parses as hex


#: Leaves the tuple fast path encodes (str, int) and the ones it hands back
#: to the generic encoder (bool, float, None, list).
_LEAVES = (
    st.text(max_size=4)
    | st.integers(-(10**30), 10**30)
    | st.booleans()
    | st.floats(allow_nan=False)
    | st.none()
    | st.lists(st.integers() | st.text(max_size=2), max_size=3)
)


class TestTupleFastPath:
    """``stable_digest`` of a tuple is the generic encoder's digest, whether
    the single-pass tuple encoder takes it or falls back."""

    @settings(max_examples=300, deadline=None)
    @given(
        obj=st.recursive(
            st.tuples(_LEAVES) | st.tuples(),
            lambda inner: st.lists(inner | _LEAVES, max_size=4).map(tuple),
            max_leaves=12,
        )
    )
    def test_matches_the_generic_encoder_on_nested_tuples(self, obj):
        try:
            want = hashlib.sha256(_canonical(obj)).hexdigest()
        except UnicodeEncodeError:  # lone surrogate: neither encoder accepts it
            with pytest.raises(UnicodeEncodeError):
                stable_digest(obj)
            return
        assert stable_digest(obj) == want

    def test_message_digests_take_the_fast_path(self):
        obj = ("LOG", ("ga", 3, ("sub", -1)), "ab" * 32)
        assert _flat_tuple_bytes(obj) == _canonical(obj)

    @pytest.mark.parametrize(
        "obj",
        [("a", (1, True)), ((None,),), ("a", ((2.5,),)), ((), [1]), ((b"y",),)],
    )
    def test_any_other_leaf_in_a_nested_tuple_falls_back(self, obj):
        assert _flat_tuple_bytes(obj) is None
        assert stable_digest(obj) == hashlib.sha256(_canonical(obj)).hexdigest()


class TestDigestToUnitFloat:
    def test_in_unit_interval(self):
        for i in range(50):
            value = digest_to_unit_float(stable_digest(("f", i)))
            assert 0.0 <= value < 1.0

    def test_deterministic(self):
        digest = stable_digest("seed")
        assert digest_to_unit_float(digest) == digest_to_unit_float(digest)

    def test_spread(self):
        values = [digest_to_unit_float(stable_digest(("s", i))) for i in range(200)]
        assert len(set(values)) == 200
        assert min(values) < 0.2 and max(values) > 0.8


class TestBlockDigest:
    """The one-pass block-id encoder is ``stable_digest`` of the same tuple."""

    @staticmethod
    def reference(parent_id, tx_ids, proposer, view) -> str:
        encoded = _canonical(("block", parent_id, tuple(tx_ids), proposer, view))
        return hashlib.sha256(encoded).hexdigest()

    def test_the_encoding_is_the_documented_flat_form(self):
        assert _canonical(("block", "ab", (1, 22), 3, -1)) == b"T5(S5:blockS2:abT2(I1I22)I3I-1)"

    @settings(max_examples=300, deadline=None)
    @given(
        parent_id=st.text(max_size=70),
        tx_ids=st.lists(st.integers(), max_size=5)
        | st.lists(st.integers(-(10**40), 10**40), min_size=1, max_size=40),
        proposer=st.integers(),
        view=st.integers(-1, 10**30),
    )
    def test_matches_the_generic_encoder_on_real_block_shapes(
        self, parent_id, tx_ids, proposer, view
    ):
        try:
            want = self.reference(parent_id, tx_ids, proposer, view)
        except UnicodeEncodeError:  # lone surrogate: neither encoder accepts it
            with pytest.raises(UnicodeEncodeError):
                block_digest(parent_id, tx_ids, proposer, view)
            return
        assert block_digest(parent_id, tx_ids, proposer, view) == want

    @settings(max_examples=200, deadline=None)
    @given(
        fields=st.tuples(
            st.text(max_size=4) | ODD_SCALARS,
            st.lists(st.integers() | ODD_SCALARS, max_size=3),
            st.integers() | ODD_SCALARS,
            st.integers() | ODD_SCALARS,
        )
    )
    def test_any_other_field_type_takes_the_generic_encoder(self, fields):
        assert block_digest(*fields) == self.reference(*fields)

    def test_bool_is_not_an_int(self):
        assert block_digest("p", [True], 1, 0) != block_digest("p", [1], 1, 0)
        assert block_digest("p", [], True, 0) != block_digest("p", [], 1, 0)
        assert block_digest("p", [], 1, False) != block_digest("p", [], 1, 0)

    def test_uncanonicalisable_fields_still_raise(self):
        with pytest.raises(TypeError):
            block_digest("p", [], {"proposer": 1}, 0)

    def test_block_ids_are_unchanged(self):
        from repro.chain.block import Block
        from repro.chain.transactions import Transaction

        block = Block(
            parent_id="ab" * 32,
            transactions=(Transaction(7, "x", 1), Transaction(-3, "y", 2)),
            proposer=2,
            view=5,
        )
        assert block.block_id == stable_digest(("block", "ab" * 32, (7, -3), 2, 5))
