"""Deterministic content hashing for simulation objects.

Every identifier in the repository (block ids, message ids, signature tags,
VRF values) derives from :func:`stable_digest`, which canonicalises nested
Python structures before hashing so that identical content always hashes
identically across runs and platforms.
"""

from __future__ import annotations

import hashlib
from typing import Any


def _canonical(obj: Any) -> bytes:
    """Render ``obj`` into unambiguous bytes.

    Supports the closed set of types used by the simulator: ``None``,
    booleans, integers, floats, strings, bytes, and (nested) tuples/lists.
    Dataclasses used in hashed positions expose a stable identifier instead
    of being passed here directly.
    """

    if obj is None:
        return b"N"
    if isinstance(obj, bool):
        return b"B1" if obj else b"B0"
    if isinstance(obj, int):
        return b"I" + str(obj).encode()
    if isinstance(obj, float):
        return b"F" + repr(obj).encode()
    if isinstance(obj, str):
        data = obj.encode()
        return b"S" + str(len(data)).encode() + b":" + data
    if isinstance(obj, bytes):
        return b"Y" + str(len(obj)).encode() + b":" + obj
    if isinstance(obj, (tuple, list)):
        inner = b"".join(_canonical(item) for item in obj)
        return b"T" + str(len(obj)).encode() + b"(" + inner + b")"
    raise TypeError(f"stable_digest cannot canonicalise {type(obj).__name__}")


def _flat_tuple_bytes(obj: tuple) -> bytes | None:
    """Canonical bytes for a tuple of str/int/tuple items, or None.

    Single-pass encoder for the overwhelmingly common shape of hashed
    content (signature tags, message digests such as ``("LOG", ga_key,
    log_id)``, block/log ids), recursing into nested tuples.  Produces
    byte-identical output to :func:`_canonical`; anything else — bools,
    floats, None, lists, bytes — falls back to the general encoder.
    """

    parts = [b"T%d(" % len(obj)]
    append = parts.append
    for item in obj:
        kind = type(item)
        if kind is str:
            data = item.encode()
            append(b"S%d:%s" % (len(data), data))
        elif kind is int:  # bool is excluded: type(True) is bool, not int
            append(b"I%d" % item)
        elif kind is tuple:
            data = _flat_tuple_bytes(item)
            if data is None:
                return None
            append(data)
        else:
            return None
    append(b")")
    return b"".join(parts)


def stable_digest(obj: Any) -> str:
    """Return a hex digest of ``obj``'s canonical encoding."""

    if type(obj) is tuple:
        data = _flat_tuple_bytes(obj)
        if data is not None:
            return hashlib.sha256(data).hexdigest()
    return hashlib.sha256(_canonical(obj)).hexdigest()


def block_digest(parent_id: Any, tx_ids: list, proposer: Any, view: Any) -> str:
    """``stable_digest(("block", parent_id, tuple(tx_ids), proposer, view))``.

    One formatting pass for the only shape real blocks have — a ``str``
    parent and ``int`` everything else — with no tuple built and no
    per-item type dispatch.  Any other field type (``bool`` included)
    takes the generic call, so the digest is byte-identical in every case.
    """

    count = len(tx_ids)
    if (
        type(parent_id) is str
        and type(proposer) is int
        and type(view) is int
        and list(map(type, tx_ids)).count(int) == count
    ):
        parent = parent_id.encode()
        data = b"T5(S5:blockS%d:%sT%d(%s)I%dI%d)" % (
            len(parent), parent, count, b"I%d" * count % tuple(tx_ids), proposer, view,
        )
        return hashlib.sha256(data).hexdigest()
    return stable_digest(("block", parent_id, tuple(tx_ids), proposer, view))


def canonical_str(s: str) -> bytes:
    """The canonical encoding of one string (for incremental hashers)."""

    data = s.encode()
    return b"S%d:%s" % (len(data), data)


def tagged_strings_hasher(tag: str, count: int) -> "hashlib._Hash":
    """A hasher primed with the head of ``stable_digest((tag, (s_1, ..., s_count)))``.

    Feed it ``canonical_str(s_i)`` for the first ``count - 1`` strings (in
    any number of ``update`` calls) and close it with
    :func:`finish_tagged_strings`.  The count sits *before* the sequence in
    the canonical encoding, so a primed hasher serves every sequence of
    that length sharing the fed prefix (``.copy()`` per sequence) but not a
    longer one; the digest is byte-identical to the generic path.
    """

    return hashlib.sha256(b"T2(" + canonical_str(tag) + b"T%d(" % count)


def finish_tagged_strings(hasher: "hashlib._Hash", last: str) -> str:
    """Feed the final string, close both tuples and return the hex digest."""

    data = last.encode()
    hasher.update(b"S%d:%s))" % (len(data), data))
    return hasher.hexdigest()


def digest_to_unit_float(digest: str) -> float:
    """Map a hex digest to a float uniformly distributed in [0, 1).

    Used by the VRF simulation: the first 13 hex characters give 52 bits of
    mantissa, which is exactly the precision of a Python float in [0, 1).
    """

    return int(digest[:13], 16) / float(1 << 52)
