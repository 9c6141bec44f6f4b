"""Wire-codec units: framing survives everything a TCP stream does.

The codec's contract: short reads reassemble, oversized and corrupt
frames raise typed errors before any damage, and a peer dying mid-frame
surfaces as :class:`TruncatedStreamError` — the socket version of the
pipe-EOF semantics the sweep executor uses for worker death.  Nothing
here may hang: every failure is an exception or a ``None``.
"""

from __future__ import annotations

import json
import struct

import pytest

from repro.net.framing import (
    MAX_FRAME_BYTES,
    CorruptFrameError,
    FrameTooLargeError,
    TruncatedStreamError,
    WireError,
    encode_frame,
    read_frame,
)


def reader_over(data: bytes, chunk: int = 1 << 30):
    """A ``recv``-like callable serving ``data`` in ``chunk``-byte reads."""

    view = memoryview(data)
    offset = 0

    def read(n: int) -> bytes:
        nonlocal offset
        take = min(n, chunk, len(view) - offset)
        piece = bytes(view[offset : offset + take])
        offset += take
        return piece

    return read


class TestRoundtrip:
    def test_encode_decode_roundtrip(self):
        message = {"type": "result", "cell_id": "ab" * 8, "line": "x" * 300}
        assert read_frame(reader_over(encode_frame(message))) == message

    def test_encoding_is_canonical(self):
        # Same canonical JSON settings as the result store: key order in
        # the source dict must not change the bytes on the wire.
        a = encode_frame({"b": 1, "a": 2})
        b = encode_frame({"a": 2, "b": 1})
        assert a == b

    def test_empty_object_frame(self):
        assert read_frame(reader_over(encode_frame({}))) == {}

    def test_back_to_back_frames(self):
        data = encode_frame({"n": 1}) + encode_frame({"n": 2})
        read = reader_over(data)
        assert read_frame(read) == {"n": 1}
        assert read_frame(read) == {"n": 2}
        assert read_frame(read) is None  # clean EOF at the boundary

    def test_unicode_payload(self):
        message = {"line": "Δ-cells: ∀x.∃y", "id": "ß"}
        assert read_frame(reader_over(encode_frame(message))) == message


class TestShortReads:
    def test_one_byte_reads_reassemble(self):
        message = {"type": "cells", "cells": [{"n": i} for i in range(20)]}
        assert read_frame(reader_over(encode_frame(message), chunk=1)) == message

    def test_odd_chunk_sizes_reassemble(self):
        message = {"payload": "y" * 1013}
        for chunk in (2, 3, 7, 64):
            assert read_frame(reader_over(encode_frame(message), chunk=chunk)) == message


class TestRejection:
    def test_oversized_declared_length_rejected_before_payload(self):
        # Serve only the header: the reader must raise from the length
        # alone, without ever asking for (or allocating) payload bytes.
        header = struct.pack(">I", MAX_FRAME_BYTES + 1)
        read = reader_over(header)
        with pytest.raises(FrameTooLargeError):
            read_frame(read)
        assert read(1) == b""  # nothing consumed beyond the header

    def test_oversized_message_refused_at_encode(self):
        with pytest.raises(FrameTooLargeError):
            encode_frame({"line": "x" * (MAX_FRAME_BYTES + 1)})

    def test_corrupt_payload_not_json(self):
        payload = b"this is not json"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(CorruptFrameError):
            read_frame(reader_over(frame))

    def test_corrupt_payload_not_utf8(self):
        payload = b"\xff\xfe{}"
        frame = struct.pack(">I", len(payload)) + payload
        with pytest.raises(CorruptFrameError):
            read_frame(reader_over(frame))

    def test_non_object_payload_rejected(self):
        for value in ([1, 2, 3], "string", 42, None):
            payload = json.dumps(value).encode()
            frame = struct.pack(">I", len(payload)) + payload
            with pytest.raises(CorruptFrameError):
                read_frame(reader_over(frame))

    def test_errors_are_one_family(self):
        for exc in (FrameTooLargeError, CorruptFrameError, TruncatedStreamError):
            assert issubclass(exc, WireError)


class TestTruncation:
    def test_clean_eof_returns_none(self):
        assert read_frame(reader_over(b"")) is None

    def test_eof_inside_header(self):
        frame = encode_frame({"k": "v"})
        for cut in (1, 2, 3):
            with pytest.raises(TruncatedStreamError):
                read_frame(reader_over(frame[:cut]))

    def test_eof_inside_payload(self):
        frame = encode_frame({"line": "z" * 100})
        for cut in (5, len(frame) // 2, len(frame) - 1):
            with pytest.raises(TruncatedStreamError):
                read_frame(reader_over(frame[:cut]))

    def test_eof_after_full_header_no_payload(self):
        frame = encode_frame({"k": "v"})
        with pytest.raises(TruncatedStreamError):
            read_frame(reader_over(frame[:4]))

    def test_truncation_with_one_byte_reads(self):
        frame = encode_frame({"line": "q" * 64})
        with pytest.raises(TruncatedStreamError):
            read_frame(reader_over(frame[:-3], chunk=1))
