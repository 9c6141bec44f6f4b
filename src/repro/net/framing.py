"""Length-prefixed JSON frame codec — the shared wire protocol.

One frame is a 4-byte big-endian unsigned length followed by that many
bytes of UTF-8 JSON encoding a single object.  The format is the
smallest thing that survives a real byte stream: TCP fragments and
coalesces writes arbitrarily, so the reader must reassemble frames from
partial reads, and a peer that dies mid-frame must surface as a typed
error rather than a hang or a half-parsed message.

The fleet fabric (``repro.fleet``) and the real-transport node runtime
(``repro.node``) both speak exactly these bytes, so a node and a fleet
runner can be debugged with the same tooling.

Failure taxonomy (all subclasses of :class:`WireError`):

* :class:`FrameTooLargeError` — the declared length exceeds
  :data:`MAX_FRAME_BYTES`.  Raised *before* reading the payload, so a
  corrupt or hostile length prefix cannot make the reader allocate or
  block on gigabytes.
* :class:`CorruptFrameError` — the payload is not valid UTF-8 JSON, or
  decodes to something other than an object.  Protocol messages are
  dicts by construction; anything else is stream corruption.
* :class:`TruncatedStreamError` — EOF in the middle of a frame (header
  or payload).  A clean EOF *between* frames is not an error:
  :func:`read_frame` returns ``None``, mirroring the pipe-EOF semantics
  the sweep executor uses for worker death.
* :class:`FrameTimeoutError` — the peer went silent past the configured
  per-read deadline while a frame was expected.  Connection supervisors
  use it to reclaim threads from stalled (but not yet closed) peers.

Both sides encode with the same canonical JSON settings as the result
store (sorted keys, no whitespace), so a result line framed by a runner
is byte-identical to one the coordinator would have produced locally.
"""

from __future__ import annotations

import json
import struct
from typing import Callable

#: Hard ceiling on one frame's payload.  Result records are a few
#: hundred bytes and lease batches a few KiB; 8 MiB is comfortably above
#: any legitimate message while keeping a corrupt length prefix from
#: turning into a multi-gigabyte read.
MAX_FRAME_BYTES = 8 * 1024 * 1024

_HEADER = struct.Struct(">I")

_UNSET = object()


class WireError(RuntimeError):
    """Base class for every wire-protocol failure."""


class FrameTooLargeError(WireError):
    """A frame header declared a payload above :data:`MAX_FRAME_BYTES`."""


class CorruptFrameError(WireError):
    """A frame payload was not a valid JSON object."""


class TruncatedStreamError(WireError):
    """The stream ended mid-frame (peer died or connection was cut)."""


class FrameTimeoutError(WireError):
    """No bytes arrived within the per-read deadline while reading a frame.

    Distinct from :class:`TruncatedStreamError`: the connection is still
    open, the peer is just not talking.  Supervisors treat it as a link
    failure (drop the connection, reconnect with backoff) rather than a
    peer death.
    """


def encode_frame(message: dict) -> bytes:
    """Serialize one protocol message to its on-wire bytes.

    Canonical JSON (sorted keys, compact separators) keeps the encoding
    deterministic — the same message always produces the same bytes,
    which is what lets result lines pass through the wire untouched.
    """

    payload = json.dumps(message, sort_keys=True, separators=(",", ":")).encode(
        "utf-8"
    )
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"refusing to send a {len(payload)}-byte frame "
            f"(limit {MAX_FRAME_BYTES})"
        )
    return _HEADER.pack(len(payload)) + payload


def _read_exact(read: Callable[[int], bytes], size: int) -> bytes | None:
    """Read exactly ``size`` bytes, looping over short reads.

    Returns ``None`` on EOF before the first byte (a clean close at a
    frame boundary is the caller's concern); raises
    :class:`TruncatedStreamError` on EOF after at least one byte.
    """

    chunks: list[bytes] = []
    got = 0
    while got < size:
        chunk = read(size - got)
        if not chunk:
            if not chunks:
                return None
            raise TruncatedStreamError(
                f"stream ended after {got} of {size} expected bytes"
            )
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def read_frame(read: Callable[[int], bytes]) -> dict | None:
    """Read one message from ``read`` (a ``recv``-like callable).

    ``read(n)`` must return *up to* ``n`` bytes, or ``b""`` at EOF —
    exactly the contract of ``socket.recv``.  Returns the decoded
    message dict, or ``None`` on a clean EOF at a frame boundary.

    Short reads are reassembled; a declared length above
    :data:`MAX_FRAME_BYTES` raises before any payload byte is read; EOF
    inside a frame raises :class:`TruncatedStreamError`; a payload that
    is not a JSON object raises :class:`CorruptFrameError`.
    """

    header = _read_exact(read, _HEADER.size)
    if header is None:
        return None
    (length,) = _HEADER.unpack(header)
    if length > MAX_FRAME_BYTES:
        raise FrameTooLargeError(
            f"frame declares {length} bytes (limit {MAX_FRAME_BYTES})"
        )
    payload = _read_exact(read, length) if length else b""
    if length and payload is None:
        raise TruncatedStreamError(
            f"stream ended before the {length}-byte payload"
        )
    try:
        message = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptFrameError(f"frame payload is not valid JSON: {exc}") from None
    if not isinstance(message, dict):
        raise CorruptFrameError(
            f"frame payload is {type(message).__name__}, expected an object"
        )
    return message


def send_frame_bytes(send: Callable[[bytes], int], frame: bytes) -> None:
    """Write ``frame`` fully through a ``send``-like callable.

    ``send(data)`` must return the number of bytes accepted (the
    contract of ``socket.send``).  Partial writes are resumed from the
    unsent tail and ``EINTR`` (``InterruptedError``) is retried, so one
    call always writes one whole frame or raises
    :class:`TruncatedStreamError`.  A ``send`` that reports zero bytes
    accepted is treated as a dead sink rather than spun on.
    """

    view = memoryview(frame)
    offset = 0
    while offset < len(view):
        try:
            sent = send(view[offset:])
        except InterruptedError:
            continue
        except OSError as exc:
            raise TruncatedStreamError(f"send failed: {exc}") from None
        if sent is None:
            # File-like .write() APIs may return None for "all written".
            return
        if sent <= 0:
            raise TruncatedStreamError("send accepted 0 bytes (peer gone?)")
        offset += sent


class FrameConnection:
    """A framed, blocking message channel over one TCP socket.

    Thin ownership wrapper: :meth:`send` writes one whole frame (an
    explicit partial-write/``EINTR``-safe loop over ``socket.send``),
    :meth:`recv` blocks for one whole message (or returns ``None`` on
    clean peer close), :meth:`close` is idempotent.  All
    :class:`WireError` taxonomy comes from the codec above; OS-level
    failures (``ConnectionResetError``, ``BrokenPipeError``) surface as
    :class:`TruncatedStreamError` so callers handle one family.

    ``read_timeout`` (seconds, or None for blocking) bounds how long
    :meth:`recv` waits for the *next chunk* of a frame: a peer that
    keeps trickling bytes keeps resetting the clock, a peer that goes
    fully silent raises :class:`FrameTimeoutError` — the supervisor's
    signal to drop a stalled link instead of parking a thread forever.
    """

    def __init__(self, sock, read_timeout: float | None = None) -> None:
        self._sock = sock
        self._closed = False
        self._read_timeout = read_timeout

    def send(self, message: dict) -> None:
        send_frame_bytes(self._sock.send, encode_frame(message))

    def recv(self, timeout: float | None = _UNSET) -> dict | None:  # type: ignore[assignment]
        """Read one message; ``timeout`` overrides the connection default."""

        effective = self._read_timeout if timeout is _UNSET else timeout
        try:
            if effective is not None:
                self._sock.settimeout(effective)
            return read_frame(self._sock.recv)
        except TimeoutError:
            raise FrameTimeoutError(
                f"no frame bytes within {effective}s"
            ) from None
        except OSError as exc:
            raise TruncatedStreamError(f"recv failed: {exc}") from None

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.close()
        except OSError:
            pass
