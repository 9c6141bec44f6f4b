"""Transport abstraction for the real-node runtime.

The in-sim :class:`~repro.net.network.Network` delivers envelope
*objects* inside one process; the node runtime (:mod:`repro.node`)
instead speaks *frames* between processes.  A transport is the message
plane under that runtime: it moves JSON dicts between named nodes and
says nothing about protocol semantics — ordering per link is FIFO,
delivery is at-least-once (the holdback layer upstairs dedups), and
liveness is best-effort (the failure detector upstairs suspects).

Two backends:

* :class:`MemoryTransport` — an in-process hub with per-node FIFO
  inboxes.  Single-threaded and fully deterministic; the fast
  equivalence tests and the loopback benchmark drive ``n`` runtimes
  round-robin over one hub.
* :class:`TcpTransport` — real sockets between OS processes using the
  shared length-prefixed canonical-JSON framing
  (:mod:`repro.net.framing`).  Robustness lives here: one supervisor
  thread per outbound link with deterministic-jitter exponential
  reconnect backoff (the PR 6 ``retry_backoff`` scheme, keyed by link),
  heartbeat emission on idle links, bounded send queues with drop-oldest
  backpressure, and per-frame read deadlines so a stalled peer reclaims
  its reader thread instead of parking it forever.

A reconnecting link resends its possibly-delivered head frame — that is
the at-least-once contract, made idempotent by the holdback layer's
envelope-id dedup.
"""

from __future__ import annotations

import queue
import socket
import threading
import time
from collections import deque
from typing import Callable, Iterable, Protocol

from repro.faults import retry_backoff
from repro.net.framing import FrameConnection, WireError

#: Default ceiling on one link's send queue.  Lockstep pacing bounds
#: in-flight traffic to a few frames per peer per tick, so this is never
#: reached in a healthy deployment; it exists so a long-stalled link
#: degrades by shedding its oldest frames instead of growing without
#: bound (the resync path recovers whatever a rejoining peer missed).
DEFAULT_QUEUE_CAP = 4096


def reconnect_delay(
    node_id: int, peer_id: int, attempt: int, base: float, cap: float
) -> float:
    """Deterministic backoff before reconnect ``attempt`` on one link.

    Exponential with keyed-hash jitter, mirroring the sweep's
    ``retry_backoff``: the jitter factor is a pure function of the link
    identity and the attempt number, so reconnect schedules are part of
    the deterministic record — two runs of the same deployment probe a
    dead peer at identical offsets.
    """

    return min(cap, retry_backoff(f"node-link|{node_id}|{peer_id}", attempt, base))


def _count(counts: dict[str, int], exc: BaseException) -> None:
    name = type(exc).__name__
    counts[name] = counts.get(name, 0) + 1


class Transport(Protocol):
    """What the node runtime needs from a message plane."""

    node_id: int

    def peer_ids(self) -> tuple[int, ...]:
        """All remote node ids this transport can reach."""
        ...

    def send(self, peer_id: int, message: dict) -> None:
        """Queue one message for ``peer_id`` (non-blocking, best-effort)."""
        ...

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        """Next ``(peer_id, message)``, or None if nothing arrived in time."""
        ...

    def flush(self, timeout: float | None = None) -> bool:
        """Block until queued sends are on the wire (True) or time out."""
        ...

    def close(self) -> None:
        ...


# ---------------------------------------------------------------------------
# In-process backend


class MemoryHub:
    """Shared mailbox fabric for a single-process node cluster."""

    def __init__(self, node_ids: Iterable[int]) -> None:
        self._inboxes: dict[int, deque] = {nid: deque() for nid in node_ids}

    def transport(self, node_id: int) -> "MemoryTransport":
        if node_id not in self._inboxes:
            raise KeyError(f"unknown node {node_id}")
        return MemoryTransport(self, node_id)

    def post(self, sender: int, recipient: int, message: dict) -> None:
        inbox = self._inboxes.get(recipient)
        if inbox is not None:
            inbox.append((sender, message))

    def inbox(self, node_id: int) -> deque:
        return self._inboxes[node_id]

    def node_ids(self) -> tuple[int, ...]:
        return tuple(self._inboxes)


class MemoryTransport:
    """Deterministic in-process transport over a :class:`MemoryHub`.

    ``receive`` never blocks (the cluster driver round-robins runtimes,
    so "nothing available" means "let another runtime make progress");
    sends are delivered instantly into the peer's FIFO inbox.
    """

    def __init__(self, hub: MemoryHub, node_id: int) -> None:
        self._hub = hub
        self.node_id = node_id
        self._closed = False

    def peer_ids(self) -> tuple[int, ...]:
        return tuple(nid for nid in self._hub.node_ids() if nid != self.node_id)

    def send(self, peer_id: int, message: dict) -> None:
        if not self._closed:
            self._hub.post(self.node_id, peer_id, message)

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        inbox = self._hub.inbox(self.node_id)
        if inbox:
            return inbox.popleft()
        return None

    def flush(self, timeout: float | None = None) -> bool:
        return True

    def close(self) -> None:
        self._closed = True


# ---------------------------------------------------------------------------
# Socket backend


class _PeerLink:
    """Supervisor for one outbound (dialer-side) link.

    Owns a bounded send deque and a daemon thread that dials, identifies
    itself (HELLO), drains the deque, emits heartbeats when idle, and on
    any link failure reconnects under :func:`reconnect_delay`.  The head
    frame is only popped after a successful send, so a failure mid-drain
    resends it on the next connection (at-least-once).
    """

    def __init__(
        self,
        owner_id: int,
        peer_id: int,
        address: tuple[str, int],
        *,
        queue_cap: int,
        heartbeat_interval: float,
        backoff_base: float,
        backoff_cap: float,
        connect_timeout: float,
    ) -> None:
        self._owner_id = owner_id
        self.peer_id = peer_id
        self._address = address
        self._queue_cap = queue_cap
        self._heartbeat_interval = heartbeat_interval
        self._backoff_base = backoff_base
        self._backoff_cap = backoff_cap
        self._connect_timeout = connect_timeout
        self._deque: deque[dict] = deque()
        self._cond = threading.Condition()
        self._closed = False
        self._inflight = False
        self.drops = 0
        self.reconnects = 0
        #: Failed connections and sends, by exception type.
        self.errors: dict[str, int] = {}
        self._thread = threading.Thread(
            target=self._run, name=f"link-{owner_id}->{peer_id}", daemon=True
        )
        self._thread.start()

    def enqueue(self, message: dict) -> None:
        with self._cond:
            if self._closed:
                return
            if len(self._deque) >= self._queue_cap:
                self._deque.popleft()
                self.drops += 1
            self._deque.append(message)
            self._cond.notify_all()

    def flush(self, deadline: float) -> bool:
        with self._cond:
            while self._deque or self._inflight:
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self._closed:
                    return not (self._deque or self._inflight)
                self._cond.wait(remaining)
            return True

    def close(self) -> None:
        with self._cond:
            self._closed = True
            self._cond.notify_all()

    # -- supervisor thread -------------------------------------------------

    def _run(self) -> None:
        attempt = 0
        while not self._closed:
            conn: FrameConnection | None = None
            try:
                sock = socket.create_connection(
                    self._address, timeout=self._connect_timeout
                )
                sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                sock.settimeout(None)
                conn = FrameConnection(sock)
                conn.send({"t": "hello", "node": self._owner_id})
                attempt = 0
                self._drain(conn)
                return  # only a clean close() exits the drain loop
            except (WireError, OSError) as exc:
                _count(self.errors, exc)
            finally:
                if conn is not None:
                    conn.close()
            if self._closed:
                return
            attempt += 1
            self.reconnects += 1
            self._interruptible_sleep(
                reconnect_delay(
                    self._owner_id,
                    self.peer_id,
                    attempt,
                    self._backoff_base,
                    self._backoff_cap,
                )
            )

    def _drain(self, conn: FrameConnection) -> None:
        while True:
            with self._cond:
                if self._closed:
                    return
                if not self._deque:
                    self._cond.wait(self._heartbeat_interval)
                if self._closed:
                    return
                head = self._deque[0] if self._deque else None
                if head is not None:
                    self._inflight = True
            if head is None:
                conn.send({"t": "hb"})
                continue
            try:
                conn.send(head)
            except BaseException:
                with self._cond:
                    self._inflight = False
                    self._cond.notify_all()
                raise
            with self._cond:
                # Backpressure may have shed the head while it was being
                # written; only pop if it is still the queue front.
                if self._deque and self._deque[0] is head:
                    self._deque.popleft()
                self._inflight = False
                self._cond.notify_all()

    def _interruptible_sleep(self, duration: float) -> None:
        deadline = time.monotonic() + duration
        with self._cond:
            while not self._closed:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return
                self._cond.wait(remaining)


class TcpTransport:
    """Real-socket transport between OS processes (loopback or LAN).

    ``addresses`` maps every node id (self included) to a ``(host,
    port)`` pair; the transport binds its own listener and dials one
    outbound link per peer.  Inbound connections identify themselves
    with a HELLO frame; every received frame (heartbeats included)
    refreshes liveness via ``on_heard`` before protocol frames are
    queued for :meth:`receive`.
    """

    def __init__(
        self,
        node_id: int,
        addresses: dict[int, tuple[str, int]],
        *,
        heartbeat_interval: float = 0.2,
        queue_cap: int = DEFAULT_QUEUE_CAP,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        connect_timeout: float = 2.0,
        frame_timeout: float | None = 60.0,
        on_heard: Callable[[int], None] | None = None,
    ) -> None:
        if node_id not in addresses:
            raise ValueError(f"addresses must include node {node_id} itself")
        self.node_id = node_id
        self._addresses = dict(addresses)
        self._frame_timeout = frame_timeout
        self._on_heard = on_heard
        self._inbox: queue.Queue = queue.Queue()
        self._closed = False
        self._inbound: list[FrameConnection] = []
        self._inbound_lock = threading.Lock()
        self._listener_errors: dict[str, int] = {}

        host, port = addresses[node_id]
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, port))
        self._listener.listen(max(8, 2 * len(addresses)))

        self._links = {
            peer: _PeerLink(
                node_id,
                peer,
                addr,
                queue_cap=queue_cap,
                heartbeat_interval=heartbeat_interval,
                backoff_base=backoff_base,
                backoff_cap=backoff_cap,
                connect_timeout=connect_timeout,
            )
            for peer, addr in addresses.items()
            if peer != node_id
        }
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name=f"accept-{node_id}", daemon=True
        )
        self._accept_thread.start()

    # -- Transport interface -----------------------------------------------

    def peer_ids(self) -> tuple[int, ...]:
        return tuple(self._links)

    def send(self, peer_id: int, message: dict) -> None:
        link = self._links.get(peer_id)
        if link is not None:
            link.enqueue(message)

    def receive(self, timeout: float | None = None) -> tuple[int, dict] | None:
        try:
            if timeout is None:
                return self._inbox.get_nowait()
            return self._inbox.get(timeout=timeout)
        except queue.Empty:
            return None

    def flush(self, timeout: float | None = None) -> bool:
        deadline = time.monotonic() + (timeout if timeout is not None else 5.0)
        return all(link.flush(deadline) for link in self._links.values())

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for link in self._links.values():
            link.close()
        try:
            self._listener.close()
        except OSError as exc:
            _count(self._listener_errors, exc)
        with self._inbound_lock:
            for conn in self._inbound:
                conn.close()
            self._inbound.clear()

    # -- stats ---------------------------------------------------------------

    def link_stats(self) -> dict:
        """Per outbound link: shed frames, reconnects, failures by type.

        Plus ``listener_errors``: failures closing the listener, by type.
        """

        return {
            "links": {
                peer: {
                    "drops": link.drops,
                    "reconnects": link.reconnects,
                    "errors": dict(link.errors),
                }
                for peer, link in self._links.items()
            },
            "listener_errors": dict(self._listener_errors),
        }

    # -- inbound side --------------------------------------------------------

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                sock, _ = self._listener.accept()
            except OSError:
                return
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            threading.Thread(
                target=self._inbound_loop,
                args=(sock,),
                name=f"inbound-{self.node_id}",
                daemon=True,
            ).start()

    def _inbound_loop(self, sock: socket.socket) -> None:
        conn = FrameConnection(sock, read_timeout=self._frame_timeout)
        with self._inbound_lock:
            self._inbound.append(conn)
        try:
            hello = conn.recv()
            if (
                not isinstance(hello, dict)
                or hello.get("t") != "hello"
                or not isinstance(hello.get("node"), int)
            ):
                return
            peer = hello["node"]
            if self._on_heard is not None:
                self._on_heard(peer)
            while not self._closed:
                message = conn.recv()
                if message is None:
                    return
                if self._on_heard is not None:
                    self._on_heard(peer)
                if message.get("t") == "hb":
                    continue
                self._inbox.put((peer, message))
        except WireError:
            return
        finally:
            conn.close()
            with self._inbound_lock:
                if conn in self._inbound:
                    self._inbound.remove(conn)
