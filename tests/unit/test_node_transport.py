"""Transport units: backoff determinism, hub FIFO, bounded-queue shedding, counted errors.

The reconnect schedule is part of the deterministic record — it must be
a pure function of link identity and attempt, mirroring the sweep's
``retry_backoff`` scheme exactly.  The in-process hub must be a strict
FIFO per link, because the runtime's barrier correctness rides on it.
"""

from __future__ import annotations

import time

import pytest

from repro.faults import retry_backoff
from repro.net.transport import (
    DEFAULT_QUEUE_CAP,
    MemoryHub,
    TcpTransport,
    _PeerLink,
    reconnect_delay,
)


class TestReconnectDelay:
    def test_mirrors_retry_backoff_keyed_by_link(self):
        for node, peer, attempt in [(0, 1, 1), (2, 5, 3), (7, 0, 6)]:
            expected = retry_backoff(f"node-link|{node}|{peer}", attempt, 0.05)
            assert reconnect_delay(node, peer, attempt, 0.05, 1e9) == expected

    def test_is_deterministic_across_calls(self):
        first = [reconnect_delay(1, 2, a, 0.05, 2.0) for a in range(1, 8)]
        second = [reconnect_delay(1, 2, a, 0.05, 2.0) for a in range(1, 8)]
        assert first == second

    def test_directionality_and_peers_change_the_schedule(self):
        assert reconnect_delay(1, 2, 1, 0.05, 2.0) != reconnect_delay(2, 1, 1, 0.05, 2.0)
        assert reconnect_delay(1, 2, 1, 0.05, 2.0) != reconnect_delay(1, 3, 1, 0.05, 2.0)

    def test_grows_exponentially_until_the_cap(self):
        delays = [reconnect_delay(0, 1, a, 0.05, 2.0) for a in range(1, 12)]
        assert delays == sorted(delays)
        assert delays[-1] == 2.0  # capped
        # Uncapped doubling dominates the jitter factor (jitter < 2x).
        uncapped = [reconnect_delay(0, 1, a, 0.05, 1e9) for a in range(1, 6)]
        for earlier, later in zip(uncapped, uncapped[1:]):
            assert later > earlier


class TestMemoryHub:
    def test_per_link_fifo_order(self):
        hub = MemoryHub(range(3))
        alice, bob = hub.transport(0), hub.transport(1)
        for i in range(5):
            alice.send(1, {"i": i})
        received = [bob.receive() for _ in range(5)]
        assert received == [(0, {"i": i}) for i in range(5)]
        assert bob.receive() is None

    def test_peer_ids_excludes_self(self):
        hub = MemoryHub(range(4))
        assert hub.transport(2).peer_ids() == (0, 1, 3)

    def test_send_to_unknown_peer_is_dropped_not_raised(self):
        hub = MemoryHub(range(2))
        hub.transport(0).send(99, {"x": 1})  # best-effort plane: no error

    def test_closed_transport_stops_sending(self):
        hub = MemoryHub(range(2))
        alice, bob = hub.transport(0), hub.transport(1)
        alice.close()
        alice.send(1, {"x": 1})
        assert bob.receive() is None

    def test_unknown_node_transport_is_an_error(self):
        with pytest.raises(KeyError):
            MemoryHub(range(2)).transport(5)


class TestBoundedLinkQueue:
    def make_link(self, cap: int) -> _PeerLink:
        # Port 1 on loopback: connection refused instantly, so the
        # supervisor stays in backoff and the deque is observable.
        link = _PeerLink(
            owner_id=0,
            peer_id=1,
            address=("127.0.0.1", 1),
            queue_cap=cap,
            heartbeat_interval=60.0,
            backoff_base=30.0,
            backoff_cap=60.0,
            connect_timeout=0.05,
        )
        return link

    def test_drop_oldest_when_full(self):
        link = self.make_link(cap=3)
        try:
            for i in range(5):
                link.enqueue({"i": i})
            with link._cond:
                kept = [frame["i"] for frame in link._deque]
            assert kept == [2, 3, 4]
            assert link.drops == 2
        finally:
            link.close()

    def test_enqueue_after_close_is_ignored(self):
        link = self.make_link(cap=DEFAULT_QUEUE_CAP)
        link.close()
        link.enqueue({"i": 0})
        assert len(link._deque) == 0


class TestLinkErrors:
    """A failure the supervisor recovers from is still counted, by type."""

    def test_a_refusing_peer_is_counted_by_error_type(self):
        from repro.node.deploy import allocate_loopback_ports

        addresses = allocate_loopback_ports(2)  # nothing listens on node 1's port
        transport = TcpTransport(0, addresses, backoff_base=0.01, backoff_cap=0.02)
        try:
            deadline = time.monotonic() + 10.0
            stats = transport.link_stats()
            while sum(stats["links"][1]["errors"].values()) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
                stats = transport.link_stats()
        finally:
            transport.close()
        link = stats["links"][1]
        assert set(link["errors"]) == {"ConnectionRefusedError"}
        assert link["errors"]["ConnectionRefusedError"] >= 2
        assert link["drops"] == 0
        assert stats["listener_errors"] == {}

    def test_a_failing_listener_close_is_counted(self):
        from repro.node.deploy import allocate_loopback_ports

        transport = TcpTransport(0, allocate_loopback_ports(1))
        listener = transport._listener

        class FailingClose:
            def close(self):
                listener.close()
                raise OSError("close failed")

        transport._listener = FailingClose()
        transport.close()
        assert transport.link_stats()["listener_errors"] == {"OSError": 1}
