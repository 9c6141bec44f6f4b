"""Shared machinery for Byzantine validator nodes.

A Byzantine node:

* is always awake (the sleepy model keeps Byzantine validators online);
* owns its signing key, so it can sign anything — including two
  conflicting ``LOG`` messages (equivocation);
* may abandon broadcast and send *different* messages to different
  recipients with chosen delays, as long as every delay respects the
  Delta bound (the network clamps);
* never forwards honest traffic (withholding is always allowed).
"""

from __future__ import annotations

from repro.crypto.signatures import SigningKey
from repro.net.messages import Envelope, Payload
from repro.net.network import Network
from repro.sim.simulator import EventPriority, Simulator
from repro.tracebus import TraceBus


class ByzantineValidator:
    """Base class for adversary-controlled validator nodes."""

    # No ``adopt_holders``: the network visits a Byzantine node with every
    # delivered copy (traffic watching).

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
    ) -> None:
        self.validator_id = validator_id
        self.awake = True
        self.corrupted = True
        self._key = key
        self._sim = simulator
        self._network = network
        self._bus = trace

    # -- capabilities -----------------------------------------------------------

    def sign(self, payload: Payload) -> Envelope:
        return Envelope(payload=payload, signature=self._key.sign(payload.digest()))

    def broadcast(self, payload: Payload) -> Envelope:
        envelope = self.sign(payload)
        self._network.broadcast(envelope)
        return envelope

    def send_to(self, payload: Payload, recipients: list[int], delay: int = 0) -> Envelope:
        """Targeted delivery: only ``recipients`` see this message."""

        envelope = self.sign(payload)
        for recipient in recipients:
            self._network.send_direct(envelope, recipient, delay)
        return envelope

    def split_send(
        self,
        payload_a: Payload,
        payload_b: Payload,
        group_a: list[int],
        group_b: list[int],
        delay: int = 0,
    ) -> tuple[Envelope, Envelope]:
        """The canonical equivocation: A to one group, B to the other."""

        return (
            self.send_to(payload_a, group_a, delay),
            self.send_to(payload_b, group_b, delay),
        )

    def at(self, time: int, callback) -> None:
        """Schedule adversary behaviour (TIMER priority, like honest code)."""

        self._sim.schedule_callback(time, EventPriority.TIMER, callback)

    @property
    def now(self) -> int:
        return self._sim.now

    # -- node interface ------------------------------------------------------------

    def receive(self, envelope: Envelope, time: int) -> None:
        """Default: observe silently.  Subclasses may react."""

    def setup(self) -> None:
        """Hook called once before the run starts."""

    # -- controller hooks (Byzantine nodes ignore sleep, stay corrupted) -----------

    def on_wake(self, time: int) -> None:  # pragma: no cover - controller contract
        self.awake = True

    def on_sleep(self, time: int) -> None:  # pragma: no cover - controller contract
        self.awake = True

    def on_corrupted(self, time: int) -> None:  # pragma: no cover - contract
        self.corrupted = True
