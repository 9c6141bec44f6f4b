"""Base class for honest protocol validators.

Provides the plumbing every honest validator shares:

* signing and broadcasting payloads,
* forwarding received envelopes ("at any time, honest validators forward
  any message received", subject to the per-sender caps enforced by the
  protocol state),
* timers that silently skip when the validator is asleep or has been
  corrupted (a corrupted validator's honest code must never run again —
  the adversary owns it),
* wake/sleep/corruption hooks for the sleep controller.
"""

from __future__ import annotations

from typing import Callable

from repro.crypto.signatures import SigningKey
from repro.net.messages import Envelope, Payload
from repro.net.network import Network
from repro.runctx import RunContext
from repro.sim.simulator import EventPriority, Simulator
from repro.tracebus import TraceBus


class GuardedTimer:
    """A scheduled protocol action that only fires if the owner is honest
    and awake at fire time.

    A class rather than a closure so scheduled timers — which live in the
    simulator calendar — stay picklable for snapshot/fork (closures and
    lambdas cannot be pickled; instances of module-level classes can).
    """

    __slots__ = ("validator", "callback")

    def __init__(self, validator: "BaseValidator", callback: Callable[[], None]) -> None:
        self.validator = validator
        self.callback = callback

    def __call__(self) -> None:
        owner = self.validator
        if owner.awake and not owner.corrupted:
            self.callback()


class BaseValidator:
    """Common machinery for honest validators."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
    ) -> None:
        if key.validator_id != validator_id:
            raise ValueError("signing key does not match validator id")
        self.validator_id = validator_id
        self.awake = True
        self.corrupted = False
        self._key = key
        self._sim = simulator
        self._network = network
        # The observability channel protocol code publishes events on.
        # Accepts anything exposing the ``emit_*`` API: a TraceBus in
        # real runs, a bare full-trace recorder in unit tests.
        self._bus = trace
        # The network's run-scoped intern context: hot dedup compares int
        # tokens, not 64-char hex digests.  A network-less harness (some
        # unit tests) gets a private context — dedup only needs token
        # stability within this validator, which any single context gives.
        ctx = getattr(network, "run_context", None)
        self._run_ctx = ctx if ctx is not None else RunContext()
        # Dedup record: token -> mask of holders, tested at ``_holder_bit``.
        # Private until a mask network registers this validator and shares
        # its run-wide table (adopt_holders); a network that never does
        # (the per-recipient test oracle) leaves dedup here.
        self._holders: dict[int, int] = {}
        self._holder_bit = 1

    def adopt_holders(self, table: dict[int, int], bit: int) -> None:
        """Dedup against the network's holder table, as ``bit``.

        The shared-dedup contract with ``Network._deliver_mask``: the
        network tests and sets this bit itself and calls ``receive_new``
        only for content the validator does not hold; direct deliveries
        (self-delivery, sleep flush, targeted sends) come through
        :meth:`receive`, which tests and sets the same bit.  In exchange
        ``awake`` may only change through ``Network.set_awake``.  Called at
        registration, before the validator has received anything.
        """

        self._holders = table
        self._holder_bit = bit

    # -- messaging -----------------------------------------------------------

    def sign(self, payload: Payload) -> Envelope:
        return Envelope(payload=payload, signature=self._key.sign(payload.digest()))

    def broadcast(self, payload: Payload) -> Envelope:
        """Sign and broadcast a payload; returns the envelope sent."""

        envelope = self.sign(payload)
        self._network.broadcast(envelope)
        return envelope

    def forward(self, envelope: Envelope) -> None:
        """Re-broadcast a received envelope (originals keep their signer)."""

        self._network.forward(self.validator_id, envelope)

    def receive(self, envelope: Envelope, time: int) -> None:
        """Network entry point; dedupes and dispatches to ``handle_envelope``.

        Dedup is by interned token — envelope identity is content-based
        (payload digest + signer), so echoes of a shared-fanout envelope
        and Byzantine re-signed duplicates collapse to the same token.
        """

        if self.corrupted:
            return  # the adversary drives this validator now
        # Inlined RunContext.envelope_token pin-read: one dict probe on
        # the shared envelope object covers ~n deliveries per echo wave.
        ctx = self._run_ctx
        pin = envelope.__dict__
        if pin.get("_token_ctx") is ctx:
            token = pin["_token"]
        else:
            token = ctx.envelope_token(envelope)
        holders = self._holders
        held = holders.get(token, 0)
        if held & self._holder_bit:
            return
        holders[token] = held | self._holder_bit
        self.handle_envelope(envelope, time)

    def receive_new(self, envelope: Envelope, time: int) -> None:
        """Post-dedup network entry point (see :meth:`adopt_holders`).

        The network has already set this validator's bit for the
        envelope's token; only the corruption guard remains.
        """

        if not self.corrupted:
            self.handle_envelope(envelope, time)

    def handle_envelope(self, envelope: Envelope, time: int) -> None:
        """Protocol-specific message handling; override in subclasses."""

        raise NotImplementedError

    # -- timers ----------------------------------------------------------------

    def schedule_timer(self, time: int, callback: Callable[[], None]) -> None:
        """Schedule a protocol action that only runs if awake and honest."""

        self._sim.schedule_callback(time, EventPriority.TIMER, GuardedTimer(self, callback))

    @property
    def now(self) -> int:
        return self._sim.now

    # -- controller hooks --------------------------------------------------------

    def on_wake(self, time: int) -> None:
        """Called after buffered messages were flushed; override if needed."""

    def on_sleep(self, time: int) -> None:
        """Called when the adversary puts this validator to sleep."""

    def on_corrupted(self, time: int) -> None:
        """Called when a scheduled corruption takes effect."""
