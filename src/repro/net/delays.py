"""Per-message delivery-delay policies.

The synchronous model only bounds delays by Delta; *within* the bound the
adversary schedules deliveries.  A :class:`DelayPolicy` decides, per
(sender, recipient, envelope), how many ticks a delivery takes.  Policies
compose: the adversary typically wraps a baseline policy and overrides
specific links or messages (see :class:`AdversarialDelay`).
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.net.messages import Envelope


class DelayPolicy(Protocol):
    """Chooses the delivery delay, in ticks, for one point-to-point send.

    A policy may additionally expose a ``fixed_delay`` int attribute
    declaring that *every* delivery it schedules takes exactly that many
    ticks, independent of sender, recipient, envelope and time.  The
    network reads it once per policy installation and uses it to collapse
    a whole fanout into one batched delivery event (shared-fanout fast
    path; a fault plan's spiked recipients form a second); policies
    without it are asked per recipient — about those a fault plan keeps,
    in registration order — so the attribute is purely an optimisation and
    must agree with :meth:`delay`.  The network clamps the answer to Delta
    and adds a fault plan's spike ticks itself.
    """

    def delay(
        self, sender: int, recipient: int, envelope: Envelope, send_time: int
    ) -> int:
        """Return a delay in ``[0, delta]`` ticks."""
        ...


class UniformDelay:
    """Worst-case synchrony: every delivery takes exactly Delta.

    This is the default for experiments because the paper's latency numbers
    are stated against the Delta bound.
    """

    def __init__(self, delta: int) -> None:
        self._delta = delta
        self.fixed_delay = delta

    def delay(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> int:
        return self._delta


class EagerDelay:
    """Optimistic network: every delivery takes one tick (or 0 if delta==0)."""

    def __init__(self, delta: int) -> None:
        self._delta = delta
        self.fixed_delay = min(1, delta)

    def delay(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> int:
        return min(1, self._delta)


class RandomDelay:
    """Delays drawn uniformly from ``[min_ticks, delta]`` per delivery."""

    def __init__(self, delta: int, rng: random.Random, min_ticks: int = 1) -> None:
        if not 0 <= min_ticks <= delta:
            raise ValueError("min_ticks must lie in [0, delta]")
        self._delta = delta
        self._rng = rng
        self._min = min_ticks

    def delay(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> int:
        return self._rng.randint(self._min, self._delta)


class SplitDelay:
    """Deliver instantly to a chosen subset, at the Delta bound to the rest.

    The canonical adversarial schedule for equivocation attacks: one half
    of the honest validators sees message A early, the other half sees it
    only at the bound (or sees the equivocating B first).
    """

    def __init__(self, delta: int, fast_recipients: set[int], fast_ticks: int = 0) -> None:
        self._delta = delta
        self._fast = set(fast_recipients)
        self._fast_ticks = fast_ticks

    def delay(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> int:
        if recipient in self._fast:
            return self._fast_ticks
        return self._delta


MatchFn = Callable[[int, int, Envelope, int], bool]


class SenderMatch:
    """Match every message from one sender (picklable rule predicate)."""

    __slots__ = ("sender",)

    def __init__(self, sender: int) -> None:
        self.sender = sender

    def __call__(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> bool:
        return sender == self.sender


class LinkMatch:
    """Match one directed sender→recipient link (picklable rule predicate)."""

    __slots__ = ("sender", "recipient")

    def __init__(self, sender: int, recipient: int) -> None:
        self.sender = sender
        self.recipient = recipient

    def __call__(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> bool:
        return sender == self.sender and recipient == self.recipient


class AdversarialDelay:
    """A base policy plus adversary-installed overrides.

    Overrides are ``(match, ticks)`` pairs evaluated in installation order;
    the first match wins.  ``ticks`` is clamped to the Delta bound — the
    adversary cannot violate synchrony, only exploit it.
    """

    def __init__(self, delta: int, base: DelayPolicy) -> None:
        self._delta = delta
        self._base = base
        self._rules: list[tuple[MatchFn, int]] = []

    def add_rule(self, match: MatchFn, ticks: int) -> None:
        """Install an override; ``ticks`` beyond Delta is clamped to Delta."""

        self._rules.append((match, max(0, min(ticks, self._delta))))

    def delay_sender(self, sender: int, ticks: int) -> None:
        """Convenience: delay everything from ``sender`` by ``ticks``."""

        self.add_rule(SenderMatch(sender), ticks)

    def delay_link(self, sender: int, recipient: int, ticks: int) -> None:
        """Convenience: delay one directed link by ``ticks``."""

        self.add_rule(LinkMatch(sender, recipient), ticks)

    def delay(self, sender: int, recipient: int, envelope: Envelope, send_time: int) -> int:
        for match, ticks in self._rules:
            if match(sender, recipient, envelope, send_time):
                return ticks
        return self._base.delay(sender, recipient, envelope, send_time)
