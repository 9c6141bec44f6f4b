"""Adversaries against standalone Graded Agreement instances.

These drive the GA property tests (Theorems 1 and 2): whatever the
adversary does within the (T_b, 0, ½) model, Consistency, Graded Delivery,
Validity, Integrity and Uniqueness must hold for the honest validators.
"""

from __future__ import annotations

from typing import Callable

from repro.chain.log import Log
from repro.crypto.signatures import SigningKey
from repro.adversary.base import ByzantineValidator
from repro.net.messages import LogMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.trace import Trace


class GaSilent(ByzantineValidator):
    """Sends nothing; a crash-faulty participant."""


class GaEquivocator(ByzantineValidator):
    """Broadcasts two conflicting LOG messages at the input phase.

    Everyone eventually sees both, records the equivocation, and discards
    this sender from ``V`` — the attack probes the ``E``-set handling.
    """

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: Trace,
        ga_key: tuple,
        log_a: Log,
        log_b: Log,
        start_time: int = 0,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._ga_key = ga_key
        self._log_a = log_a
        self._log_b = log_b
        self._start_time = start_time

    def setup(self) -> None:
        self.at(self._start_time, self._attack)

    def _attack(self) -> None:
        self.broadcast(LogMessage(ga_key=self._ga_key, log=self._log_a))
        self.broadcast(LogMessage(ga_key=self._ga_key, log=self._log_b))


class GaSplitEquivocator(ByzantineValidator):
    """Equivocates with *targeted* deliveries.

    Group A receives log A immediately and log B only at the Delta bound
    (and vice versa), maximising the window in which the two halves hold
    different ``V`` entries for this sender — the scenario the
    ``V^Δ ∩ V^3Δ`` intersection (Section 5.1) exists to defuse.
    """

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: Trace,
        ga_key: tuple,
        log_a: Log,
        log_b: Log,
        group_a: list[int],
        group_b: list[int],
        start_time: int = 0,
        late_delay: int | None = None,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._ga_key = ga_key
        self._log_a = log_a
        self._log_b = log_b
        self._group_a = list(group_a)
        self._group_b = list(group_b)
        self._start_time = start_time
        self._late_delay = late_delay if late_delay is not None else network.delta

    def setup(self) -> None:
        self.at(self._start_time, self._attack)

    def _attack(self) -> None:
        message_a = LogMessage(ga_key=self._ga_key, log=self._log_a)
        message_b = LogMessage(ga_key=self._ga_key, log=self._log_b)
        self.send_to(message_a, self._group_a, delay=0)
        self.send_to(message_b, self._group_b, delay=0)
        # The cross messages arrive as late as synchrony allows.
        self.send_to(message_a, self._group_b, delay=self._late_delay)
        self.send_to(message_b, self._group_a, delay=self._late_delay)
        # Self-deliveries keep this node's id in everyone's S via forwards.


GaAttackerBuilder = Callable[
    [int, SigningKey, Simulator, Network, Trace], ByzantineValidator
]


def make_ga_attacker_factory(
    kind: str,
    ga_key: tuple,
    log_a: Log | None = None,
    log_b: Log | None = None,
    group_a: list[int] | None = None,
    group_b: list[int] | None = None,
    start_time: int = 0,
) -> GaAttackerBuilder:
    """Factory-of-factories for :func:`repro.core.run_standalone_ga`.

    ``kind`` is one of ``"silent"``, ``"equivocator"``, ``"split"``.
    """

    def build(
        vid: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: Trace,
    ) -> ByzantineValidator:
        if kind == "silent":
            return GaSilent(vid, key, simulator, network, trace)
        if kind == "equivocator":
            if log_a is None or log_b is None:
                raise ValueError("equivocator needs two conflicting logs")
            return GaEquivocator(
                vid, key, simulator, network, trace, ga_key, log_a, log_b, start_time
            )
        if kind == "split":
            if None in (log_a, log_b, group_a, group_b):
                raise ValueError("split equivocator needs logs and groups")
            return GaSplitEquivocator(
                vid,
                key,
                simulator,
                network,
                trace,
                ga_key,
                log_a,
                log_b,
                group_a,
                group_b,
                start_time,
            )
        raise ValueError(f"unknown GA attacker kind {kind!r}")

    return build
