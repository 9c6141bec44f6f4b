"""Validator state: the ``V``, ``E`` and ``S`` of Section 3.3.

Per GA instance, an honest validator keeps:

* ``V`` — for each sender, the unique ``LOG`` message received from it, or
  "bottom" if none or more than one (an equivocation) arrived;
* ``E`` — equivocation evidence: the first two conflicting ``LOG``
  messages per equivocating sender;
* ``S`` (derived) — every validator from which *at least one* ``LOG``
  message was received, equivocators included.

Message handling (Section 3.3, "Message handling"):

* first ``LOG`` from a sender  -> record in ``V`` and forward;
* second, *different* ``LOG``  -> move sender to ``E`` (with evidence)
  and forward, so everyone learns of the equivocation;
* anything further from a known equivocator -> ignore.

Honest validators therefore accept and forward **at most two** ``LOG``
messages per sender, which bounds the communication complexity at
O(L n^3) per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, auto
from typing import Iterable

from repro.chain.log import Log
from repro.net.messages import Envelope, LogMessage

Pair = tuple[int, Log]  # (sender, log), the (Λ', v_i) pairs of the paper
Snapshot = frozenset  # frozenset[Pair]


class HandleOutcome(Enum):
    """What a ``LOG`` message did to the state, and whether to forward it."""

    ACCEPTED = auto()  # first message from this sender -> forward
    EQUIVOCATION = auto()  # second, different message -> forward
    DUPLICATE = auto()  # identical resend -> do not forward
    IGNORED = auto()  # sender already a known equivocator -> drop

    @property
    def should_forward(self) -> bool:
        return self in (HandleOutcome.ACCEPTED, HandleOutcome.EQUIVOCATION)


@dataclass(frozen=True)
class EquivocationEvidence:
    """Two conflicting signed ``LOG`` messages from one sender."""

    first: Envelope
    second: Envelope

    @property
    def sender(self) -> int:
        return self.first.sender


class LogView:
    """Live ``V``/``E`` state for one GA instance at one validator.

    When given the run's :class:`~repro.runctx.RunContext`, duplicate
    checks compare interned int tokens instead of 64-char log-id strings,
    and every accepted log is noted in the run's lineage store (tip-id →
    shared log instance).  Without a context the semantics are identical,
    via plain ``Log`` equality.
    """

    def __init__(self, ctx=None) -> None:
        self._ctx = ctx  # RunContext | None
        self._v: dict[int, Log] = {}  # sender -> unique log (V(i) != bottom)
        self._v_tokens: dict[int, int] = {}  # sender -> interned log token
        self._v_envelopes: dict[int, Envelope] = {}
        self._equivocators: dict[int, EquivocationEvidence] = {}
        self._senders: set[int] = set()  # S: everyone who sent >= 1 LOG
        self._pairs_cache: Snapshot | None = None  # memoised pairs() snapshot

    # -- message handling ---------------------------------------------------

    def handle(self, envelope: Envelope) -> HandleOutcome:
        """Apply one ``LOG`` envelope; returns the outcome (incl. forward bit)."""

        payload = envelope.payload
        if not isinstance(payload, LogMessage):
            raise TypeError("LogView handles LOG messages only")
        sender = envelope.signature.signer  # Envelope.sender, inlined
        if sender in self._equivocators:
            return HandleOutcome.IGNORED
        self._senders.add(sender)
        log = payload.log
        ctx = self._ctx
        current = self._v.get(sender)
        if current is None:
            if ctx is not None:
                self._v_tokens[sender] = ctx.log_token(log)
                # Canonicalize to the run's first-seen instance for this
                # tip (tip id determines the chain, so content is equal):
                # every V across views then shares one Log object per
                # content, with its prefix/tx caches, and later receipts
                # of the same chain resolve to it by one tip lookup.
                log = ctx.note_log(log)
            self._v[sender] = log
            self._v_envelopes[sender] = envelope
            self._pairs_cache = None
            return HandleOutcome.ACCEPTED
        if ctx is not None:
            duplicate = self._v_tokens[sender] == ctx.log_token(log)
        else:
            duplicate = current == log
        if duplicate:
            return HandleOutcome.DUPLICATE
        evidence = EquivocationEvidence(
            first=self._v_envelopes[sender], second=envelope
        )
        del self._v[sender]
        del self._v_envelopes[sender]
        self._v_tokens.pop(sender, None)
        self._equivocators[sender] = evidence
        self._pairs_cache = None
        return HandleOutcome.EQUIVOCATION

    # -- the paper's accessors ------------------------------------------------

    def log_of(self, sender: int) -> Log | None:
        """``V(i)``: the unique log from ``sender``, or None for "bottom"."""

        return self._v.get(sender)

    def pairs(self) -> Snapshot:
        """The current ``V`` as a frozen set of (sender, log) pairs.

        This is the object the time-shifted quorum technique snapshots at
        Delta marks: ``V^Δ``, ``V^2Δ`` etc.  The snapshot is cached and
        invalidated whenever ``V`` mutates, so repeated reads (one per
        output phase and snapshot mark) share one frozenset.
        """

        cached = self._pairs_cache
        if cached is None:
            cached = frozenset(self._v.items())
            self._pairs_cache = cached
        return cached

    def senders(self) -> frozenset[int]:
        """``S``: every sender of at least one LOG message."""

        return frozenset(self._senders)

    def sender_count(self) -> int:
        """``|S|``."""

        return len(self._senders)

    def equivocators(self) -> frozenset[int]:
        """Senders with recorded equivocation evidence."""

        return frozenset(self._equivocators)

    def evidence_for(self, sender: int) -> EquivocationEvidence | None:
        return self._equivocators.get(sender)

    def extensions_of(self, log: Log) -> Snapshot:
        """``V_Λ``: the pairs whose log extends ``log`` (equivocators excluded)."""

        return frozenset(
            (sender, candidate)
            for sender, candidate in self._v.items()
            if candidate.is_extension_of(log)
        )

    def all_logs(self) -> frozenset[Log]:
        """Distinct logs currently recorded in ``V``."""

        return frozenset(self._v.values())

    def retire(self) -> "Tombstone":
        """What a finished instance keeps for late LOG messages."""

        return Tombstone(self._v, self._equivocators)


class Tombstone:
    """A retired ``LogView`` as two sender bitmasks: ``accepted`` (one
    message on record) and ``equivocators`` (two).

    Without the messages a resend cannot be told from a second, different
    one, so :meth:`handle` is exact only behind the run's holder table
    (``Network._holders``, the one envelope dedup record, which keeps
    every token it ever admitted), which drops a resend (same payload
    digest, same signer) first.
    """

    __slots__ = ("accepted", "equivocators")

    def __init__(self, accepted: Iterable[int] = (), equivocators: Iterable[int] = ()) -> None:
        self.accepted = sum(1 << sender for sender in accepted)
        self.equivocators = sum(1 << sender for sender in equivocators)

    def handle(self, envelope: Envelope) -> HandleOutcome:
        """:meth:`LogView.handle` for an envelope the holder table let through."""

        if not isinstance(envelope.payload, LogMessage):
            raise TypeError("Tombstone handles LOG messages only")
        return self.admit(envelope.signature.signer)

    def admit(self, sender: int) -> HandleOutcome:
        bit = 1 << sender
        if self.equivocators & bit:
            return HandleOutcome.IGNORED
        if self.accepted & bit:
            self.accepted ^= bit
            self.equivocators |= bit
            return HandleOutcome.EQUIVOCATION
        self.accepted |= bit
        return HandleOutcome.ACCEPTED


def pairs_extending(pairs: Iterable[Pair], log: Log) -> frozenset:
    """Restrict a pair set to entries whose log extends ``log``."""

    return frozenset((s, l) for s, l in pairs if l.is_extension_of(log))
