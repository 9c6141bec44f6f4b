"""Proposal books: per-view proposal tracking with equivocation discard.

Figure 4, Vote phase: "After discarding equivocating proposals, input to
GA_v the proposal with the highest VRF value extending L_{v-1}".  A
:class:`ProposalBook` mirrors the LOG-message handling rules for
``PROPOSAL`` messages:

* at most two different proposals per sender are accepted and forwarded;
* a sender with two different proposals for the same view is an
  equivocator — all its proposals are discarded;
* proposals must carry a *valid* VRF output, for the right view, evaluated
  by the actual sender (a Byzantine validator cannot inflate its priority).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.state import Tombstone
from repro.crypto.vrf import VRF
from repro.net.messages import Envelope, ProposalMessage


@dataclass(frozen=True)
class AcceptedProposal:
    """A well-formed, currently non-equivocating proposal."""

    envelope: Envelope

    @property
    def message(self) -> ProposalMessage:
        payload = self.envelope.payload
        assert isinstance(payload, ProposalMessage)
        return payload

    @property
    def sender(self) -> int:
        return self.envelope.sender

    def sort_key(self) -> tuple[float, int]:
        return self.message.vrf.sort_key()


def _own_valid_vrf(payload: ProposalMessage, sender: int, view: int, vrf: VRF) -> bool:
    """Not stolen from someone else or another view, and not forged."""

    output = payload.vrf
    return output.validator_id == sender and output.view == view and vrf.verify(output)


class ProposalBook:
    """Proposal state for a single view at a single validator."""

    def __init__(self, view: int, vrf: VRF) -> None:
        self._view = view
        self._vrf = vrf
        self._proposals: dict[int, AcceptedProposal] = {}
        self._equivocators: set[int] = set()

    @property
    def view(self) -> int:
        return self._view

    def handle(self, envelope: Envelope) -> bool:
        """Apply one PROPOSAL envelope; returns True iff it should be forwarded."""

        payload = envelope.payload
        if not isinstance(payload, ProposalMessage):
            raise TypeError("ProposalBook handles PROPOSAL messages only")
        if payload.view != self._view:
            return False
        sender = envelope.signature.signer  # Envelope.sender, inlined
        if sender in self._equivocators:
            return False
        if not _own_valid_vrf(payload, sender, self._view, self._vrf):
            return False
        existing = self._proposals.get(sender)
        if existing is None:
            self._proposals[sender] = AcceptedProposal(envelope)
            return True
        if existing.envelope.payload == payload:
            return False  # duplicate
        # Equivocation: drop the sender entirely, but forward the second
        # proposal so everyone learns of the equivocation.
        del self._proposals[sender]
        self._equivocators.add(sender)
        return True

    def equivocators(self) -> frozenset[int]:
        return frozenset(self._equivocators)

    def proposals(self) -> list[AcceptedProposal]:
        """Current non-equivocating proposals, best VRF first."""

        return sorted(
            self._proposals.values(), key=AcceptedProposal.sort_key, reverse=True
        )

    def best_extending(self, lock) -> AcceptedProposal | None:
        """The highest-VRF proposal whose log extends ``lock``, if any."""

        for proposal in self.proposals():
            if proposal.message.log.is_extension_of(lock):
                return proposal
        return None

    def retire(self) -> "RetiredProposalBook":
        """What a finished view keeps for late PROPOSAL messages."""

        return RetiredProposalBook(self._view, self._vrf, self._proposals, self._equivocators)


class RetiredProposalBook(Tombstone):
    """A retired :class:`ProposalBook`: the two sender bitmasks plus the
    stateless admission checks (exact behind the run's holder table, which
    drops a resend before it gets here — see :class:`Tombstone`)."""

    __slots__ = ("_view", "_vrf")

    def __init__(self, view: int, vrf: VRF, accepted=(), equivocators=()) -> None:
        super().__init__(accepted, equivocators)
        self._view = view
        self._vrf = vrf

    def handle(self, envelope: Envelope) -> bool:
        """:meth:`ProposalBook.handle` for an envelope the holder table let through."""

        payload = envelope.payload
        if not isinstance(payload, ProposalMessage):
            raise TypeError("RetiredProposalBook handles PROPOSAL messages only")
        sender = envelope.signature.signer
        return (
            payload.view == self._view
            and _own_valid_vrf(payload, sender, self._view, self._vrf)
            and self.admit(sender).should_forward
        )
