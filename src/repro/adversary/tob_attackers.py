"""Adversaries against the full TOB-SVD protocol.

The headline attacker is :class:`TobEquivocatingProposer`: whenever its VRF
value wins a view, it sends two conflicting proposals, each to one half of
the validator set, timed to arrive exactly at the vote deadline.  The two
halves input different logs to ``GA_v``, neither clears the majority
quorum, and the view produces no new block — this is precisely the
"bad leader" event behind the paper's *expected* (as opposed to best-case)
latency, so the expected-latency experiments run against this adversary.

Safety must survive all of these attacks as long as the run stays inside
the (5Δ, 2Δ, ½)-sleepy model; the integration tests assert exactly that.
"""

from __future__ import annotations

from functools import partial
from typing import Callable

from repro.chain.log import Log
from repro.chain.transactions import Transaction
from repro.crypto.signatures import SigningKey
from repro.adversary.base import ByzantineValidator
from repro.core.tobsvd import ProtocolContext, TobSvdValidator
from repro.net.messages import LogMessage, ProposalMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.trace import Trace


def _fake_transaction(tag: int) -> Transaction:
    """A transaction fabricated by the adversary (never in the pool)."""

    return Transaction(tx_id=-1 - tag, payload=f"byz-{tag}", submitted_at=0)


class _TobByzantineBase(ByzantineValidator):
    """Common TOB-attack plumbing: view timing and honest-state peeking."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: Trace,
        context: ProtocolContext,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._context = context
        self._config = context.config
        self._time = context.config.time

    def _honest_reference(self) -> TobSvdValidator | None:
        """Any honest validator, for peeking at protocol state.

        The adversary is omniscient about honest state (it controls the
        network); reading a validator's view of the world models that.
        """

        for vid in self._network.node_ids:
            node = self._network.node(vid)
            if isinstance(node, TobSvdValidator) and not node.corrupted:
                return node
        return None

    def _halves(self) -> tuple[list[int], list[int]]:
        """Split the *honest* validators as evenly as possible.

        An uneven honest split lets the bigger half clear the majority
        quorum, defusing the attack; Byzantine recipients are irrelevant
        and are appended to the first group.
        """

        honest: list[int] = []
        others: list[int] = []
        for vid in self._network.node_ids:
            node = self._network.node(vid)
            if isinstance(node, TobSvdValidator) and not node.corrupted:
                honest.append(vid)
            else:
                others.append(vid)
        return honest[0::2] + others, honest[1::2]


class TobSilent(_TobByzantineBase):
    """Crash-faulty: never sends anything.

    Note that silence alone cannot stall TOB-SVD: if the silent validator
    holds the top VRF value, honest validators simply never receive its
    proposal and vote for the best honest one instead.
    """


class TobEquivocatingProposer(_TobByzantineBase):
    """Split-proposal attack, every view.

    At each ``t_v`` the attacker builds two conflicting extensions of the
    honest candidate and sends one to each half of the validator set with
    delay exactly Delta: each half sees only one version by the vote
    deadline ``t_v + Δ``, and honest forwarding reveals the equivocation
    only afterwards.  Effective only in views where this validator's VRF
    wins — which is what makes leader failure a Bernoulli(|B|/n) event.
    """

    def setup(self) -> None:
        self.extend_views(0, self._config.num_views)

    def extend_views(self, first_view: int, num_views: int) -> None:
        self._config = self._context.config  # refreshed on horizon extension
        for view in range(first_view, num_views):
            self.at(self._time.view_start(view), partial(self._attack_view, view))

    def _attack_view(self, view: int) -> None:
        reference = self._honest_reference()
        if reference is None:
            return
        candidate = reference.peek_candidate(view)
        if candidate is None:
            return
        vrf_output = self._context.vrf.evaluate(self.validator_id, view)
        log_a = candidate.append_block(
            [_fake_transaction(2 * view)], proposer=self.validator_id, view=view
        )
        log_b = candidate.append_block(
            [_fake_transaction(2 * view + 1)], proposer=self.validator_id, view=view
        )
        group_a, group_b = self._halves()
        delta = self._network.delta
        self.split_send(
            ProposalMessage(view=view, log=log_a, vrf=vrf_output),
            ProposalMessage(view=view, log=log_b, vrf=vrf_output),
            group_a,
            group_b,
            delay=delta,
        )
        # Equivocate inside GA_v too: everyone records this sender as an
        # equivocator (in S but not V), raising the quorum denominator so
        # an odd honest split cannot hand one branch a majority.
        ga_key = ("tobsvd", view)
        everyone = self._network.node_ids
        self.send_to(LogMessage(ga_key=ga_key, log=log_a), everyone, delay=delta)
        self.send_to(LogMessage(ga_key=ga_key, log=log_b), everyone, delay=delta)


class TobDoubleVoter(_TobByzantineBase):
    """Inputs two conflicting logs into every ``GA_v``.

    Honest validators record the equivocation and drop this sender from
    ``V`` — the attack stresses the equivocator-set time-shifting of
    Sections 5.1/5.2 rather than leader election.
    """

    def setup(self) -> None:
        self.extend_views(0, self._config.num_views)

    def extend_views(self, first_view: int, num_views: int) -> None:
        self._config = self._context.config  # refreshed on horizon extension
        delta = self._config.delta
        for view in range(first_view, num_views):
            self.at(self._time.view_start(view) + delta, partial(self._attack_view, view))

    def _attack_view(self, view: int) -> None:
        reference = self._honest_reference()
        if reference is None:
            return
        lock_outputs = reference.peek_ga_outputs(view - 1, grade=1)
        base = lock_outputs[-1] if lock_outputs else Log.genesis()
        fork_a = base.append_block(
            [_fake_transaction(1000 + 2 * view)], proposer=self.validator_id, view=view
        )
        fork_b = base.append_block(
            [_fake_transaction(1001 + 2 * view)], proposer=self.validator_id, view=view
        )
        ga_key = ("tobsvd", view)
        group_a, group_b = self._halves()
        self.split_send(
            LogMessage(ga_key=ga_key, log=fork_a),
            LogMessage(ga_key=ga_key, log=fork_b),
            group_a,
            group_b,
            delay=self._network.delta,
        )


TobAttackerKind = str
TobAttackerFactory = Callable[
    [int, SigningKey, Simulator, Network, Trace, ProtocolContext], ByzantineValidator
]


def make_tob_attacker_factory(kind: TobAttackerKind) -> TobAttackerFactory:
    """Byzantine factory for :class:`repro.core.TobSvdProtocol`.

    ``kind`` is one of ``"silent"``, ``"equivocating-proposer"``,
    ``"double-voter"``.
    """

    classes = {
        "silent": TobSilent,
        "equivocating-proposer": TobEquivocatingProposer,
        "double-voter": TobDoubleVoter,
    }
    try:
        return classes[kind]  # the class is the factory: same six arguments
    except KeyError:
        raise ValueError(f"unknown TOB attacker kind {kind!r}") from None
