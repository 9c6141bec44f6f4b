"""Structural view-based TOB simulators for the Table-1 baselines.

A :class:`StructuralTob` run executes, over the *real* network substrate
(real signed messages, real Δ-bounded delays, real forwarding), the view
skeleton shared by every protocol in Table 1:

* at each view start, every awake validator broadcasts a VRF-ranked
  proposal extending its chain head;
* the view's *success path* runs ``phases_success_view`` voting phases at
  Δ spacing, each a genuine broadcast of a ``StructuralVote``;
* at the structure's decision offset, a validator decides the leader's
  proposal iff a strict majority of that phase's vote senders voted for
  one log;
* a failed view (split or missing leader) additionally runs the
  structure's view-change phases (``phases_failure_view - phases_success_view``
  extra voting phases).

What is structural about it: the *quorum logic inside each phase* is
collapsed to "majority votes for one log", rather than each baseline's
full GA machinery.  What is measured for Table 1 — latency in Δ units,
voting phases per decided block, and delivered messages as a function of
n — depends only on the phase/timing/forwarding skeleton, which *is*
faithful per protocol (see DESIGN.md, substitution 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

from repro.adversary.base import ByzantineValidator
from repro.baselines.structure import ProtocolStructure
from repro.chain.log import Log
from repro.chain.transactions import Transaction, TransactionPool
from repro.core.proposals import ProposalBook
from repro.core.validator import BaseValidator
from repro.core.world import World
from repro.crypto.signatures import KeyRegistry, SigningKey
from repro.crypto.vrf import VRF
from repro.net.delays import DelayPolicy
from repro.net.messages import Envelope, ProposalMessage, StructuralVote
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.trace import DecisionEvent, ProposalEvent, Trace, VotePhaseEvent
from repro.tracebus import Observability, TraceBus

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids analysis cycle
    from repro.analysis.streaming import StreamingAnalyzer


@dataclass(frozen=True)
class StructuralConfig:
    """Run parameters for a structural baseline simulation."""

    n: int
    num_views: int
    delta: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1 or self.num_views < 1 or self.delta < 1:
            raise ValueError("n, num_views and delta must all be positive")


@dataclass
class StructuralContext:
    """Shared facilities for structural validators (honest and Byzantine)."""

    structure: ProtocolStructure
    config: StructuralConfig
    vrf: VRF
    pool: TransactionPool
    registry: KeyRegistry

    def view_start(self, view: int) -> int:
        return view * self.structure.view_length_deltas * self.config.delta


class StructuralTobValidator(BaseValidator):
    """An honest validator of a structural baseline."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
        context: StructuralContext,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._context = context
        self._structure = context.structure
        self._config = context.config
        self.head: Log = Log.genesis()
        self._books: dict[int, ProposalBook] = {}
        # (view, phase) -> {sender: log}; first vote per sender per phase.
        self._votes: dict[tuple[int, int], dict[int, Log]] = {}
        self._vote_forward_counts: dict[tuple[int, int, int], int] = {}
        # Per-view vote lock: the log chosen at the first voting phase is
        # re-voted in every later phase of the view.  Real baselines carry
        # first-phase state forward through their GA locks; without this a
        # split-proposal attack would self-heal once honest forwarding
        # exposes the equivocation mid-view, which no Table-1 protocol does.
        self._view_lock: dict[int, Log] = {}
        self.decided: list[tuple[int, Log]] = []

    # -- helpers ------------------------------------------------------------

    def _book(self, view: int) -> ProposalBook:
        book = self._books.get(view)
        if book is None:
            book = ProposalBook(view, self._context.vrf)
            self._books[view] = book
        return book

    def _leader_log(self, view: int) -> Log | None:
        """The highest-VRF non-equivocating proposal extending our head."""

        best = self._book(view).best_extending(self.head)
        return best.message.log if best is not None else None

    def _phase_votes(self, view: int, phase: int) -> dict[int, Log]:
        return self._votes.setdefault((view, phase), {})

    # -- schedule ----------------------------------------------------------------

    def setup(self) -> None:
        delta = self._config.delta
        structure = self._structure
        for view in range(self._config.num_views):
            start = self._context.view_start(view)
            self.schedule_timer(start, lambda v=view: self._propose(v))
            for phase in range(1, structure.phases_success_view + 1):
                self.schedule_timer(
                    start + phase * delta, lambda v=view, p=phase: self._vote(v, p)
                )
            self.schedule_timer(
                start + structure.best_case_latency_deltas * delta,
                lambda v=view: self._decide(v),
            )

    # -- phases ---------------------------------------------------------------------

    def _propose(self, view: int) -> None:
        batch = self._context.pool.pending_for_log(self.head, before=self.now)
        proposal_log = self.head.append_block(batch, proposer=self.validator_id, view=view)
        vrf_output = self._context.vrf.evaluate(self.validator_id, view)
        self.broadcast(ProposalMessage(view=view, log=proposal_log, vrf=vrf_output))
        self._bus.emit_proposal(
            ProposalEvent(
                time=self.now,
                view=view,
                proposer=self.validator_id,
                log=proposal_log,
                vrf_value=vrf_output.value,
            )
        )

    def _vote(self, view: int, phase: int) -> None:
        leader_log = self._view_lock.get(view)
        if leader_log is None:
            leader_log = self._leader_log(view)
            if leader_log is None:
                return
            self._view_lock[view] = leader_log
        self.broadcast(
            StructuralVote(
                protocol=self._structure.name, view=view, phase_index=phase, log=leader_log
            )
        )
        self._bus.emit_vote_phase(
            VotePhaseEvent(
                time=self.now,
                protocol=self._structure.name,
                view=view,
                phase_label=f"phase-{phase}",
                validator=self.validator_id,
                log=leader_log,
            )
        )

    def _decide(self, view: int) -> None:
        final_phase = self._structure.phases_success_view
        votes = self._phase_votes(view, final_phase)
        total = len(votes)
        decided_log: Log | None = None
        if total:
            counts: dict[Log, int] = {}
            for log in votes.values():
                counts[log] = counts.get(log, 0) + 1
            best_log, best_count = max(counts.items(), key=lambda kv: (kv[1], len(kv[0])))
            if 2 * best_count > total and best_log.is_extension_of(self.head):
                decided_log = best_log
        if decided_log is not None:
            self.head = decided_log
            self.decided.append((self.now, decided_log))
            self._bus.emit_decision(
                DecisionEvent(
                    time=self.now, view=view, validator=self.validator_id, log=decided_log
                )
            )
            return
        # View change: the structure's extra failure phases, at Δ spacing.
        delta = self._config.delta
        extra = self._structure.phases_failure_view - self._structure.phases_success_view
        for j in range(1, extra + 1):
            self.schedule_timer(
                self.now + j * delta,
                lambda v=view, p=final_phase + j: self._failure_vote(v, p),
            )

    def _failure_vote(self, view: int, phase: int) -> None:
        """A view-change voting phase: vote for the current head."""

        self.broadcast(
            StructuralVote(
                protocol=self._structure.name, view=view, phase_index=phase, log=self.head
            )
        )
        self._bus.emit_vote_phase(
            VotePhaseEvent(
                time=self.now,
                protocol=self._structure.name,
                view=view,
                phase_label=f"phase-{phase}",
                validator=self.validator_id,
                log=self.head,
            )
        )

    # -- messages ---------------------------------------------------------------------------

    def handle_envelope(self, envelope: Envelope, time: int) -> None:
        payload = envelope.payload
        if isinstance(payload, ProposalMessage):
            if not 0 <= payload.view < self._config.num_views:
                return
            if self._book(payload.view).handle(envelope) and self._structure.forwards_messages:
                self.forward(envelope)
        elif isinstance(payload, StructuralVote):
            if payload.protocol != self._structure.name:
                return
            votes = self._phase_votes(payload.view, payload.phase_index)
            sender = envelope.sender
            is_new_for_count = sender not in votes
            if is_new_for_count:
                votes[sender] = payload.log
            if self._structure.forwards_messages:
                forward_key = (sender, payload.view, payload.phase_index)
                seen = self._vote_forward_counts.get(forward_key, 0)
                if seen < 2:
                    self._vote_forward_counts[forward_key] = seen + 1
                    self.forward(envelope)


class StructuralEquivocator(ByzantineValidator):
    """Split-proposal attacker for structural runs (the bad-leader event)."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
        context: StructuralContext,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._context = context

    def setup(self) -> None:
        for view in range(self._context.config.num_views):
            self.at(self._context.view_start(view), lambda v=view: self._attack(v))

    def _attack(self, view: int) -> None:
        reference = self._honest_reference()
        if reference is None:
            return
        head = reference.head
        vrf_output = self._context.vrf.evaluate(self.validator_id, view)
        honest = [
            vid
            for vid in self._network.node_ids
            if isinstance(self._network.node(vid), StructuralTobValidator)
        ]
        others = [vid for vid in self._network.node_ids if vid not in honest]
        group_a, group_b = honest[0::2] + others, honest[1::2]
        delta = self._network.delta
        log_a = head.append_block(
            [Transaction(tx_id=-2 * view - 2, payload="byz-a")],
            proposer=self.validator_id,
            view=view,
        )
        log_b = head.append_block(
            [Transaction(tx_id=-2 * view - 3, payload="byz-b")],
            proposer=self.validator_id,
            view=view,
        )
        self.split_send(
            ProposalMessage(view=view, log=log_a, vrf=vrf_output),
            ProposalMessage(view=view, log=log_b, vrf=vrf_output),
            group_a,
            group_b,
            delay=delta,
        )
        # Cast one vote for a third branch in the decisive phase: it adds
        # this sender to the quorum denominator without supporting either
        # split branch, so an odd honest split cannot reach a majority.
        junk = head.append_block(
            [Transaction(tx_id=-2 * view - 4, payload="byz-c")],
            proposer=self.validator_id,
            view=view,
        )
        final_phase = self._context.structure.phases_success_view
        vote = StructuralVote(
            protocol=self._context.structure.name,
            view=view,
            phase_index=final_phase,
            log=junk,
        )
        self.at(
            self.now + final_phase * self._network.delta,
            lambda payload=vote: self.broadcast(payload),
        )

    def _honest_reference(self) -> StructuralTobValidator | None:
        for vid in self._network.node_ids:
            node = self._network.node(vid)
            if isinstance(node, StructuralTobValidator):
                return node
        return None


StructuralByzFactory = Callable[
    [int, SigningKey, Simulator, Network, TraceBus, StructuralContext], ByzantineValidator
]


@dataclass
class StructuralResult:
    """Outcome of one structural baseline run."""

    structure: ProtocolStructure
    config: StructuralConfig
    trace: Trace | None
    network: Network
    simulator: Simulator
    validators: dict[int, StructuralTobValidator]
    context: StructuralContext
    _decided_cache: dict[int, Log] = field(default_factory=dict)
    analysis: StreamingAnalyzer | None = None
    observability: Observability | None = None

    def decided_logs(self) -> dict[int, Log]:
        return {vid: val.head for vid, val in self.validators.items()}

    def successful_views(self) -> set[int]:
        if self.trace is not None:
            return {event.view for event in self.trace.decisions}
        if self.analysis is None:
            raise ValueError("run executed with tracing off")
        return set(self.analysis.decided_views)


class StructuralTob(World):
    """Builds and runs a structural baseline execution."""

    def __init__(
        self,
        structure: ProtocolStructure,
        config: StructuralConfig,
        schedule: AwakeSchedule | None = None,
        corruption: CorruptionPlan | None = None,
        byzantine_factory: StructuralByzFactory | None = None,
        delay_policy: DelayPolicy | None = None,
        pool: TransactionPool | None = None,
        trace_mode: str = "full",
        registry: KeyRegistry | None = None,
        hosted: frozenset[int] | None = None,
    ) -> None:
        if structure.best_case_latency_deltas > structure.view_length_deltas:
            raise ValueError(
                "structural simulator requires decisions to land within the view; "
                f"{structure.name} has best-case {structure.best_case_latency_deltas}Δ "
                f"> view {structure.view_length_deltas}Δ (use the real protocol instead)"
            )
        super().__init__(
            config.n,
            config.delta,
            config.seed,
            schedule=schedule,
            corruption=corruption,
            delay_policy=delay_policy,
            trace_mode=trace_mode,
            registry=registry,
            hosted=hosted,
        )
        self.structure = structure
        self.config = config
        self.pool = pool if pool is not None else TransactionPool()
        self.context = StructuralContext(
            structure=structure,
            config=config,
            vrf=VRF(seed=config.seed),
            pool=self.pool,
            registry=self.registry,
        )
        factory = byzantine_factory if byzantine_factory is not None else StructuralEquivocator
        self.populate(
            self.corruption.initial_byzantine,
            lambda *wiring: StructuralTobValidator(*wiring, self.context),
            lambda *wiring: factory(*wiring, self.context),
        )

    @property
    def horizon(self) -> int:
        return (
            self.context.view_start(self.config.num_views)
            + self.structure.phases_failure_view * self.config.delta
        )

    def run(self) -> StructuralResult:
        self.run_to(self.horizon)
        return StructuralResult(
            structure=self.structure,
            config=self.config,
            trace=self.trace,
            network=self.network,
            simulator=self.simulator,
            validators=self.validators,
            context=self.context,
            analysis=self.observability.analysis,
            observability=self.observability,
        )
