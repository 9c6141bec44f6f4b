"""TOB-SVD — the Total-Order Broadcast protocol of paper Figure 4.

Views last 4Δ (``t_v = 4Δ·v``).  Each view ``v`` owns a k=3 Graded
Agreement instance ``GA_v`` running over ``[t_v + Δ, t_v + 6Δ]``, i.e.
spilling into view ``v+1`` and overlapping ``GA_{v+1}`` for one Δ
(Figure 3).  The view phases line up with the *previous* instance's output
phases:

=====================  =========================================
view-v phase (time)     GA event at the same tick
=====================  =========================================
Propose (``t_v``)       grade-0 output of ``GA_{v-1}`` → *candidate*
Vote (``t_v + Δ``)      grade-1 output of ``GA_{v-1}`` → *lock*;
                        input phase of ``GA_v``
Decide (``t_v + 2Δ``)   grade-2 output of ``GA_{v-1}`` → *decision*;
                        ``GA_v`` stores ``V^Δ``
(``t_v + 3Δ``)          ``GA_v`` stores ``V^2Δ``
=====================  =========================================

``GA_{-1}``'s outputs are defined to be the genesis log at every grade.
Any action whose required GA output is unavailable (the validator was
asleep at the participation-condition time) is skipped, including the LOG
broadcast at ``t_v + Δ``.

The protocol needs the (5Δ, 2Δ, ½)-sleepy model: T_b = 5Δ because GA
instances last 5Δ, and the T_s = 2Δ stabilization guarantees that a
validator inputting to ``GA_v`` was awake at ``t_v - Δ`` to compute its
lock (Section 6.3).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import TYPE_CHECKING, Callable

from repro.chain.log import Log
from repro.chain.transactions import TransactionPool
from repro.crypto.signatures import KeyRegistry, SigningKey
from repro.crypto.vrf import VRF
from repro.core.ga import GA3_SPEC, GaInstance
from repro.core.proposals import ProposalBook, RetiredProposalBook
from repro.core.state import HandleOutcome, Tombstone
from repro.core.validator import BaseValidator
from repro.core.world import World
from repro.net.delays import DelayPolicy
from repro.net.messages import Envelope, LogMessage, ProposalMessage
from repro.net.network import Network
from repro.sim.clock import TimeConfig
from repro.sim.simulator import Simulator
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.trace import DecisionEvent, GaOutputEvent, ProposalEvent, Trace, VotePhaseEvent
from repro.tracebus import Observability, TraceBus

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids analysis cycle
    from repro.analysis.streaming import StreamingAnalyzer

PROTOCOL_NAME = "tobsvd"

# Hot-path aliases for the forward decision (HandleOutcome.should_forward).
_ACCEPTED = HandleOutcome.ACCEPTED
_EQUIVOCATION = HandleOutcome.EQUIVOCATION

# The sleepy-model parameters TOB-SVD requires, in Delta units.
T_B_DELTAS = 5
T_S_DELTAS = 2
RHO = 0.5


@dataclass(frozen=True)
class TobSvdConfig:
    """Static parameters of one TOB-SVD run."""

    n: int
    num_views: int
    delta: int = 4
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("need at least one validator")
        if self.num_views < 1:
            raise ValueError("need at least one view")
        if self.delta < 1:
            raise ValueError("delta must be >= 1 tick")

    @property
    def time(self) -> TimeConfig:
        return TimeConfig(delta=self.delta, view_length_deltas=4)

    @property
    def horizon(self) -> int:
        """Last tick of interest: the wrap-up view's decide phase."""

        return self.time.view_start(self.num_views) + 3 * self.delta

    def sleepy_model(self) -> tuple[int, int, float]:
        """(T_b, T_s, rho) in ticks for compliance checking."""

        return (T_B_DELTAS * self.delta, T_S_DELTAS * self.delta, RHO)


class RetiredViewError(LookupError):
    """A retired view's GA outputs or proposals were asked for."""


@dataclass
class ProtocolContext:
    """Shared run facilities handed to validators (honest and Byzantine)."""

    config: TobSvdConfig
    vrf: VRF
    pool: TransactionPool
    registry: KeyRegistry


class TobSvdValidator(BaseValidator):
    """An honest TOB-SVD validator (Figure 4)."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
        context: ProtocolContext,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._context = context
        self._config = context.config
        self._num_views = context.config.num_views
        self._time = context.config.time
        self._genesis = Log.genesis()
        self._instances: dict[int, GaInstance] = {}
        self._books: dict[int, ProposalBook] = {}
        self._retired_below = 0  # views below it are tombstones only
        self._retired_logs: dict[int, Tombstone] = {}
        self._retired_books: dict[int, RetiredProposalBook] = {}
        self.decided: list[tuple[int, Log]] = []
        self.highest_decided: Log = self._genesis

    # -- lazy per-view state ---------------------------------------------------

    def _instance(self, view: int) -> GaInstance:
        """``GA_view`` (created lazily: LOG messages may precede our timer)."""

        instance = self._instances.get(view)
        if instance is None:
            if view < self._retired_below:
                raise RetiredViewError(f"view {view} is retired (live from {self._retired_below})")
            instance = GaInstance(
                GA3_SPEC,
                key=(PROTOCOL_NAME, view),
                start_time=self._time.view_start(view) + self._config.delta,
                delta=self._config.delta,
                ctx=self._run_ctx,
            )
            self._instances[view] = instance
        return instance

    def _book(self, view: int) -> ProposalBook:
        book = self._books.get(view)
        if book is None:
            book = ProposalBook(view, self._context.vrf)
            self._books[view] = book
        return book

    def _retire_views_below(self, floor: int) -> None:
        """Swap every live view below ``floor`` for its tombstones (a cursor:
        a validator that slept through several boundaries catches up)."""

        for view in range(self._retired_below, floor):
            instance = self._instances.pop(view, None)
            book = self._books.pop(view, None) or ProposalBook(view, self._context.vrf)
            self._retired_logs[view] = (
                instance.view_state.retire() if instance is not None else Tombstone()
            )
            self._retired_books[view] = book.retire()
        self._retired_below = max(self._retired_below, floor)
        self._context.vrf.retire_below(floor)

    def _ga_tip(self, view: int, grade: int) -> Log | None:
        """Highest output of ``GA_view`` at ``grade``; genesis for ``GA_{-1}``.

        ``None`` folds together "not participating" (missing snapshot)
        and "nothing cleared the quorum" — every phase skips in both
        cases.  Each phase a validator participates in with a non-empty
        output emits exactly one :class:`GaOutputEvent` carrying that
        highest log (the log every protocol action consumes); the full
        graded chain remains available via :meth:`peek_ga_outputs`.
        Tip-only computation + emission keep per-view cost flat as the
        chain grows (PERFORMANCE.md, delta LOG handling).
        """

        if view < 0:
            return self._genesis
        instance = self._instance(view)
        if not instance.can_participate(grade):
            return None
        tip = instance.compute_output_tip(grade)
        if tip is not None:
            self._bus.emit_ga_output(
                GaOutputEvent(
                    time=self.now,
                    ga_key=instance.key,
                    validator=self.validator_id,
                    log=tip,
                    grade=grade,
                )
            )
        return tip

    # -- introspection -----------------------------------------------------------

    def peek_ga_outputs(self, view: int, grade: int) -> list[Log] | None:
        """Compute ``GA_view``'s outputs at ``grade`` without trace emission.

        Used by adversaries (which may inspect any state) and by analysis
        code; unlike :meth:`_ga_tip` it has no side effects, and it
        returns the *full* graded chain, not just the highest log.
        Raises :class:`RetiredViewError` for a view retired at decide time.
        """

        if view < 0:
            return [self._genesis]
        instance = self._instance(view)
        if not instance.can_participate(grade):
            return None
        return instance.compute_outputs(grade)

    def peek_candidate(self, view: int) -> Log | None:
        """The candidate this validator would extend when proposing in ``view``."""

        outputs = self.peek_ga_outputs(view - 1, grade=0)
        if not outputs:
            return None
        return outputs[-1]

    # -- timers -------------------------------------------------------------------

    def setup(self) -> None:
        """Register all phase timers for views ``0 .. num_views``.

        The final (wrap-up) view runs its phases too so decisions carried
        by ``GA_{num_views - 1}`` still land.
        """

        self.install_phase_timers(0, self._config.num_views)

    def install_phase_timers(self, first_view: int, num_views: int) -> None:
        """Register phase timers for views ``first_view .. num_views``.

        ``setup`` covers the whole run (``first_view = 0``); snapshot forks
        that extend the horizon call this again with ``first_view`` set to
        the old ``num_views`` to add only the missing timers — the old
        wrap-up view already owns its decide timer, so that one is skipped.
        Callbacks are ``functools.partial`` over bound methods (not
        lambdas) so the simulator calendar stays picklable for snapshots.
        """

        delta = self._config.delta
        for view in range(first_view, num_views + 1):
            start = self._time.view_start(view)
            if view < num_views:
                self.schedule_timer(start, partial(self._propose_phase, view))
                self.schedule_timer(start + delta, partial(self._vote_phase, view))
            if first_view == 0 or view > first_view:
                self.schedule_timer(start + 2 * delta, partial(self._decide_phase, view))
            if view < num_views:
                self.schedule_timer(start + 3 * delta, partial(self._second_snapshot_phase, view))

    def adopt_config(self, config: TobSvdConfig) -> None:
        """Point this validator at an updated run config (horizon extension)."""

        self._config = config
        self._num_views = config.num_views

    # -- the four phases of Figure 4 --------------------------------------------------

    def _propose_phase(self, view: int) -> None:
        """Propose (t = t_v): extend the grade-0 *candidate* of GA_{v-1}."""

        candidate = self._ga_tip(view - 1, grade=0)
        if candidate is None:  # not participating, or no candidate output
            return
        batch = self._context.pool.pending_for_log(candidate, before=self.now)
        proposal_log = candidate.append_block(batch, proposer=self.validator_id, view=view)
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

    def _vote_phase(self, view: int) -> None:
        """Vote (t = t_v + Δ): input to GA_v a proposal extending the lock."""

        lock = self._ga_tip(view - 1, grade=1)
        if lock is None:  # asleep at t_v - Δ, or no grade-1 output: skip
            return
        best = self._book(view).best_extending(lock)
        input_log = best.message.log if best is not None else lock
        instance = self._instance(view)
        payload = instance.note_input(input_log)
        self.broadcast(payload)
        self._bus.emit_vote_phase(
            VotePhaseEvent(
                time=self.now,
                protocol=PROTOCOL_NAME,
                view=view,
                phase_label="vote",
                validator=self.validator_id,
                log=input_log,
            )
        )

    def _decide_phase(self, view: int) -> None:
        """Decide (t = t_v + 2Δ), store GA_v's V^Δ snapshot, retire old views.

        No timer of view ``v`` or later reads a GA instance or book older
        than ``v - 1``; one more view of margin keeps ``v - 2`` live too.
        """

        decided = self._ga_tip(view - 1, grade=2)
        if decided is not None:
            self.decided.append((self.now, decided))
            if len(decided) > len(self.highest_decided):
                self.highest_decided = decided
            self._bus.emit_decision(
                DecisionEvent(
                    time=self.now, view=view, validator=self.validator_id, log=decided
                )
            )
        if view < self._config.num_views:
            self._instance(view).take_snapshot(1)
        self._retire_views_below(view - 2)

    def _second_snapshot_phase(self, view: int) -> None:
        """t = t_v + 3Δ: nothing but GA_v's V^2Δ snapshot."""

        self._instance(view).take_snapshot(2)

    # -- message handling ---------------------------------------------------------------

    def handle_envelope(self, envelope: Envelope, time: int) -> None:
        payload = envelope.payload
        if isinstance(payload, LogMessage):
            key = payload.ga_key
            if len(key) != 2 or key[0] != PROTOCOL_NAME:
                return
            view = key[1]
            if not isinstance(view, int) or not 0 <= view <= self._num_views:
                return
            instance = self._instances.get(view)
            if instance is not None:
                outcome = instance.view_state.handle(envelope)
            else:  # a retired view, or one with no LOG yet
                state = self._retired_logs.get(view) or self._instance(view).view_state
                outcome = state.handle(envelope)
            if outcome is _ACCEPTED or outcome is _EQUIVOCATION:
                self.forward(envelope)
        elif isinstance(payload, ProposalMessage):
            view = payload.view
            if not 0 <= view <= self._num_views:
                return
            book = self._books.get(view) or self._retired_books.get(view) or self._book(view)
            if book.handle(envelope):
                self.forward(envelope)


ByzantineFactory = Callable[
    [int, SigningKey, Simulator, Network, TraceBus, ProtocolContext], object
]


@dataclass
class TobSvdResult:
    """Everything a finished run exposes to the analysis layer.

    ``trace`` is the full-event recorder and is ``None`` under bounded/off
    retention; ``analysis`` carries the streaming reducers (``None`` only
    when tracing is off) and is the preferred measurement source — it is
    identical between retention modes by construction.
    """

    config: TobSvdConfig
    trace: Trace | None
    network: Network
    simulator: Simulator
    validators: dict[int, TobSvdValidator]
    context: ProtocolContext
    schedule: AwakeSchedule
    corruption: CorruptionPlan
    analysis: StreamingAnalyzer | None = None
    observability: Observability | None = None
    fault_plan: object | None = None

    @property
    def honest_ids(self) -> frozenset[int]:
        return frozenset(self.validators)

    def all_decisions_compatible(self) -> bool:
        """The Safety property over the whole trace."""

        if self.trace is None:
            if self.analysis is None:
                raise ValueError("run executed with tracing off")
            return self.analysis.safety().safe
        logs = [event.log for event in self.trace.decisions]
        return all(
            a.compatible_with(b) for i, a in enumerate(logs) for b in logs[i + 1 :]
        )

    def decided_logs(self) -> dict[int, Log]:
        """Highest decided log per honest validator."""

        return {vid: val.highest_decided for vid, val in self.validators.items()}


class TobSvdProtocol(World):
    """Builds and runs one TOB-SVD execution."""

    def __init__(
        self,
        config: TobSvdConfig,
        schedule: AwakeSchedule | None = None,
        corruption: CorruptionPlan | None = None,
        byzantine_factory: ByzantineFactory | None = None,
        delay_policy: DelayPolicy | None = None,
        pool: TransactionPool | None = None,
        validator_class: type[TobSvdValidator] | None = None,
        buffer_while_asleep: bool = True,
        trace_mode: str = "full",
        registry: KeyRegistry | None = None,
        fault_plan=None,
        hosted: frozenset[int] | None = None,
    ) -> None:
        super().__init__(
            config.n,
            config.delta,
            config.seed,
            schedule=schedule,
            corruption=corruption,
            delay_policy=delay_policy,
            trace_mode=trace_mode,
            registry=registry,
            buffer_while_asleep=buffer_while_asleep,
            fault_plan=fault_plan,
            hosted=hosted,
        )
        self.config = config
        self.pool = pool if pool is not None else TransactionPool()
        self.context = ProtocolContext(
            config=config,
            vrf=VRF(seed=config.seed),
            pool=self.pool,
            registry=self.registry,
        )
        validator_class = validator_class if validator_class is not None else TobSvdValidator
        self.populate(
            self.corruption.initial_byzantine,
            lambda *wiring: validator_class(*wiring, self.context),
            None
            if byzantine_factory is None
            else lambda *wiring: byzantine_factory(*wiring, self.context),
        )

    @property
    def horizon(self) -> int:
        return self.config.horizon

    def run(self) -> TobSvdResult:
        """Execute the configured number of views and return the result."""

        self.start()
        self.advance(self.horizon)
        return self.finish()

    # -- staged execution (snapshot/fork entry points) ---------------------

    def extend_horizon(self, new_num_views: int) -> None:
        """Grow a started run to ``new_num_views`` (snapshot-fork override).

        Installs only what the extension window is missing — the
        controller's events in ``(old horizon, new horizon]``, then phase
        timers — in the order :meth:`start` uses, so every calendar bucket
        ends up ordered as in a from-genesis run of the longer horizon.
        """

        old = self.config.num_views
        if new_num_views <= old:
            raise ValueError(
                f"extend_horizon needs num_views > {old}, got {new_num_views}"
            )
        if not self._started:
            raise RuntimeError("extend_horizon() only applies to a started run")
        old_horizon = self.config.horizon
        config = replace(self.config, num_views=new_num_views)
        self.config = config
        self.context.config = config
        self.controller.install(config.horizon, after=old_horizon)
        for validator in self.validators.values():
            validator.adopt_config(config)
            validator.install_phase_timers(old, new_num_views)
        for node in self.byzantine_nodes.values():
            extend = getattr(node, "extend_views", None)
            if callable(extend):
                extend(old, new_num_views)

    def finish(self) -> TobSvdResult:
        """Package the current state as a result (any time after start).

        Fails with :class:`~repro.net.network.AwakeMaskError` if something
        changed a validator's ``awake`` flag behind the network's back — a
        stale asleep mask would have silently skipped a sleeping node.
        """

        self.network.check_awake_mask()
        return TobSvdResult(
            config=self.config,
            trace=self.trace,
            network=self.network,
            simulator=self.simulator,
            validators=self.validators,
            context=self.context,
            schedule=self.schedule,
            corruption=self.corruption,
            analysis=self.observability.analysis,
            observability=self.observability,
            fault_plan=self.fault_plan,
        )
