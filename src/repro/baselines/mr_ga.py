"""Momose-Ren Graded Agreement (paper Section 4), implemented in full.

The protocol, for a validator inputting Λ:

1. ``t = 0``: broadcast ``<LOG, Λ>``.
2. ``t = Δ``: store ``V^Δ`` (non-equivocating senders only).
3. ``t = 2Δ``: send a ``VOTE`` for every Λ with ``|X^2Δ_Λ| > |S^2Δ|/2``,
   where ``X_Λ`` counts **all** senders of messages extending Λ,
   equivocators included.
4. ``t = 3Δ``: output ``(Λ, 1)`` if ``|V^Δ_Λ| > |S^3Δ|/2``; output
   ``(Λ, 0)`` if the senders voting for extensions of Λ are a majority of
   all vote senders.

Two deliberate deficiencies relative to the paper's own GA-2 (Figure 1),
both exercised by tests:

* because ``X`` counts equivocators, an equivocating sender supports two
  conflicting logs at once, so **Uniqueness fails at grade 0** — two
  conflicting logs can simultaneously clear the vote quorum (Section 4's
  closing remark);
* grade-1 outputs use ``V^Δ`` alone (no ``∩ V^3Δ``), i.e. the equivocator
  set is *not* time-shifted.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.log import Log
from repro.core.quorum import meets_quorum
from repro.core.state import LogView
from repro.core.validator import BaseValidator
from repro.core.world import World
from repro.crypto.signatures import SigningKey
from repro.net.delays import DelayPolicy
from repro.net.messages import Envelope, LogMessage, VoteMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.trace import GaOutputEvent, Trace, VotePhaseEvent
from repro.tracebus import Observability, TraceBus

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids analysis cycle
    from repro.analysis.streaming import StreamingAnalyzer

MR_GA_NAME = "mr-ga"
MR_DURATION_DELTAS = 3


class _XTracker:
    """``X_Λ``: supporters including equivocators, up to two logs per sender."""

    def __init__(self) -> None:
        self._logs_by_sender: dict[int, list[Log]] = defaultdict(list)

    def record(self, sender: int, log: Log) -> bool:
        """Track up to two distinct logs per sender; True if newly recorded."""

        logs = self._logs_by_sender[sender]
        if log in logs or len(logs) >= 2:
            return False
        logs.append(log)
        return True

    def supporters_of(self, log: Log) -> set[int]:
        return {
            sender
            for sender, logs in self._logs_by_sender.items()
            if any(candidate.is_extension_of(log) for candidate in logs)
        }

    def candidate_logs(self) -> set[Log]:
        """Every prefix of every recorded log (the quorum candidates)."""

        candidates: set[Log] = set()
        for logs in self._logs_by_sender.values():
            for log in logs:
                candidates.update(log.all_prefixes())
        return candidates


class _VoteTracker:
    """Received VOTE messages: up to two distinct votes per sender."""

    def __init__(self) -> None:
        self._votes_by_sender: dict[int, list[Log]] = defaultdict(list)

    def record(self, sender: int, log: Log) -> bool:
        votes = self._votes_by_sender[sender]
        if log in votes or len(votes) >= 2:
            return False
        votes.append(log)
        return True

    def vote_senders(self) -> set[int]:
        return set(self._votes_by_sender)

    def senders_voting_for(self, log: Log) -> set[int]:
        return {
            sender
            for sender, votes in self._votes_by_sender.items()
            if any(vote.is_extension_of(log) for vote in votes)
        }

    def candidate_logs(self) -> set[Log]:
        candidates: set[Log] = set()
        for votes in self._votes_by_sender.values():
            for log in votes:
                candidates.update(log.all_prefixes())
        return candidates


class MrGaHostValidator(BaseValidator):
    """An honest validator executing one Momose-Ren GA instance."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
        ga_key: tuple,
        start_time: int,
        input_log: Log | None,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self._ga_key = ga_key
        self._start = start_time
        self._input_log = input_log
        self._delta = network.delta
        self._view_state = LogView()  # V and E, equivocations removed
        self._x = _XTracker()  # X, equivocations included
        self._votes = _VoteTracker()
        self._v_delta: frozenset | None = None  # V^Δ snapshot
        self._was_awake_at_delta = False
        self.outputs: dict[int, list[Log] | None] = {0: None, 1: None}
        self.voted_for: list[Log] = []

    def setup(self) -> None:
        delta = self._delta
        self.schedule_timer(self._start, self._input_phase)
        self.schedule_timer(self._start + delta, self._store_phase)
        self.schedule_timer(self._start + 2 * delta, self._vote_phase)
        self.schedule_timer(self._start + 3 * delta, self._output_phase)

    # -- phases ------------------------------------------------------------------

    def _input_phase(self) -> None:
        if self._input_log is None:
            return
        self.broadcast(LogMessage(ga_key=self._ga_key, log=self._input_log))
        self._bus.emit_vote_phase(
            VotePhaseEvent(
                time=self.now,
                protocol=MR_GA_NAME,
                view=0,
                phase_label="input",
                validator=self.validator_id,
                log=self._input_log,
            )
        )

    def _store_phase(self) -> None:
        self._v_delta = self._view_state.pairs()
        self._was_awake_at_delta = True

    def _vote_phase(self) -> None:
        sender_count = self._view_state.sender_count()  # |S^2Δ|
        majority = [
            log
            for log in self._x.candidate_logs()
            if meets_quorum(len(self._x.supporters_of(log)), sender_count)
        ]
        # Vote only for the maximal majority logs: a VOTE for Λ counts for
        # every prefix of Λ in the grade-0 tally, and the 2-votes-per-sender
        # forwarding cap must not truncate honest voting on long chains.
        maximal = [
            log
            for log in majority
            if not any(other != log and other.is_extension_of(log) for other in majority)
        ]
        for log in sorted(maximal, key=lambda l: (len(l), l.log_id)):
            self.voted_for.append(log)
            self.broadcast(VoteMessage(ga_key=self._ga_key, log=log))
            self._bus.emit_vote_phase(
                VotePhaseEvent(
                    time=self.now,
                    protocol=MR_GA_NAME,
                    view=0,
                    phase_label="vote",
                    validator=self.validator_id,
                    log=log,
                )
            )

    def _output_phase(self) -> None:
        sender_count = self._view_state.sender_count()  # |S^3Δ|
        # Grade 1: |V^Δ_Λ| > |S^3Δ| / 2, only if awake at Δ.
        if self._was_awake_at_delta and self._v_delta is not None:
            grade1: list[Log] = []
            candidates: set[Log] = set()
            for _sender, log in self._v_delta:
                candidates.update(log.all_prefixes())
            for log in sorted(candidates, key=lambda l: (len(l), l.log_id)):
                support = {
                    sender
                    for sender, recorded in self._v_delta
                    if recorded.is_extension_of(log)
                }
                if meets_quorum(len(support), sender_count):
                    grade1.append(log)
            self.outputs[1] = grade1
            self._emit_outputs(grade1, grade=1)
        # Grade 0: majority of vote senders voted for an extension of Λ.
        total_vote_senders = len(self._votes.vote_senders())
        grade0: list[Log] = []
        for log in sorted(self._votes.candidate_logs(), key=lambda l: (len(l), l.log_id)):
            if meets_quorum(len(self._votes.senders_voting_for(log)), total_vote_senders):
                grade0.append(log)
        self.outputs[0] = grade0
        self._emit_outputs(grade0, grade=0)

    def _emit_outputs(self, logs: list[Log], grade: int) -> None:
        for log in logs:
            self._bus.emit_ga_output(
                GaOutputEvent(
                    time=self.now,
                    ga_key=self._ga_key,
                    validator=self.validator_id,
                    log=log,
                    grade=grade,
                )
            )

    # -- messages --------------------------------------------------------------------

    def handle_envelope(self, envelope: Envelope, time: int) -> None:
        payload = envelope.payload
        if isinstance(payload, LogMessage) and tuple(payload.ga_key) == tuple(self._ga_key):
            newly_tracked = self._x.record(envelope.sender, payload.log)
            outcome = self._view_state.handle(envelope)
            if outcome.should_forward or newly_tracked:
                self.forward(envelope)
        elif isinstance(payload, VoteMessage) and tuple(payload.ga_key) == tuple(self._ga_key):
            if self._votes.record(envelope.sender, payload.log):
                self.forward(envelope)


@dataclass
class MrGaRunResult:
    """Outcome of one standalone MR-GA execution."""

    outputs: dict[int, dict[int, list[Log] | None]]
    trace: Trace | None
    network: Network
    simulator: Simulator
    honest_ids: frozenset[int] = field(default_factory=frozenset)
    analysis: StreamingAnalyzer | None = None
    observability: Observability | None = None

    def participating(self, grade: int) -> dict[int, list[Log]]:
        return {
            vid: outs[grade]
            for vid, outs in self.outputs.items()
            if vid in self.honest_ids and outs[grade] is not None
        }


def run_mr_ga(
    n: int,
    delta: int,
    inputs: dict[int, Log | None],
    schedule: AwakeSchedule | None = None,
    corruption: CorruptionPlan | None = None,
    byzantine_factory=None,
    delay_policy: DelayPolicy | None = None,
    seed: int = 0,
    extra_ticks: int = 0,
    trace_mode: str = "full",
) -> MrGaRunResult:
    """Run one Momose-Ren GA instance (mirror of ``run_standalone_ga``)."""

    corruption = corruption if corruption is not None else CorruptionPlan.none()
    world = World(
        n, delta, seed, schedule=schedule, corruption=corruption,
        delay_policy=delay_policy, trace_mode=trace_mode,
    )
    world.populate(
        corruption.ever_byzantine(),
        lambda vid, *wiring: MrGaHostValidator(
            vid, *wiring, ga_key=(MR_GA_NAME, 0), start_time=0, input_log=inputs.get(vid)
        ),
        byzantine_factory,
    )
    world.run_to(MR_DURATION_DELTAS * delta + extra_ticks)
    return MrGaRunResult(
        outputs={vid: dict(host.outputs) for vid, host in world.validators.items()},
        trace=world.trace,
        network=world.network,
        simulator=world.simulator,
        honest_ids=frozenset(world.validators),
        analysis=world.observability.analysis,
        observability=world.observability,
    )
