"""Standalone Graded Agreement runs.

The TOB protocol embeds GA instances into its view schedule, but the
paper's Theorems 1 and 2 are statements about a *single* GA execution.
:class:`GaHostValidator` is an honest validator that runs exactly one GA
instance — input at local time 0, snapshots and output phases on the
spec's Delta marks — and records what it output at every grade.

:func:`run_standalone_ga` wires a full single-instance experiment:
validators (honest hosts plus caller-supplied Byzantine nodes), network,
sleep schedule, and returns each validator's outputs, which is what the
GA property tests and the Figure-1/Figure-2 experiments consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.chain.log import Log
from repro.crypto.signatures import SigningKey
from repro.core.ga import GaInstance, GaSpec
from repro.core.validator import BaseValidator
from repro.core.world import NodeFactory, World
from repro.net.delays import DelayPolicy
from repro.net.messages import Envelope, LogMessage
from repro.net.network import Network
from repro.sim.simulator import Simulator
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from repro.trace import GaOutputEvent, Trace, VotePhaseEvent
from repro.tracebus import Observability, TraceBus

if TYPE_CHECKING:  # pragma: no cover - annotation-only, avoids analysis cycle
    from repro.analysis.streaming import StreamingAnalyzer


class GaHostValidator(BaseValidator):
    """An honest validator executing one GA instance."""

    def __init__(
        self,
        validator_id: int,
        key: SigningKey,
        simulator: Simulator,
        network: Network,
        trace: TraceBus,
        spec: GaSpec,
        ga_key: tuple,
        start_time: int,
        input_log: Log | None,
    ) -> None:
        super().__init__(validator_id, key, simulator, network, trace)
        self.ga = GaInstance(spec, ga_key, start_time, network.delta)
        self._input_log = input_log
        self.outputs: dict[int, list[Log] | None] = {
            spec_grade.grade: None for spec_grade in spec.grades
        }

    def setup(self) -> None:
        """Register the instance's timers (call once, before running)."""

        spec = self.ga.spec
        self.schedule_timer(self.ga.start_time, self._input_phase)
        for offset in spec.snapshot_offsets:
            self.schedule_timer(
                self.ga.time_of_snapshot(offset), lambda o=offset: self.ga.take_snapshot(o)
            )
        for grade_spec in spec.grades:
            self.schedule_timer(
                self.ga.time_of_output(grade_spec.grade),
                lambda g=grade_spec.grade: self._output_phase(g),
            )

    # -- phases -------------------------------------------------------------

    def _input_phase(self) -> None:
        if self._input_log is None:
            return
        payload = self.ga.note_input(self._input_log)
        self.broadcast(payload)
        self._bus.emit_vote_phase(
            VotePhaseEvent(
                time=self.now,
                protocol=self.ga.spec.name,
                view=0,
                phase_label="input",
                validator=self.validator_id,
                log=self._input_log,
            )
        )

    def _output_phase(self, grade: int) -> None:
        outputs = self.ga.compute_outputs(grade)
        self.outputs[grade] = outputs
        if outputs is None:
            return
        for log in outputs:
            self._bus.emit_ga_output(
                GaOutputEvent(
                    time=self.now,
                    ga_key=self.ga.key,
                    validator=self.validator_id,
                    log=log,
                    grade=grade,
                )
            )

    # -- messages ------------------------------------------------------------

    def handle_envelope(self, envelope: Envelope, time: int) -> None:
        payload = envelope.payload
        if not isinstance(payload, LogMessage) or tuple(payload.ga_key) != tuple(self.ga.key):
            return
        outcome = self.ga.handle_log(envelope)
        if outcome.should_forward:
            self.forward(envelope)


@dataclass
class GaRunResult:
    """Outcome of one standalone GA execution."""

    outputs: dict[int, dict[int, list[Log] | None]]
    trace: Trace | None
    network: Network
    simulator: Simulator
    honest_ids: frozenset[int] = field(default_factory=frozenset)
    analysis: StreamingAnalyzer | None = None
    observability: Observability | None = None

    def participating(self, grade: int) -> dict[int, list[Log]]:
        """Honest validators that participated in the output phase for ``grade``."""

        return {
            vid: outs[grade]
            for vid, outs in self.outputs.items()
            if vid in self.honest_ids and outs[grade] is not None
        }

    def highest_output(self, vid: int, grade: int) -> Log | None:
        outs = self.outputs[vid].get(grade)
        if not outs:
            return None
        return outs[-1]


def run_standalone_ga(
    spec: GaSpec,
    n: int,
    delta: int,
    inputs: dict[int, Log | None],
    schedule: AwakeSchedule | None = None,
    corruption: CorruptionPlan | None = None,
    byzantine_factory: NodeFactory | None = None,
    delay_policy: DelayPolicy | None = None,
    seed: int = 0,
    extra_ticks: int = 0,
    trace_mode: str = "full",
) -> GaRunResult:
    """Execute one GA instance over the full validator set.

    Args:
        spec: GA2_SPEC or GA3_SPEC (or a custom shape for ablations).
        n: Validator count.
        delta: Network delay bound in ticks.
        inputs: Per-honest-validator input logs (None = no input).
        schedule: Awake schedule; default always-awake.
        corruption: Byzantine set; default none.
        byzantine_factory: Builds the node object for each Byzantine id.
        delay_policy: Delivery delays; default worst-case UniformDelay.
        seed: Simulator seed.
        extra_ticks: Extra run time past the GA end (adversary tails).
    """

    corruption = corruption if corruption is not None else CorruptionPlan.none()
    world = World(
        n, delta, seed, schedule=schedule, corruption=corruption,
        delay_policy=delay_policy, trace_mode=trace_mode,
    )
    world.populate(
        corruption.ever_byzantine(),
        lambda vid, *wiring: GaHostValidator(
            vid, *wiring, spec, ga_key=(spec.name, 0), start_time=0,
            input_log=inputs.get(vid),
        ),
        byzantine_factory,
    )
    world.run_to(spec.duration_deltas * delta + extra_ticks)
    return GaRunResult(
        outputs={vid: dict(host.outputs) for vid, host in world.validators.items()},
        trace=world.trace,
        network=world.network,
        simulator=world.simulator,
        honest_ids=frozenset(world.validators),
        analysis=world.observability.analysis,
        observability=world.observability,
    )
