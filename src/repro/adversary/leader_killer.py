"""The adaptive leader-corruption attack of Section 3.3.

The paper motivates mild adaptivity with this exact attack: "Between time
t and t + Δ, an adaptive adversary can observe the highest VRF value and
corrupt its sender, then have it deliver an equivocating proposal only to
a subset of the honest validators."

* **Fully adaptive** (``mildly_adaptive=False``, *outside* the model): the
  corruption takes effect at ``t_v`` itself — before the leader's propose
  timer — and the adversary equivocates with the leader's key, splitting
  the honest vote.  Attacked views produce no new block.
* **Mildly adaptive** (``mildly_adaptive=True``, the paper's model): the
  corruption takes effect at ``t_v + Δ``.  The leader has already
  broadcast its single honest proposal at ``t_v``; the adversary's
  equivocation cannot reach anyone before the vote deadline, so the view
  succeeds anyway.  (Lemma 2 survives.)

Because the VRF is deterministic, the per-view leaders are computable
ahead of the run, which is how :func:`plan_leader_corruption` builds the
:class:`CorruptionPlan` the protocol needs at construction time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.chain.transactions import Transaction
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol, TobSvdValidator
from repro.crypto.vrf import VRF
from repro.net.messages import ProposalMessage
from repro.net.network import Envelope
from repro.sim.simulator import EventPriority
from repro.sleepy.corruption import CorruptionPlan


@dataclass(frozen=True)
class PlannedKill:
    """One view attack: corrupt ``leader`` for ``view``."""

    view: int
    leader: int
    scheduled_at: int
    effective_at: int


def plan_leader_corruption(
    config: TobSvdConfig,
    views_to_attack: list[int],
    mildly_adaptive: bool,
) -> tuple[CorruptionPlan, list[PlannedKill]]:
    """Choose and schedule the per-view leader corruptions.

    For each attacked view the victim is the highest-VRF validator still
    honest at that point.  With mild adaptivity the corruption scheduled
    at ``t_v`` only lands at ``t_v + Δ``; without it, at ``t_v``.
    """

    vrf = VRF(seed=config.seed)
    time = config.time
    plan = CorruptionPlan.none()
    kills: list[PlannedKill] = []
    corrupted: set[int] = set()
    for view in sorted(views_to_attack):
        if view >= config.num_views:
            raise ValueError(f"view {view} beyond the configured horizon")
        honest = [vid for vid in range(config.n) if vid not in corrupted]
        if not honest:
            break
        leader = vrf.best(honest, view).validator_id
        t_v = time.view_start(view)
        plan = plan.with_corruption(
            scheduled_at=t_v,
            validator=leader,
            delta=config.delta,
            mildly_adaptive=mildly_adaptive,
        )
        lag = config.delta if mildly_adaptive else 0
        kills.append(
            PlannedKill(
                view=view, leader=leader, scheduled_at=t_v, effective_at=t_v + lag
            )
        )
        corrupted.add(leader)
    return plan, kills


class LeaderKillerDriver:
    """Executes the equivocation half of the attack on a built protocol.

    Construct the protocol with the plan from :func:`plan_leader_corruption`,
    then ``driver.install()`` before ``protocol.run()``.
    """

    def __init__(self, protocol: TobSvdProtocol, kills: list[PlannedKill]) -> None:
        self._protocol = protocol
        self._kills = list(kills)

    def install(self) -> None:
        for kill in self._kills:
            self._protocol.simulator.schedule_callback(
                kill.effective_at, EventPriority.TIMER, partial(self._equivocate, kill)
            )

    def _equivocate(self, kill: PlannedKill) -> None:
        """Send two conflicting proposals with the freshly-corrupted key."""

        protocol = self._protocol
        reference = self._honest_reference(exclude=kill.leader)
        if reference is None:
            return
        candidate = reference.peek_candidate(kill.view)
        if candidate is None:
            return
        vrf_output = protocol.context.vrf.evaluate(kill.leader, kill.view)
        key = protocol.registry.key_for(kill.leader)  # the adversary owns it now
        honest = sorted(
            vid for vid, node in protocol.validators.items() if not node.corrupted
        )
        others = [vid for vid in protocol.network.node_ids if vid not in honest]
        halves = (honest[0::2] + others, honest[1::2])
        delta = protocol.config.delta
        logs: list = []
        for half_index, half in enumerate(halves):
            fake = Transaction(
                tx_id=-9000 - 2 * kill.view - half_index,
                payload=f"kill-{kill.view}-{half_index}",
                submitted_at=0,
            )
            log = candidate.append_block([fake], proposer=kill.leader, view=kill.view)
            logs.append(log)
            payload = ProposalMessage(view=kill.view, log=log, vrf=vrf_output)
            envelope = Envelope(payload=payload, signature=key.sign(payload.digest()))
            for recipient in half:
                protocol.network.send_direct(envelope, recipient, delay=delta)
        # Inflate |S| of GA_view with an equivocation from the killed leader,
        # so an odd honest split cannot give either branch a strict majority.
        from repro.net.messages import LogMessage

        ga_key = ("tobsvd", kill.view)
        for log in logs:
            payload = LogMessage(ga_key=ga_key, log=log)
            envelope = Envelope(payload=payload, signature=key.sign(payload.digest()))
            for recipient in protocol.network.node_ids:
                protocol.network.send_direct(envelope, recipient, delay=delta)

    def _honest_reference(self, exclude: int) -> TobSvdValidator | None:
        for vid, validator in self._protocol.validators.items():
            if vid != exclude and not validator.corrupted:
                return validator
        return None


def plan_leader_corruption_run(
    config: TobSvdConfig,
    views_to_attack: list[int],
    mildly_adaptive: bool,
) -> tuple[TobSvdProtocol, LeaderKillerDriver, list[PlannedKill]]:
    """Convenience: build protocol + driver for the A4 ablation."""

    plan, kills = plan_leader_corruption(config, views_to_attack, mildly_adaptive)
    protocol = TobSvdProtocol(config, corruption=plan)
    driver = LeaderKillerDriver(protocol, kills)
    driver.install()
    return protocol, driver, kills
