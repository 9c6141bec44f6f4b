"""Whole-run oracle for run-time view retirement.

Every honest validator retires a finished view's GA instance and proposal
book to a two-mask tombstone at its decide phase.  The oracle is the same
world built with :class:`~tests.naive_oracles.NeverRetiringValidator`,
which keeps every view live.  Honest traffic never reaches a retired view
(the last LOG or PROPOSAL of view ``w`` lands long before ``w`` retires),
so a test-only attacker, :class:`StaleViewAttacker`, sends to retired views
on purpose: first messages, equivocating pairs, a third distinct log from
a known equivocator, re-signed duplicates and stolen-VRF proposals.  The
two runs must agree on decision bytes, message counts and event count.
"""

from __future__ import annotations

import random
from functools import partial

import pytest

from repro.adversary.tob_attackers import (
    TobEquivocatingProposer,
    _fake_transaction,
    _TobByzantineBase,
)
from repro.chain.log import Log
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol, TobSvdValidator
from repro.faults import FaultSpec
from repro.harness import stable_scenario
from repro.harness.scenarios import compile_checked_fault_plan
from repro.net.messages import LogMessage, ProposalMessage
from repro.node.deploy import canonical_decision_bytes
from repro.node.runtime import decisions_as_records
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.schedule import AwakeSchedule
from tests.naive_oracles import NeverRetiringValidator

# Decide(v) retires every view below v - 2, so view w is retired by
# decide(w + 3); the stale traffic for w goes out one view later.
STALE_AFTER_VIEWS = 4

# Per ``view % 3``: the (LOG, PROPOSAL) tags sent while the view is live,
# then those sent after peers retired it.  Each tag is a distinct log; a
# repeated tag re-signs a message already sent (deduplicated before
# ``handle``).
PLAYBOOK = {
    # equivocated while live: a third and fourth LOG, a third proposal,
    # and re-signed copies of the first LOG and proposal
    0: (([1, 2], [0, 5]), ([3, 4, 1], [6, 0])),
    # accepted once while live: an equivocation, then one more
    1: (([1], [0]), ([2, 3], [5, 6])),
    # silent while live: a first message, an equivocation, one more
    2: (([], []), ([1, 2, 3], [0, 5, 6])),
}


class StaleViewAttacker(_TobByzantineBase):
    """Sends LOG and PROPOSAL messages to views its peers have retired.

    Follows :data:`PLAYBOOK`, and every stale send also carries a proposal
    with a stolen VRF output.  ``retired_hits`` counts, per stale send, the
    honest validators that had already retired the view; it reads state
    and never steers the attack.
    """

    def setup(self) -> None:
        self.retired_hits = 0
        for view in range(self._config.num_views):
            live, stale = PLAYBOOK[view % 3]
            self.at(self._time.view_start(view), partial(self._send_all, view, *live))
            stale_at = self._time.view_start(view + STALE_AFTER_VIEWS)
            if stale_at < self._config.horizon:
                self.at(stale_at, partial(self._stale, view, *stale))

    def _log(self, view: int, tag: int) -> Log:
        fake = _fake_transaction(7000 + 10 * view + tag)
        return Log.genesis().append_block([fake], proposer=self.validator_id, view=view)

    def _send_all(self, view: int, log_tags, proposal_tags, proposer=None) -> None:
        vrf = self._context.vrf.evaluate(
            self.validator_id if proposer is None else proposer, view
        )
        payloads = [LogMessage(ga_key=("tobsvd", view), log=self._log(view, t)) for t in log_tags]
        payloads += [ProposalMessage(view=view, log=self._log(view, t), vrf=vrf) for t in proposal_tags]
        for payload in payloads:
            self.send_to(payload, self._network.node_ids, delay=self._network.delta)

    def _stale(self, view: int, log_tags, proposal_tags) -> None:
        self.retired_hits += sum(
            1
            for vid in self._network.node_ids
            if isinstance(node := self._network.node(vid), TobSvdValidator)
            and not node.corrupted
            and view < node._retired_below
        )
        self._send_all(view, log_tags, proposal_tags)
        victim = next(vid for vid in self._network.node_ids if vid != self.validator_id)
        self._send_all(view, [], [8], proposer=victim)  # a stolen VRF output


def _with_stale_attacker(stale_id, others=StaleViewAttacker):
    """Byzantine factory: ``stale_id`` sends stale traffic, the rest ``others``."""

    def factory(vid, *wiring):
        return (StaleViewAttacker if vid == stale_id else others)(vid, *wiring)

    return factory


def napping_world(seed, validator_class):
    """The napping fixture of ``test_snapshot.py`` plus one stale attacker."""

    config = TobSvdConfig(n=5, num_views=10, delta=2, seed=seed)
    ticks = config.time.view_ticks
    schedule = AwakeSchedule.nap(5, sleeper=4, nap_start=2 * ticks + 1, nap_end=7 * ticks + 1)
    return TobSvdProtocol(
        config,
        schedule=schedule,
        corruption=CorruptionPlan.static({0}),
        byzantine_factory=_with_stale_attacker(0),
        validator_class=validator_class,
    )


def churn_world(seed, validator_class):
    """Two random churners, one static and one scheduled corruption."""

    config = TobSvdConfig(n=9, num_views=10, delta=2, seed=seed)
    schedule = AwakeSchedule.random_churn(
        n=9, horizon=config.horizon, rng=random.Random(seed), churners=(1, 4),
        min_awake=2 * config.time.view_ticks, min_asleep=7 * config.delta,
    )
    corruption = CorruptionPlan.static({8}).with_corruption(
        scheduled_at=config.time.view_start(6), validator=6, delta=config.delta
    )
    return TobSvdProtocol(
        config,
        schedule=schedule,
        corruption=corruption,
        byzantine_factory=_with_stale_attacker(8),
        validator_class=validator_class,
    )


def adverse_world(seed, validator_class):
    """The ``sim-adverse-n16`` fault plan at its smoke horizon: equivocating
    proposers, two crashes, drops, duplicates and delay spikes."""

    n, f = 16, 5
    config = TobSvdConfig(n=n, num_views=12, delta=2, seed=seed)
    corruption = CorruptionPlan.static(frozenset(range(n - f, n)))
    plan = compile_checked_fault_plan(
        FaultSpec(
            seed=seed, crash_count=2, crash_view=4, crash_deltas=8,
            drop_rate=0.05, duplicate_rate=0.02, delay_spike_rate=0.05,
        ),
        config, corruption, None, "retirement-oracle",
    )
    return TobSvdProtocol(
        config,
        corruption=corruption,
        byzantine_factory=_with_stale_attacker(n - f, TobEquivocatingProposer),
        validator_class=validator_class,
        fault_plan=plan,
    )


def fingerprint(result):
    stats = result.network.stats
    return (
        {
            vid: canonical_decision_bytes(decisions_as_records(v.decided))
            for vid, v in result.validators.items()
        },
        (stats.sends, stats.deliveries, stats.weighted_deliveries),
        dict(stats.by_type),
        result.simulator.events_processed,
    )


@pytest.mark.parametrize("world", [napping_world, churn_world, adverse_world])
@pytest.mark.parametrize("seed", range(6))
def test_retiring_run_is_the_never_retiring_run(world, seed):
    def run(validator_class):
        protocol = world(seed, validator_class)
        result = protocol.run()
        hits = sum(
            node.retired_hits
            for node in protocol.byzantine_nodes.values()
            if isinstance(node, StaleViewAttacker)
        )
        return result, hits

    retiring, hits = run(TobSvdValidator)
    assert hits > 0, "the attacker must reach views its peers have retired"
    oracle, oracle_hits = run(NeverRetiringValidator)
    assert oracle_hits == 0
    assert not any(v._retired_logs or v._retired_books for v in oracle.validators.values())

    assert fingerprint(retiring) == fingerprint(oracle)


def test_peeking_at_a_retired_view_raises_a_typed_error():
    from repro.core.tobsvd import RetiredViewError

    result = stable_scenario(n=4, num_views=8, delta=2).run()
    validator = result.validators[0]
    assert validator._retired_below == 6  # decide(8) retired every view below 6
    with pytest.raises(RetiredViewError, match="view 5 is retired"):
        validator.peek_ga_outputs(5, grade=0)
    with pytest.raises(RetiredViewError):
        validator.peek_candidate(6)
    assert validator.peek_candidate(7) is not None
