"""Confirmation-time measurements (Section 2's latency definitions).

* **Confirmation time** of a transaction: time between its submission and
  the first honest decision of a log containing it.
* **Best-case latency**: the minimum confirmation time over submission
  times — in practice, the proposal-to-decision offset, so we also provide
  *proposal-anchored* latency (decision time minus the view start of the
  proposal that batched the transaction), which measures exactly the
  quantity Table 1 states in Δ units.
* **Expected latency**: expected confirmation of a transaction submitted
  right before the next proposal.
* **Transaction expected latency**: expected confirmation of a transaction
  submitted at a uniformly random time (= expected latency plus half the
  inter-proposal interval).
"""

from __future__ import annotations

from repro.chain.transactions import Transaction
from repro.trace import Trace


def confirmation_time_ticks(trace: Trace, tx: Transaction) -> int | None:
    """Submission-to-first-decision time in ticks, or None if unconfirmed."""

    event = trace.first_decision_containing(tx)
    if event is None:
        return None
    return event.time - tx.submitted_at


def confirmation_times_deltas(
    trace: Trace, txs: list[Transaction], delta: int
) -> list[float]:
    """Confirmation times in Δ units for the confirmed subset of ``txs``."""

    times: list[float] = []
    for tx in txs:
        ticks = confirmation_time_ticks(trace, tx)
        if ticks is not None:
            times.append(ticks / delta)
    return times


def proposal_anchored_latency_deltas(
    trace: Trace, tx: Transaction, delta: int
) -> float | None:
    """Decision time minus the batching proposal's time, in Δ units.

    This is the Table-1 latency: "the shortest time between a proposal and
    its decision" anchors at the proposal, not the submission.  The
    anchoring proposal is the earliest one whose log contains the
    transaction.
    """

    decision = trace.first_decision_containing(tx)
    if decision is None:
        return None
    batching = [
        p for p in trace.proposals if p.log.contains_transaction(tx)
    ]
    if not batching:
        return None
    first_proposal_time = min(p.time for p in batching)
    return (decision.time - first_proposal_time) / delta
