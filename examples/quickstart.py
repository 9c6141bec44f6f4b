#!/usr/bin/env python3
"""Quickstart: one stable TOB-SVD run, then a mini parameter sweep.

Part 1 runs the best-case world through the scenario API: eight validators,
six views, worst-case network delays.  Transactions submitted right before
each view's proposal confirm exactly 6Δ later — the paper's best-case
latency.

Part 2 runs the same world as a declarative :class:`ExperimentSpec` over
``n × participation`` through the sweep engine — the API behind
``python -m repro sweep`` — and prints the aggregated grid.

Run:  PYTHONPATH=src python examples/quickstart.py
"""

from repro import TransactionPool
from repro.analysis.aggregation import aggregate_sweep, render_sweep_markdown
from repro.analysis.latency import proposal_anchored_latency_deltas
from repro.analysis.metrics import check_safety, voting_phases_per_block
from repro.harness import ExperimentSpec, run_sweep, stable_scenario


def single_run() -> None:
    """The best-case world, one run, inspected block by block."""

    pool = TransactionPool()
    protocol = stable_scenario(n=8, num_views=6, delta=4, seed=2024, pool=pool)
    config = protocol.config

    # Submit one transaction right before each view's proposal time.
    txs = []
    for view in range(1, 5):
        t_v = config.time.view_start(view)
        txs.append(pool.submit(payload=f"payment-{view}", at_time=t_v - 1))

    result = protocol.run()

    print(f"TOB-SVD: n={config.n}, {config.num_views} views, Δ={config.delta} ticks")
    print(f"safety holds: {check_safety(result.trace).safe}")
    print(f"voting phases per block: {voting_phases_per_block(result.trace, 'tobsvd')}")
    print()

    final_log = result.decided_logs()[0]
    print(f"final decided log ({len(final_log) - 1} blocks after genesis):")
    for block in final_log.blocks[1:]:
        payloads = [tx.payload for tx in block.transactions]
        print(f"  view {block.view}: proposer v{block.proposer}, txs={payloads}")
    print()

    print("transaction confirmation latency (proposal-anchored, Δ units):")
    for tx in txs:
        latency = proposal_anchored_latency_deltas(result.trace, tx, config.delta)
        print(f"  {tx.payload}: {latency}Δ")


def mini_sweep() -> None:
    """The same world as a grid — the ``python -m repro sweep`` API."""

    spec = ExperimentSpec(
        name="quickstart",
        protocols=("tobsvd",),
        ns=(6, 8),
        fs=(0, 2),
        participations=("stable", "late-join"),
        seeds=2,
        num_views=6,
    )
    outcome = run_sweep(spec, workers=1)
    print(f"sweep '{spec.name}': {outcome.total_cells} cells "
          f"(equivalent CLI: python -m repro sweep --name quickstart "
          f"--n 6,8 --f 0,2 --participation stable,late-join --seeds 2 --views 6)")
    print()
    print(render_sweep_markdown(aggregate_sweep(outcome.sorted_records())), end="")


def main() -> None:
    single_run()
    print()
    mini_sweep()


if __name__ == "__main__":
    main()
