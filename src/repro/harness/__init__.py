"""Experiment harness: scenario builders, measurement runners, and the
parallel sweep engine behind ``python -m repro sweep``.

* :mod:`repro.harness.scenarios` — canned worlds (stable, equivocating,
  churn, late-join, bursty/partition churn);
* :mod:`repro.harness.runner` — the Table-1 measurement runners;
* :mod:`repro.harness.sweep` — declarative grids, cell execution, and
  the append-only JSONL result store;
* :mod:`repro.harness.lease` — the one sweep scheduler: the lease
  state machine (grant, expiry, retry cap and backoff, first-write-wins
  commit) driven by the local pool and by the fleet coordinator;
* :mod:`repro.harness.executor` — the persistent, warm sweep worker
  pool with chunked dispatch;
* :mod:`repro.harness.prebuild` — per-process caches of immutable cell
  scaffolding (keysets, delay policies, compliance-checked schedules).
"""

from repro.harness.executor import SweepExecutor
from repro.harness.prebuild import PREBUILD, PrebuildCache

from repro.harness.runner import (
    collect_table1_measurements,
    measure_all_structural,
    measure_best_case_latency,
    measure_expected_latency,
    measure_structural_protocol,
    measure_tobsvd_message_scaling,
    measure_transaction_expected_latency,
    measure_voting_phases,
)
from repro.harness.scenarios import (
    bursty_churn_scenario,
    check_schedule_compliance,
    churn_scenario,
    equivocating_scenario,
    late_join_scenario,
    stable_scenario,
)
from repro.harness.sweep import (
    Cell,
    ExperimentSpec,
    ResultStore,
    SweepOutcome,
    prepare_cell,
    run_cell,
    run_sweep,
)

__all__ = [
    "PREBUILD",
    "PrebuildCache",
    "SweepExecutor",
    "prepare_cell",
    "collect_table1_measurements",
    "measure_all_structural",
    "measure_best_case_latency",
    "measure_expected_latency",
    "measure_structural_protocol",
    "measure_tobsvd_message_scaling",
    "measure_transaction_expected_latency",
    "measure_voting_phases",
    "bursty_churn_scenario",
    "check_schedule_compliance",
    "churn_scenario",
    "equivocating_scenario",
    "late_join_scenario",
    "stable_scenario",
    "Cell",
    "ExperimentSpec",
    "ResultStore",
    "SweepOutcome",
    "run_cell",
    "run_sweep",
]
