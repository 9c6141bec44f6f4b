"""Canned TOB-SVD scenarios.

Each scenario builder returns a ready-to-run :class:`TobSvdProtocol`; the
common ones are:

* :func:`stable_scenario` — full honest participation (best-case world);
* :func:`equivocating_scenario` — ``f`` equivocating-proposer Byzantine
  validators, the leader-failure adversary behind expected-case numbers;
* :func:`churn_scenario` — honest validators napping on a randomized
  schedule that respects the (5Δ, 2Δ, ½) compliance condition;
* :func:`late_join_scenario` — a block of validators sleeps through the
  first views and joins late, stabilization-aware;
* :func:`bursty_churn_scenario` — partition-style outages: a group of
  honest validators naps *together* in periodic bursts;
* :func:`crash_recovery_scenario` — a seeded :class:`repro.faults.FaultSpec`
  crashes a minority of honest validators mid-run (optionally with
  message drops) and recovers them, compliance-checked against the
  *effective* schedule (base schedule minus crash windows);
* :func:`partition_scenario` — a regional outage: a minority group is
  partitioned off (cross-group traffic dropped) and crashed for the
  window, then healed.

The schedule builders behind the last two (:func:`late_join_schedule`,
:func:`bursty_schedule`) are exposed separately so the sweep engine can
apply them to the honest subset of adversarial grids.

The stable, churn, late-join and bursty builders also take ``hosted``,
the validator ids the returned world populates (default: all).  A
deployment calls one of them with ``hosted={node_id}`` per node runtime
and with every id for its sim oracle (:mod:`repro.node.deploy`).
"""

from __future__ import annotations

import math
import random

from repro.adversary.tob_attackers import make_tob_attacker_factory
from repro.chain.transactions import TransactionPool
from repro.crypto.signatures import KeyRegistry
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.faults import FaultSpec, crashed_schedule
from repro.sleepy.compliance import check_compliance
from repro.sleepy.corruption import CorruptionPlan
from repro.sleepy.participation import ParticipationModel
from repro.sleepy.schedule import AwakeSchedule


def stable_scenario(
    n: int = 10,
    num_views: int = 6,
    delta: int = 4,
    seed: int = 0,
    pool: TransactionPool | None = None,
    trace_mode: str = "full",
    registry: KeyRegistry | None = None,
    fault_plan=None,
    hosted: frozenset[int] | None = None,
) -> TobSvdProtocol:
    """Everyone honest and always awake."""

    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    return TobSvdProtocol(
        config, pool=pool, trace_mode=trace_mode, registry=registry,
        fault_plan=fault_plan, hosted=hosted,
    )


def equivocating_scenario(
    n: int = 10,
    f: int = 4,
    num_views: int = 8,
    delta: int = 4,
    seed: int = 0,
    attacker: str = "equivocating-proposer",
    pool: TransactionPool | None = None,
    trace_mode: str = "full",
    registry: KeyRegistry | None = None,
    fault_plan=None,
) -> TobSvdProtocol:
    """``f`` Byzantine validators running the chosen attack.

    The Byzantine ids are the top ``f`` — keeping honest ids contiguous
    from 0 makes traces easier to read.  ``f`` must keep the run inside
    the ½ resilience bound.
    """

    if f < 0 or 2 * f >= n:
        raise ValueError(f"f={f} violates 0 <= |B| < 1/2 of {n} active validators")
    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    corruption = CorruptionPlan.static(frozenset(range(n - f, n)))
    return TobSvdProtocol(
        config,
        corruption=corruption,
        byzantine_factory=make_tob_attacker_factory(attacker),
        pool=pool,
        trace_mode=trace_mode,
        registry=registry,
        fault_plan=fault_plan,
    )


def churn_scenario(
    n: int = 12,
    num_views: int = 8,
    delta: int = 4,
    seed: int = 0,
    churner_fraction: float = 0.4,
    pool: TransactionPool | None = None,
    require_compliance: bool = True,
    trace_mode: str = "full",
    hosted: frozenset[int] | None = None,
) -> TobSvdProtocol:
    """Honest validators napping on a randomized, compliance-checked schedule.

    Awake periods are at least two views long and naps at least
    T_s + T_b long, so sleepers re-qualify as active before they matter.
    Raises if the generated schedule violates Condition (1) (retry with a
    different seed in that case).
    """

    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    rng = random.Random(seed)
    churners = rng.sample(range(n), k=max(1, int(n * churner_fraction)))
    horizon = config.horizon
    schedule = AwakeSchedule.random_churn(
        n=n,
        horizon=horizon,
        rng=rng,
        churners=churners,
        min_awake=2 * config.time.view_ticks,
        min_asleep=(2 + 5) * delta,
    )
    if require_compliance:
        check_schedule_compliance(config, schedule, CorruptionPlan.none(), "churn")
    return TobSvdProtocol(
        config, schedule=schedule, pool=pool, trace_mode=trace_mode, hosted=hosted
    )


def late_join_schedule(
    n: int,
    joiners: tuple[int, ...],
    join_time: int,
) -> AwakeSchedule:
    """Schedule where ``joiners`` sleep from t=0 until ``join_time``.

    Everyone else is awake throughout.  ``join_time`` should be at least
    T_s = 2Δ before the first view the joiners are meant to vote in, so
    they clear the stabilization period in time.
    """

    spec: dict[int, list[tuple[int, int | None]]] = {
        vid: [(join_time, None)] for vid in joiners
    }
    return AwakeSchedule.from_intervals(n, spec)


def bursty_schedule(
    n: int,
    sleepers: tuple[int, ...],
    horizon: int,
    first_nap: int,
    nap_ticks: int,
    awake_ticks: int,
) -> AwakeSchedule:
    """Synchronized on/off naps — the partition-style churn pattern.

    Every validator in ``sleepers`` is asleep during the same windows
    ``[first_nap, first_nap + nap_ticks)``, then awake ``awake_ticks``,
    then asleep again, repeating to ``horizon``.  Modelling a recurring
    rack/region outage, this is the harshest honest-participation pattern
    that still fits the sleepy model: unlike :func:`churn_scenario`'s
    staggered naps, the awake quorum dips by ``len(sleepers)`` at once.
    """

    if first_nap <= 0 or nap_ticks <= 0 or awake_ticks <= 0:
        raise ValueError("first_nap, nap_ticks and awake_ticks must be positive")
    windows: list[tuple[int, int]] = []
    start = first_nap
    while start <= horizon:
        windows.append((start, start + nap_ticks))
        start += nap_ticks + awake_ticks
    spec: dict[int, list[tuple[int, int | None]]] = {}
    for vid in sleepers:
        intervals: list[tuple[int, int | None]] = []
        prev_end = 0
        for nap_start, nap_end in windows:
            if nap_start > prev_end:
                intervals.append((prev_end, nap_start))
            prev_end = nap_end
        intervals.append((prev_end, None))
        spec[vid] = intervals
    return AwakeSchedule.from_intervals(n, spec)


def check_schedule_compliance(
    config: TobSvdConfig,
    schedule: AwakeSchedule,
    corruption: CorruptionPlan,
    label: str,
) -> None:
    """Raise if ``schedule`` + ``corruption`` violates paper Condition (1).

    The one compliance gate shared by every scenario family and the sweep
    engine, so "the adversary left the model" always fails the same way.
    """

    t_b, t_s, rho = config.sleepy_model()
    model = ParticipationModel(schedule=schedule, corruption=corruption)
    report = check_compliance(model, t_b, t_s, rho, config.horizon)
    if not report.compliant:
        raise ValueError(
            f"{label} schedule violates the sleepy-model condition at "
            f"t={report.first_violation().time}; shrink the sleeper set or "
            "pick another seed"
        )


def late_join_scenario(
    n: int = 10,
    num_views: int = 8,
    delta: int = 4,
    seed: int = 0,
    joiner_fraction: float = 0.25,
    join_view: int = 2,
    pool: TransactionPool | None = None,
    require_compliance: bool = True,
    trace_mode: str = "full",
    hosted: frozenset[int] | None = None,
) -> TobSvdProtocol:
    """A block of validators sleeps through the early views, then joins.

    The top ``ceil(n * joiner_fraction)`` validators wake T_s = 2Δ before
    view ``join_view`` starts, so (per the A5 ablation) they are stabilized
    in time to vote in that very view.  Everyone is honest; this is the
    pure late-join workload of Lemma 4.
    """

    if not 0 < joiner_fraction < 1:
        raise ValueError("joiner_fraction must lie in (0, 1)")
    if not 1 <= join_view < num_views:
        raise ValueError("join_view must fall inside the run")
    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    count = max(1, math.ceil(n * joiner_fraction))
    joiners = tuple(range(n - count, n))
    join_time = max(0, config.time.view_start(join_view) - 2 * delta)
    schedule = late_join_schedule(n, joiners, join_time)
    if require_compliance:
        check_schedule_compliance(config, schedule, CorruptionPlan.none(), "late-join")
    return TobSvdProtocol(
        config, schedule=schedule, pool=pool, trace_mode=trace_mode, hosted=hosted
    )


def bursty_churn_scenario(
    n: int = 12,
    num_views: int = 10,
    delta: int = 4,
    seed: int = 0,
    burst_fraction: float = 0.25,
    nap_views: int = 2,
    awake_views: int = 3,
    pool: TransactionPool | None = None,
    require_compliance: bool = True,
    trace_mode: str = "full",
    hosted: frozenset[int] | None = None,
) -> TobSvdProtocol:
    """Partition-style churn: a fixed group naps together, periodically.

    ``burst_fraction`` of the validators (the highest ids) go to sleep in
    lock-step for ``nap_views`` whole views, stay awake ``awake_views``
    views, and repeat.  Naps last ``nap_views * 4Δ >= T_s + T_b = 7Δ``
    (for the default 2), so sleepers always re-qualify as active before
    their votes matter again.  Everyone is honest.
    """

    if not 0 < burst_fraction < 0.5:
        raise ValueError("burst_fraction must lie in (0, 0.5)")
    if nap_views < 1 or awake_views < 1:
        raise ValueError("nap_views and awake_views must be >= 1")
    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    count = max(1, int(n * burst_fraction))
    sleepers = tuple(range(n - count, n))
    view_ticks = config.time.view_ticks
    schedule = bursty_schedule(
        n,
        sleepers,
        horizon=config.horizon,
        first_nap=2 * view_ticks,
        nap_ticks=nap_views * view_ticks,
        awake_ticks=awake_views * view_ticks,
    )
    if require_compliance:
        check_schedule_compliance(config, schedule, CorruptionPlan.none(), "bursty")
    return TobSvdProtocol(
        config, schedule=schedule, pool=pool, trace_mode=trace_mode, hosted=hosted
    )


def compile_checked_fault_plan(
    spec: FaultSpec,
    config: TobSvdConfig,
    corruption: CorruptionPlan,
    schedule: AwakeSchedule | None,
    label: str,
    require_compliance: bool = True,
):
    """Compile ``spec`` for ``config`` and compliance-check its crashes.

    Byzantine ids are protected (the model keeps them always awake), and
    the crash windows are subtracted from the base participation schedule
    to form the *effective* schedule, which must still satisfy paper
    Condition (1) — a fault plan that drops too many honest validators at
    once has left the sleepy model, and that is a configuration error,
    not an interesting run.
    """

    plan = spec.compile(
        n=config.n,
        delta=config.delta,
        horizon=config.horizon,
        view_ticks=config.time.view_ticks,
        protected=corruption.initial_byzantine,
    )
    if require_compliance:
        base = schedule if schedule is not None else AwakeSchedule.always_awake(config.n)
        effective = crashed_schedule(base, plan.crash_windows)
        check_schedule_compliance(config, effective, corruption, label)
    return plan


def crash_recovery_scenario(
    n: int = 10,
    num_views: int = 10,
    delta: int = 4,
    seed: int = 0,
    crash_fraction: float = 0.25,
    crash_view: int = 2,
    outage_views: int = 2,
    drop_rate: float = 0.0,
    fault_spec: FaultSpec | None = None,
    pool: TransactionPool | None = None,
    require_compliance: bool = True,
    trace_mode: str = "full",
    registry: KeyRegistry | None = None,
) -> TobSvdProtocol:
    """Honest validators crash mid-run and recover; everyone else stays up.

    ``crash_fraction`` of the validators (seed-chosen) go down around
    view ``crash_view`` for ``outage_views`` whole views — long enough
    (``>= T_s + T_b = 7Δ`` for the default 2) that recovered validators
    re-qualify as active before their votes matter.  ``drop_rate`` adds
    uniform message loss on top.  Pass ``fault_spec`` to override the
    derived spec entirely.  The effective schedule (always-awake minus
    crash windows) is compliance-checked, so a passing configuration
    stays inside the sleepy model and must keep the safety invariant.
    """

    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    if fault_spec is None:
        if not 0 < crash_fraction < 0.5:
            raise ValueError("crash_fraction must lie in (0, 0.5)")
        fault_spec = FaultSpec(
            seed=seed,
            crash_count=max(1, int(n * crash_fraction)),
            crash_view=crash_view,
            crash_deltas=outage_views * 4,
            drop_rate=drop_rate,
        )
    plan = compile_checked_fault_plan(
        fault_spec, config, CorruptionPlan.none(), None, "crash-recovery",
        require_compliance,
    )
    return TobSvdProtocol(
        config, fault_plan=plan, pool=pool, trace_mode=trace_mode, registry=registry
    )


def partition_scenario(
    n: int = 10,
    num_views: int = 10,
    delta: int = 4,
    seed: int = 0,
    partition_fraction: float = 0.25,
    partition_view: int = 2,
    outage_views: int = 2,
    partitions: int = 1,
    fault_spec: FaultSpec | None = None,
    pool: TransactionPool | None = None,
    require_compliance: bool = True,
    trace_mode: str = "full",
    registry: KeyRegistry | None = None,
) -> TobSvdProtocol:
    """A regional outage: a minority group is cut off, then healed.

    Each partition window isolates ``partition_fraction`` of the
    validators (seed-chosen) for ``outage_views`` views: cross-group
    messages are *dropped* (a partition loses traffic — unlike sleep,
    which defers it) and the isolated group is crashed for the window,
    the regional-outage semantics that keep the run inside the sleepy
    model (an *awake* isolated minority would decide on partial views —
    a model violation, not a protocol bug).  Healed validators catch up
    from ongoing LOG traffic, which carries full chains.
    """

    config = TobSvdConfig(n=n, num_views=num_views, delta=delta, seed=seed)
    if fault_spec is None:
        fault_spec = FaultSpec(
            seed=seed,
            partitions=partitions,
            partition_fraction=partition_fraction,
            partition_view=partition_view,
            partition_deltas=outage_views * 4,
        )
    plan = compile_checked_fault_plan(
        fault_spec, config, CorruptionPlan.none(), None, "partition",
        require_compliance,
    )
    return TobSvdProtocol(
        config, fault_plan=plan, pool=pool, trace_mode=trace_mode, registry=registry
    )
