"""The ``python -m repro`` command line.

Eight subcommands front the experiment subsystem:

* ``run`` — execute one named scenario under a chosen trace-retention
  policy (``--trace full|bounded|off``, default bounded) and print live
  streaming-reducer stats (decisions/sec, mean latency so far) while it
  runs;
* ``sweep`` — expand a declarative experiment grid (inline flags or a
  JSON spec file) and execute it on a warm worker pool with chunked
  dispatch (``--workers``/``--chunksize``/``--warm``) and resume
  support;
* ``table1`` — regenerate the paper's Table 1 (paper vs analytic model
  vs measured), ``--smoke`` for a seconds-long CI variant;
* ``fleet`` — the multi-host sweep fabric: ``fleet coordinate`` serves
  a grid to remote runners over TCP, ``fleet run`` is one runner
  process, and ``fleet local --runners N`` does both on localhost in a
  single command;
* ``snapshot`` — checkpoint a warmed run at a view boundary
  (``snapshot save``), resume it under divergent continuations
  (``snapshot fork``), and inspect a store (``snapshot ls``);
* ``bisect`` — binary-search the first view where a predicate fails,
  forking snapshots instead of replaying warm-ups from genesis;
* ``node`` — ONE protocol node over real TCP against an explicit peer
  address map (the per-host face of the real-transport runtime);
* ``deploy local`` — ``n`` node processes over loopback TCP,
  byte-compared against the simulator oracle (``--chaos kill`` turns
  planned crash windows into real SIGKILL + resync-on-respawn).

Every command is deterministic given its arguments; none reads the wall
clock or ambient RNG state (the ``run`` ticker reads the wall clock for
its decisions/sec display only — simulation results never depend on it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Callable

from repro.analysis.aggregation import (
    aggregate_sweep,
    render_sweep_csv,
    render_sweep_markdown,
)
from repro.harness.sweep import (
    ATTACKERS,
    PARTICIPATIONS,
    ExperimentSpec,
    ResultStore,
    pending_cells,
    run_sweep,
)


def _parse_list(text: str, cast: Callable = str) -> tuple:
    """Split a comma-separated flag value into a tuple of ``cast`` items."""

    return tuple(cast(part.strip()) for part in text.split(",") if part.strip())


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def _parse_fault_specs(text: str) -> tuple:
    """``--fault-specs`` value: a JSON list (inline or ``@path``).

    Each element is either ``null``/``""`` (the no-fault arm) or a
    :class:`~repro.faults.FaultSpec` dict; dict entries are serialized
    compactly here and canonicalized by the spec's own validation.
    """

    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise SystemExit("error: --fault-specs must be a non-empty JSON list")
    entries = []
    for item in data:
        if item in (None, ""):
            entries.append("")
        elif isinstance(item, dict):
            entries.append(json.dumps(item, sort_keys=True, separators=(",", ":")))
        else:
            raise SystemExit(
                "error: --fault-specs entries must be FaultSpec objects or null"
            )
    return tuple(entries)


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    """Build the spec from ``--spec FILE`` or inline grid flags."""

    if args.spec:
        with open(args.spec, encoding="utf-8") as fh:
            return ExperimentSpec.from_dict(json.load(fh))
    fault_specs = ("",)
    if getattr(args, "fault_specs", None):
        fault_specs = _parse_fault_specs(args.fault_specs)
    return ExperimentSpec(
        name=args.name,
        protocols=_parse_list(args.protocols),
        ns=_parse_list(args.n, int),
        fs=_parse_list(args.f, int),
        deltas=_parse_list(args.delta, int),
        attackers=_parse_list(args.attacker),
        participations=_parse_list(args.participation),
        seeds=args.seeds,
        num_views=args.views,
        txs_per_cell=args.txs,
        fault_specs=fault_specs,
    )


def _progress_line(record: dict) -> None:
    """One console line per finished cell (sweep and fleet commands)."""

    cell = record["cell"]
    status = record["status"]
    tag = "" if status == "ok" else f"  [{status}: {record['error']}]"
    print(
        f"  {record['cell_id']}  {cell['protocol']:>6s} n={cell['n']:<3d} "
        f"f={cell['f']} Δ={cell['delta']} {cell['participation']:>9s} "
        f"seed={cell['seed_index']}{tag}",
        flush=True,
    )


def _sweep_epilogue(outcome, args: argparse.Namespace) -> int:
    """Aggregate, render, and grade a finished sweep (any backend)."""

    rows = aggregate_sweep(outcome.sorted_records())
    if getattr(args, "csv", None):
        Path(args.csv).write_text(render_sweep_csv(rows), encoding="utf-8")
        print(f"wrote {args.csv}")
    if getattr(args, "markdown", None):
        Path(args.markdown).write_text(render_sweep_markdown(rows), encoding="utf-8")
        print(f"wrote {args.markdown}")
    if not getattr(args, "quiet", False):
        print()
        print(render_sweep_markdown(rows), end="")
    errors = sum(row.errors for row in rows)
    failed = sum(row.failed for row in rows)
    unsafe = [
        row for row in rows
        if row.cells > row.errors + row.failed and not row.safe_all
    ]
    if unsafe:
        print(f"UNSAFE rows: {len(unsafe)}", file=sys.stderr)
        return 1
    if errors:
        print(f"note: {errors} error cells (see {args.out})", file=sys.stderr)
    if failed:
        print(
            f"note: {failed} quarantined cells — every attempt died; "
            f"they re-run on resume (see {args.out})",
            file=sys.stderr,
        )
    return 0


def _print_fleet_counters(counters: dict) -> None:
    print(
        f"  fleet: {counters['runners_registered']} runners registered, "
        f"{counters['leases_granted']} leases granted, "
        f"{counters['leases_expired']} expired, "
        f"{counters['cells_redispatched']} cells re-dispatched, "
        f"{counters['duplicates_discarded']} duplicates discarded, "
        f"{counters['leases_affinity_matched']} affinity-matched, "
        f"{counters['connections_dropped']} connections dropped"
    )


def _print_cache_counters(cache: dict) -> None:
    """The three-tier cache epilogue line (prebuild + snapshot tiers)."""

    prebuild = cache.get("prebuild", {})
    snap = cache.get("snapshot", {})
    print(
        f"  caches: prebuild {prebuild.get('hits', 0)} hits / "
        f"{prebuild.get('misses', 0)} misses; "
        f"snapshots {snap.get('hits', 0)} hits / {snap.get('misses', 0)} misses, "
        f"{snap.get('saves', 0)} saved, {snap.get('forks', 0)} forks"
    )


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = _spec_from_args(args)
    store = ResultStore(args.out)
    if args.list_cells:
        for cell in spec.expand():
            print(f"{cell.cell_id}  {cell.canonical_key}")
        return 0

    progress = None if args.quiet else _progress_line
    executor = None
    resilient = (
        args.retries > 0 or args.cell_timeout is not None or args.chaos > 0
    )
    if args.workers > 1 or resilient:
        from repro.faults import ChaosPlan
        from repro.harness.executor import SweepExecutor

        chaos = (
            ChaosPlan(kill_rate=args.chaos, seed=args.chaos_seed)
            if args.chaos > 0
            else None
        )
        executor = SweepExecutor(
            workers=args.workers,
            chunksize=args.chunksize,
            retries=args.retries,
            cell_timeout=args.cell_timeout,
            chaos=chaos,
        )
        if args.warm:
            import time as _time

            started = _time.perf_counter()
            executor.warmup()
            print(
                f"warmed {args.workers} workers in "
                f"{_time.perf_counter() - started:.2f}s",
                flush=True,
            )
    try:
        outcome = run_sweep(
            spec,
            store=store,
            workers=args.workers,
            progress=progress,
            trace_mode=args.trace,
            executor=executor,
            snapshot_dir=args.snapshot_dir,
            warmup_views=args.warmup_views,
        )
    finally:
        if executor is not None:
            executor.close()
    recovered = f", {outcome.recovered} corrupt lines quarantined" if outcome.recovered else ""
    print(
        f"sweep '{spec.name}': {outcome.total_cells} cells, "
        f"{outcome.executed} executed, {outcome.skipped} resumed-skip{recovered}"
    )
    if outcome.cache is not None:
        _print_cache_counters(outcome.cache)
    if executor is not None and (
        executor.retries_attempted
        or executor.cells_quarantined
        or executor.workers_respawned
        or executor.pipe_close_errors
    ):
        print(
            f"  resilience: {executor.retries_attempted} retries, "
            f"{executor.cells_quarantined} cells quarantined, "
            f"{executor.workers_respawned} workers respawned, "
            f"{executor.pipe_close_errors} pipe close errors"
        )
    return _sweep_epilogue(outcome, args)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _parse_fault_spec(text: str):
    """``--faults`` value: inline JSON, or ``@path`` to a JSON file."""

    from repro.faults import FaultSpec

    if text.startswith("@"):
        with open(text[1:], encoding="utf-8") as fh:
            data = json.load(fh)
    else:
        data = json.loads(text)
    return FaultSpec.from_dict(data)


def _build_scenario(args: argparse.Namespace, pool, trace_mode: str = "full"):
    """Family dispatch shared by ``run``, ``snapshot save`` and ``bisect``."""

    from repro.harness import scenarios

    fault_spec = None
    if args.faults:
        if args.family not in ("stable", "crash", "partition"):
            raise SystemExit(
                f"error: --faults is not supported for the "
                f"'{args.family}' family (use stable, crash, or partition)"
            )
        fault_spec = _parse_fault_spec(args.faults)

    common = dict(
        n=args.n, num_views=args.views, delta=args.delta, seed=args.seed,
        pool=pool, trace_mode=trace_mode,
    )
    if args.family == "stable":
        fault_plan = None
        if fault_spec is not None:
            from repro.core.tobsvd import TobSvdConfig
            from repro.sleepy.corruption import CorruptionPlan

            config = TobSvdConfig(
                n=args.n, num_views=args.views, delta=args.delta, seed=args.seed
            )
            fault_plan = scenarios.compile_checked_fault_plan(
                fault_spec, config, CorruptionPlan.none(), None, "cli-run"
            )
        return scenarios.stable_scenario(fault_plan=fault_plan, **common)
    if args.family == "equivocating":
        return scenarios.equivocating_scenario(
            f=args.f, attacker=args.attacker, **common
        )
    if args.family == "crash":
        return scenarios.crash_recovery_scenario(fault_spec=fault_spec, **common)
    if args.family == "partition":
        return scenarios.partition_scenario(fault_spec=fault_spec, **common)
    if args.family == "churn":
        return scenarios.churn_scenario(**common)
    if args.family == "late-join":
        return scenarios.late_join_scenario(**common)
    return scenarios.bursty_churn_scenario(**common)  # bursty


def _submit_anchored_txs(pool, num_views: int, view_ticks: int, prefix: str) -> list:
    """One transaction right before each view start with room to confirm."""

    return [
        pool.submit(payload=f"{prefix}-{view}", at_time=view * view_ticks - 1)
        for view in range(1, max(2, num_views - 3))
    ]


class _LiveReducerStats:
    """TraceBus subscriber printing rolling reducer stats during a run.

    Subscribed *after* the streaming reducers, so by the time its
    ``on_decision`` hook fires for an event the aggregates already
    include that event.  Wall-clock only feeds the decisions/sec display;
    nothing simulation-visible reads it.
    """

    def __init__(self, analysis, delta: int, every: int) -> None:
        import time as _time

        self._analysis = analysis
        self._delta = delta
        self._every = max(1, every)
        self._clock = _time.perf_counter
        self._started = self._clock()
        self._next = self._every

    def on_decision(self, event) -> None:
        analysis = self._analysis
        if analysis.decision_count < self._next:
            return
        self._next = analysis.decision_count + self._every
        elapsed = max(self._clock() - self._started, 1e-9)
        latency = analysis.latency()
        mean = latency.mean_deltas(self._delta)
        mean_text = f"{mean:6.2f}Δ" if mean is not None else "     —"
        print(
            f"  t={event.time:>7d}  decisions={analysis.decision_count:>8d}  "
            f"blocks={analysis.new_blocks:>5d}  "
            f"{analysis.decision_count / elapsed:>10,.0f} decisions/sec  "
            f"mean latency {mean_text}  "
            f"(confirmed {latency.samples}/{latency.samples + latency.pending})",
            flush=True,
        )


def _load_snapshot_ref(ref: str, store_dir: str):
    """Resolve ``ref`` as a ``.snap`` file path, else as an id in ``store_dir``."""

    from repro.snapshot import Snapshot, SnapshotError, SnapshotStore

    path = Path(ref)
    if path.is_file():
        try:
            return Snapshot.from_bytes(path.read_bytes())
        except SnapshotError as exc:
            raise SystemExit(f"error: {ref}: {exc}") from None
    store = SnapshotStore(store_dir)
    snapshot = store.get(ref)
    if snapshot is None:
        raise SystemExit(
            f"error: snapshot {ref!r} not found (no such file, and "
            f"{store.path_for(ref)} does not exist)"
        )
    return snapshot


def _report_faults(analysis, network) -> None:
    """The injected-fault lines of a run summary (silent when nothing fired)."""

    faults = analysis.fault_summary()
    if any(faults.values()):
        print(f"  injected faults:       {faults['crashes']} crashes, "
              f"{faults['recoveries']} recoveries, "
              f"{faults['partitions']} partitions, {faults['heals']} heals")
    if network.fault_drops or network.fault_duplicates or network.fault_spikes:
        print(f"  message faults:        {network.fault_drops} dropped, "
              f"{network.fault_duplicates} duplicated, "
              f"{network.fault_spikes} spiked")


def _report_resumed(protocol, result, elapsed: float) -> int:
    """Post-run summary for a forked continuation (``snapshot fork``)."""

    config = protocol.config
    analysis = protocol.observability.analysis
    print(f"finished in {elapsed:.2f}s "
          f"({result.simulator.now} ticks simulated)")
    stats = result.network.stats
    print(f"  deliveries:            {stats.weighted_deliveries} weighted")
    if analysis is None:
        print("  (tracing off in the saved run: network totals only)")
        return 0
    latency = analysis.latency()
    mean = latency.mean_deltas(config.delta)
    print(f"  decided blocks:        {analysis.new_blocks}/{config.num_views}")
    print(f"  safety holds:          {analysis.safety().safe}")
    _report_faults(analysis, result.network)
    print(f"  confirmed txs:         {latency.samples}")
    if mean is not None:
        print(f"  latency mean/min/max:  {mean:.2f}Δ / "
              f"{latency.min_ticks / config.delta:.2f}Δ / "
              f"{latency.max_ticks / config.delta:.2f}Δ")
    return 0 if analysis.safety().safe else 1


def _cmd_run(args: argparse.Namespace) -> int:
    import time as _time

    from repro.chain.transactions import TransactionPool

    pool = TransactionPool()
    protocol = _build_scenario(args, pool, trace_mode=args.trace)
    observability = protocol.observability
    analysis = observability.analysis
    view_ticks = protocol.config.time.view_ticks
    txs = _submit_anchored_txs(pool, args.views, view_ticks, "run")
    byz = f"f={args.f} " if args.family == "equivocating" else ""
    print(f"run {args.family}: n={args.n} {byz}Δ={args.delta} "
          f"views={args.views} seed={args.seed} trace={args.trace}")
    if analysis is not None:
        for tx in txs:
            analysis.watch(tx)
        every = args.stats_every if args.stats_every else max(1, args.n * 4)
        observability.bus.subscribe(
            _LiveReducerStats(analysis, args.delta, every)
        )
    else:
        print("  (tracing off: no reducer stats, reporting network totals only)")

    started = _time.perf_counter()
    result = protocol.run()
    elapsed = max(_time.perf_counter() - started, 1e-9)

    bus = observability.bus
    print(f"finished in {elapsed:.2f}s: {bus.events_emitted} events emitted, "
          f"{bus.retained_events()} retained "
          f"({result.simulator.now} ticks simulated)")
    stats = result.network.stats
    print(f"  deliveries:            {stats.weighted_deliveries} weighted")
    if analysis is None:
        return 0
    latency = analysis.latency()
    mean = latency.mean_deltas(args.delta)
    print(f"  decided blocks:        {analysis.new_blocks}/{args.views}")
    print(f"  decisions:             {analysis.decision_count} "
          f"({analysis.decision_count / elapsed:,.0f}/sec)")
    print(f"  safety holds:          {analysis.safety().safe}")
    _report_faults(analysis, result.network)
    phases = analysis.voting_phases_per_block("tobsvd")
    print(f"  phases per block:      {phases}")
    print(f"  confirmed txs:         {latency.samples}/{len(txs)}")
    if mean is not None:
        print(f"  latency mean/min/max:  {mean:.2f}Δ / "
              f"{latency.min_ticks / args.delta:.2f}Δ / "
              f"{latency.max_ticks / args.delta:.2f}Δ")
    print(f"  reducer state entries: {analysis.state_entries()}")
    return 0 if analysis.safety().safe else 1


# ---------------------------------------------------------------------------
# table1
# ---------------------------------------------------------------------------


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.analysis.table1 import build_table1, render_table1
    from repro.harness.runner import collect_table1_measurements

    measured = collect_table1_measurements(smoke=args.smoke, progress=print)
    report = build_table1(measured=measured)
    print()
    print(render_table1(report))
    failures = [
        metric
        for metric in ("best_case", "expected", "phases_best", "phases_expected")
        if not report.shape_holds(metric, source="model")
    ]
    if failures:
        print(f"shape check FAILED on: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("shape check passed: protocol ordering matches the paper on every metric.")
    return 0


# ---------------------------------------------------------------------------
# snapshot / bisect
# ---------------------------------------------------------------------------


def _cli_scenario_key(args: argparse.Namespace, trace_mode: str) -> str:
    """Canonical scenario identity for CLI-saved snapshots.

    Mirrors the arguments that shape the warm-up prefix; the seed is
    carried separately in the recipe address (``snapshot_id``).
    """

    byz = (
        f"|f={args.f}|attacker={args.attacker}"
        if args.family == "equivocating"
        else ""
    )
    faults = ""
    if args.faults:
        spec = _parse_fault_spec(args.faults)
        faults = f"|faults={json.dumps(spec.to_dict(), sort_keys=True, separators=(',', ':'))}"
    return (
        f"cli|{args.family}{byz}|n={args.n}|delta={args.delta}"
        f"|views={args.views}{faults}|trace={trace_mode}"
    )


def _cmd_snapshot_save(args: argparse.Namespace) -> int:
    """Warm one scenario to a view boundary and store the snapshot."""

    import time as _time

    from repro.chain.transactions import TransactionPool
    from repro.snapshot import SnapshotError, SnapshotStore, warm_snapshot

    pool = TransactionPool()
    protocol = _build_scenario(args, pool, trace_mode=args.trace)
    view_ticks = protocol.config.time.view_ticks
    # Same anchored-transaction fixture as ``repro run``, so a forked
    # continuation is comparable with an uninterrupted ``run``.
    txs = _submit_anchored_txs(pool, args.views, view_ticks, "run")
    analysis = protocol.observability.analysis
    if analysis is not None:
        for tx in txs:
            analysis.watch(tx)
    started = _time.perf_counter()
    try:
        snapshot = warm_snapshot(
            protocol, _cli_scenario_key(args, args.trace), args.at_view,
            seed=args.seed,
        )
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    elapsed = _time.perf_counter() - started
    meta = snapshot.meta
    if args.file:
        Path(args.file).write_bytes(snapshot.to_bytes())
        where = args.file
    else:
        where = str(SnapshotStore(args.dir).put(snapshot))
    print(f"saved {meta.snapshot_id} -> {where}")
    print(f"  {args.family}: n={args.n} Δ={args.delta} views={args.views} "
          f"seed={args.seed} trace={args.trace}")
    print(f"  captured before view {meta.view} (t={meta.tick}) "
          f"in {elapsed:.2f}s, {len(snapshot.payload):,} payload bytes")
    return 0


def _cmd_snapshot_fork(args: argparse.Namespace) -> int:
    """Resume a saved snapshot under continuation overrides."""

    import time as _time

    from repro.snapshot import SnapshotError, fork

    snapshot = _load_snapshot_ref(args.snapshot, args.dir)
    meta = snapshot.meta
    fault_spec = _parse_fault_spec(args.faults) if args.faults else None
    corrupt = None
    if args.corrupt:
        corrupt = {}
        for part in args.corrupt.split(","):
            vid, _, tick = part.strip().partition("@")
            if not tick:
                raise SystemExit(
                    "error: --corrupt wants VALIDATOR@TICK[,VALIDATOR@TICK...]"
                )
            corrupt[int(vid)] = int(tick)
    try:
        protocol = fork(
            snapshot,
            fault_spec=fault_spec,
            num_views=args.extend_views,
            corrupt=corrupt,
        )
    except SnapshotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(f"fork {meta.snapshot_id}: resumed at view {meta.view} (t={meta.tick}) "
          f"n={meta.n} Δ={meta.delta} views={protocol.config.num_views}")
    started = _time.perf_counter()
    protocol.advance(protocol.config.horizon)
    result = protocol.finish()
    return _report_resumed(
        protocol, result, max(_time.perf_counter() - started, 1e-9)
    )


def _cmd_snapshot_ls(args: argparse.Namespace) -> int:
    """List every snapshot header in a store directory."""

    from repro.snapshot import SnapshotStore

    if not Path(args.dir).is_dir():
        print(f"error: {args.dir}: no such directory", file=sys.stderr)
        return 1
    store = SnapshotStore(args.dir)
    metas = store.metas()
    if not metas:
        print(f"(no snapshots in {args.dir})")
        return 0
    print(f"{'id':<16}  {'view':>4}  {'tick':>8}  {'n':>3}  {'views':>5}  "
          f"{'Δ':>2}  {'seed':>6}  scenario")
    for meta in metas:
        size = store.path_for(meta.snapshot_id).stat().st_size
        print(f"{meta.snapshot_id:<16}  {meta.view:>4}  {meta.tick:>8}  "
              f"{meta.n:>3}  {meta.num_views:>5}  {meta.delta:>2}  "
              f"{meta.seed:>6}  {meta.scenario_key}  ({size:,}B)")
    return 0


def _cmd_bisect(args: argparse.Namespace) -> int:
    """Binary-search the first bad view of a deterministic run.

    Probes fork from the nearest captured snapshot instead of replaying
    from genesis; with ``--snapshot-dir`` the captures persist across
    invocations, so re-bisecting a tweaked predicate is nearly free.
    """

    from repro.chain.transactions import TransactionPool
    from repro.snapshot import SnapshotStore, bisect_views

    def make_protocol():
        # Bounded retention: predicates read the streaming reducers.
        return _build_scenario(args, TransactionPool(), trace_mode="bounded")

    if args.check == "safety":
        def predicate(result) -> bool:
            return result.analysis.safety().safe
    else:
        # Progress: every elapsed view decided a block.  A view's decision
        # lands during the *following* view (confirmation latency exceeds
        # one view), so the boundary after view v expects v decided blocks
        # — views 0..v-1 done, view v still in flight.
        def predicate(result) -> bool:
            view_ticks = result.config.time.view_ticks
            views_elapsed = (result.simulator.now + 1) // view_ticks
            return result.analysis.new_blocks >= views_elapsed - 1

    store = SnapshotStore(args.snapshot_dir) if args.snapshot_dir else None
    scenario_key = _cli_scenario_key(args, "bounded")
    print(f"bisect {args.family}: n={args.n} Δ={args.delta} "
          f"views={args.views} seed={args.seed} check={args.check}")
    report = bisect_views(
        make_protocol, args.views, predicate,
        scenario_key=scenario_key, store=store,
    )
    for probe in report.probes:
        basis = f"v{probe.forked_from}" if probe.forked_from else "genesis"
        verdict = "good" if probe.good else "BAD"
        print(f"  probe end-of-view {probe.view:>3} (from {basis}): {verdict}")
    genesis_cost = sum(probe.view + 1 for probe in report.probes)
    print(f"  views replayed: {report.views_replayed} "
          f"(from-genesis bisection would replay {genesis_cost})")
    if report.first_bad_view is None:
        print(f"all {args.views} views satisfy '{args.check}'")
        return 0
    print(f"first bad view: {report.first_bad_view}")
    return 1


# ---------------------------------------------------------------------------
# fleet
# ---------------------------------------------------------------------------


def _cmd_fleet_coordinate(args: argparse.Namespace) -> int:
    """Serve one sweep's cells to remote runners until all commit."""

    from repro.fleet.coordinator import CoordinatorConfig, FleetCoordinator

    spec = _spec_from_args(args)
    store = ResultStore(args.out)
    cells, todo, recovered = pending_cells(spec, store)
    print(
        f"sweep '{spec.name}': {len(cells)} cells, {len(todo)} to run, "
        f"{len(cells) - len(todo)} resumed-skip"
        + (f", {recovered} corrupt lines quarantined" if recovered else "")
    )
    config = CoordinatorConfig(
        host=args.host,
        port=args.port,
        lease_ttl=args.lease_ttl,
        batch_size=args.batch,
        trace_mode=args.trace,
        hold_until_runners=args.min_runners,
    )
    on_commit = None if args.quiet else (
        lambda line: _progress_line(json.loads(line))
    )
    coordinator = FleetCoordinator(
        todo, store=store, config=config, on_commit=on_commit
    )
    host, port = coordinator.start()
    print(
        f"coordinator listening on {host}:{port} — start runners with: "
        f"python -m repro fleet run --host {host} --port {port}",
        flush=True,
    )
    try:
        if not coordinator.wait(timeout=args.timeout):
            counters = coordinator.counters()
            print(
                f"error: fleet did not converge within {args.timeout:.0f}s "
                f"({counters['cells_committed']}/{counters['cells_total']} "
                f"committed; resume with the same --out)",
                file=sys.stderr,
            )
            return 1
    except KeyboardInterrupt:
        print("\ninterrupted — committed cells are durable; resume to continue",
              file=sys.stderr)
        return 130
    finally:
        # When converged, let runners hear ``done`` before sockets drop.
        coordinator.close(grace=2.0 if coordinator.done else 0.0)
    _print_fleet_counters(coordinator.counters())
    outcome = run_sweep(spec, store=store)  # everything recorded: no execution
    return _sweep_epilogue(outcome, args)


def _cmd_fleet_run(args: argparse.Namespace) -> int:
    """One runner process: lease, execute, stream results, repeat."""

    from repro.fleet.runner import FleetRunner, RunnerError

    runner = FleetRunner(
        host=args.host,
        port=args.port,
        runner_id=args.runner_id,
        max_cells=args.max_cells,
        snapshot_dir=args.snapshot_dir,
        warmup_views=args.warmup_views,
    )
    print(f"runner {runner.runner_id} -> {args.host}:{args.port}", flush=True)
    try:
        stats = runner.run()
    except (RunnerError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(
        f"done: {stats.cells_executed} cells executed, "
        f"{stats.results_committed} committed, {stats.duplicates} duplicates, "
        f"{stats.batches_leased} batches over {stats.waits} waits"
    )
    return 0


def _cmd_fleet_local(args: argparse.Namespace) -> int:
    """Coordinator + N runner processes on localhost, one command."""

    from repro.fleet.local import FleetError, run_fleet_local

    spec = _spec_from_args(args)
    store = ResultStore(args.out)
    cells, todo, recovered = pending_cells(spec, store)
    on_commit = None if args.quiet else (
        lambda line: _progress_line(json.loads(line))
    )
    counters = None
    if todo:
        try:
            counters = run_fleet_local(
                todo,
                store=store,
                runners=args.runners,
                lease_ttl=args.lease_ttl,
                batch_size=args.batch,
                trace_mode=args.trace,
                on_commit=on_commit,
                timeout=args.timeout,
                snapshot_dir=args.snapshot_dir,
                warmup_views=args.warmup_views,
            ).counters
        except FleetError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    print(
        f"fleet sweep '{spec.name}': {len(cells)} cells, "
        f"{len(todo)} executed on {args.runners} runners, "
        f"{len(cells) - len(todo)} resumed-skip"
        + (f", {recovered} corrupt lines quarantined" if recovered else "")
    )
    if counters:
        _print_fleet_counters(counters)
    outcome = run_sweep(spec, store=store)  # everything recorded: no execution
    return _sweep_epilogue(outcome, args)


# ---------------------------------------------------------------------------
# node / deploy
# ---------------------------------------------------------------------------


def _parse_peer_map(text: str) -> dict[int, tuple[str, int]]:
    """``--peers`` value: ``0=127.0.0.1:9000,1=127.0.0.1:9001,...``."""

    addresses: dict[int, tuple[str, int]] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            node, endpoint = part.split("=", 1)
            host, port = endpoint.rsplit(":", 1)
            addresses[int(node)] = (host, int(port))
        except ValueError:
            raise SystemExit(f"error: bad --peers entry {part!r} "
                             "(want ID=HOST:PORT)")
    if not addresses:
        raise SystemExit("error: --peers is empty")
    return addresses


def _node_config(args: argparse.Namespace):
    from repro.core.tobsvd import TobSvdConfig

    return TobSvdConfig(n=args.n, num_views=args.views, delta=args.delta,
                        seed=args.seed)


def _deployment_plan(faults: str | None, config):
    """Compile ``--faults`` for a deployment; message faults are refused
    here, before any process or socket exists."""

    from repro.node.deploy import compile_deployment_plan
    from repro.node.runtime import UndeployablePlanError

    if not faults:
        return None
    try:
        return compile_deployment_plan(_parse_fault_spec(faults), config)
    except UndeployablePlanError as exc:
        raise SystemExit(f"error: {exc}")


def _cmd_node(args: argparse.Namespace) -> int:
    """One protocol node over real TCP: the per-host runtime."""

    from repro.net.transport import TcpTransport
    from repro.node.deploy import stable_builder
    from repro.node.failure import FailureDetector
    from repro.node.runtime import NodeRuntime

    addresses = _parse_peer_map(args.peers)
    if args.id not in addresses:
        print(f"error: --id {args.id} is not in the peer map", file=sys.stderr)
        return 1
    if len(addresses) != args.n:
        print(f"error: peer map has {len(addresses)} entries for --n {args.n}",
              file=sys.stderr)
        return 1
    config = _node_config(args)
    world = stable_builder(config, _deployment_plan(args.faults, config))(
        hosted=frozenset({args.id})
    )
    detector = FailureDetector(
        (peer for peer in addresses if peer != args.id),
        timeout=args.suspicion_timeout,
    )
    transport = TcpTransport(args.id, addresses, on_heard=detector.heard)
    runtime = NodeRuntime(
        world,
        transport,
        chaos=args.chaos,
        resumed=args.resumed,
        detector=detector,
        progress_timeout=args.progress_timeout,
    )
    try:
        result = runtime.run()
        transport.flush(timeout=10.0)
        result["link_stats"] = transport.link_stats()
        result["suspicions"] = detector.suspicions
    finally:
        transport.close()
    text = json.dumps(result, sort_keys=True, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
        print(f"node {args.id}: {len(result['decided'])} decisions -> {args.out}")
    else:
        print(text)
    return 0


def _cmd_deploy_local(args: argparse.Namespace) -> int:
    """n node processes over loopback TCP, checked against the sim oracle."""

    from repro.node.deploy import compare_to_oracle, run_local_deployment

    config = _node_config(args)
    plan = _deployment_plan(args.faults, config)
    spec = plan.spec if plan is not None else None
    deployment = run_local_deployment(
        config,
        fault_spec=spec,
        chaos=args.chaos,
        suspicion_timeout=args.suspicion_timeout,
        progress_timeout=args.progress_timeout,
    )
    restarts = (
        f", restarts {dict(sorted(deployment.restarts.items()))}"
        if deployment.restarts else ""
    )
    print(
        f"deploy local: n={config.n} views={config.num_views} "
        f"delta={config.delta} seed={config.seed} — "
        f"{deployment.total_decisions} decisions in {deployment.elapsed:.2f}s "
        f"({deployment.decisions_per_sec():.1f}/s){restarts}"
    )
    for vid, node in sorted(deployment.nodes.items()):
        if node["codec_rejects"]:
            reasons = ", ".join(
                f"{count} {reason}"
                for reason, count in sorted(node["reject_reasons"].items())
                if count
            )
            print(f"  node {vid}: refused {node['codec_rejects']} wire records ({reasons})")
    code = 0
    if not args.no_verify:
        report = compare_to_oracle(config, deployment.nodes, plan)
        verdict = "byte-identical" if report["identical"] else "DIVERGED"
        print(f"oracle check: {verdict} "
              f"({sum(report['per_node'].values())}/{len(report['per_node'])} nodes)")
        if not report["identical"]:
            for vid, same in sorted(report["per_node"].items()):
                if not same:
                    print(f"  node {vid}: decisions differ from simulator",
                          file=sys.stderr)
            code = 1
    if args.out:
        payload = {
            "config": {"n": config.n, "views": config.num_views,
                       "delta": config.delta, "seed": config.seed},
            "elapsed": deployment.elapsed,
            "restarts": deployment.restarts,
            "nodes": deployment.nodes,
        }
        Path(args.out).write_text(
            json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"wrote {args.out}")
    return code


# ---------------------------------------------------------------------------
# parser wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    """The full ``python -m repro`` argument parser."""

    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="TOB-SVD reproduction experiment toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_grid_args(target: argparse.ArgumentParser) -> None:
        """The declarative-grid flags shared by sweep and fleet."""

        target.add_argument("--spec", default=None,
                            help="JSON spec file (overrides grid flags)")
        target.add_argument("--name", default="sweep",
                            help="spec name (cell-id namespace)")
        target.add_argument("--protocols", default="tobsvd",
                            help="comma list: tobsvd,mr,mmr2,gl,mmr13")
        target.add_argument("--n", default="8", help="comma list of validator counts")
        target.add_argument("--f", default="0", help="comma list of Byzantine counts")
        target.add_argument("--delta", default="2",
                            help="comma list of Δ values (ticks)")
        target.add_argument("--attacker", default="equivocating-proposer",
                            help=f"comma list from {ATTACKERS}")
        target.add_argument("--participation", default="stable",
                            help=f"comma list from {PARTICIPATIONS}")
        target.add_argument("--seeds", type=int, default=1,
                            help="seeds per grid point")
        target.add_argument("--views", type=int, default=8, help="views per run")
        target.add_argument("--txs", type=int, default=8,
                            help="transactions per cell")
        target.add_argument("--fault-specs", default=None, metavar="JSON|@FILE",
                            help="JSON list of FaultSpec objects (null entries "
                            "= the no-fault arm) adding a fault axis to the "
                            "grid's tobsvd cells; crash-only specs fork from "
                            "warm snapshots when --snapshot-dir is set")

    def add_output_args(target: argparse.ArgumentParser) -> None:
        """Result-store and aggregate-rendering flags (sweep and fleet)."""

        target.add_argument("--out", default="sweep_results.jsonl",
                            help="append-only JSONL result store (resume source)")
        target.add_argument("--csv", default=None, help="write aggregate CSV here")
        target.add_argument("--markdown", default=None,
                            help="write aggregate Markdown here")
        target.add_argument("--quiet", action="store_true",
                            help="suppress per-cell lines and the aggregate table")
        target.add_argument("--trace", choices=("full", "bounded"),
                            default="bounded",
                            help="per-cell event retention (bounded keeps "
                            "O(state) memory; metrics are identical either way)")

    sweep = sub.add_parser("sweep", help="run a declarative experiment grid")
    add_grid_args(sweep)
    sweep.add_argument("--workers", type=int, default=1, help="worker processes")
    sweep.add_argument("--chunksize", type=int, default=0,
                       help="cells per dispatch chunk (0 = adaptive: "
                       "~4 chunks per worker, capped at 16)")
    sweep.add_argument("--warm", action="store_true",
                       help="start and warm the worker pool (pre-imported "
                       "protocol stack) before dispatching cells, so pool "
                       "start-up is excluded from the sweep itself; "
                       "no-op with --workers 1")
    add_output_args(sweep)
    sweep.add_argument("--list-cells", action="store_true",
                       help="print the expanded grid and exit")
    sweep.add_argument("--retries", type=int, default=0,
                       help="re-attempts per cell after a worker death or "
                       "timeout before the cell is quarantined as a "
                       "status=failed record (deterministic backoff)")
    sweep.add_argument("--cell-timeout", type=float, default=None,
                       help="seconds per cell before its worker is killed "
                       "and the cell retried (default: no timeout)")
    sweep.add_argument("--chaos", type=float, default=0.0,
                       help="chaos mode: probability a cell's first attempt "
                       "SIGKILLs its worker (testing the self-healing path; "
                       "combine with --retries >= 1)")
    sweep.add_argument("--chaos-seed", type=int, default=0,
                       help="seed for chaos kill decisions")
    sweep.add_argument("--snapshot-dir", default=None,
                       help="warm-snapshot store directory (cache tier three: "
                       "cells sharing a warm-up prefix run it once and fork); "
                       "records are byte-identical with the tier on or off")
    sweep.add_argument("--warmup-views", type=int, default=None,
                       help="force a snapshot boundary this many views in for "
                       "fault-free tobsvd cells (needs --snapshot-dir)")
    sweep.set_defaults(func=_cmd_sweep)

    def add_family_args(target: argparse.ArgumentParser,
                        default_views: int = 8) -> None:
        """Scenario-shape flags shared by run, snapshot save and bisect."""

        target.add_argument("family", nargs="?", default="stable",
                            choices=("stable", "equivocating", "churn",
                                     "late-join", "bursty", "crash",
                                     "partition"))
        target.add_argument("--n", type=int, default=8)
        target.add_argument("--f", type=int, default=3,
                            help="Byzantine count (equivocating only)")
        target.add_argument("--views", type=int, default=default_views)
        target.add_argument("--delta", type=int, default=2)
        target.add_argument("--seed", type=int, default=0)
        target.add_argument("--attacker", default="equivocating-proposer",
                            choices=ATTACKERS)
        target.add_argument("--faults", default=None, metavar="JSON|@FILE",
                            help="FaultSpec as inline JSON or @path "
                            "(stable, crash, and partition families)")

    run = sub.add_parser(
        "run",
        help="execute one scenario with live streaming-reducer stats",
    )
    add_family_args(run, default_views=64)
    run.add_argument("--trace", choices=("full", "bounded", "off"),
                     default="bounded",
                     help="event retention: full recorder, bounded reducers "
                     "only (default), or no observability at all")
    run.add_argument("--stats-every", type=int, default=0,
                     help="decisions between live stat lines (default 4n)")
    run.set_defaults(func=_cmd_run)

    table1 = sub.add_parser("table1", help="regenerate the paper's Table 1")
    table1.add_argument("--smoke", action="store_true",
                        help="shrunk runs (seconds, CI-suitable)")
    table1.set_defaults(func=_cmd_table1)

    snapshot = sub.add_parser(
        "snapshot",
        help="checkpoint warmed runs and fork continuations off them",
    )
    snap_sub = snapshot.add_subparsers(dest="snapshot_command", required=True)

    snap_save = snap_sub.add_parser(
        "save", help="warm a scenario to a view boundary and save the state"
    )
    add_family_args(snap_save, default_views=16)
    snap_save.add_argument("--at-view", type=int, required=True,
                           help="capture one tick before this view's propose "
                           "phase (1..views)")
    snap_save.add_argument("--dir", default="snapshots",
                           help="snapshot store directory (content-addressed)")
    snap_save.add_argument("--file", default=None,
                           help="write the blob to this exact path instead "
                           "of the store")
    snap_save.add_argument("--trace", choices=("full", "bounded"),
                           default="bounded",
                           help="event retention captured inside the snapshot")
    snap_save.set_defaults(func=_cmd_snapshot_save)

    snap_fork = snap_sub.add_parser(
        "fork", help="resume a saved snapshot under continuation overrides"
    )
    snap_fork.add_argument("snapshot",
                           help=".snap file path, or an id in --dir")
    snap_fork.add_argument("--dir", default="snapshots",
                           help="store directory ids resolve against")
    snap_fork.add_argument("--faults", default=None, metavar="JSON|@FILE",
                           help="crash-only FaultSpec applied to the "
                           "continuation (windows must start after the "
                           "fork tick)")
    snap_fork.add_argument("--extend-views", type=int, default=None,
                           help="extend the resumed run's horizon to this "
                           "many views")
    snap_fork.add_argument("--corrupt", default=None,
                           metavar="VID@TICK[,VID@TICK...]",
                           help="corrupt validators at post-fork ticks "
                           "(what-if exploration)")
    snap_fork.set_defaults(func=_cmd_snapshot_fork)

    snap_ls = snap_sub.add_parser(
        "ls", help="list the snapshots in a store directory"
    )
    snap_ls.add_argument("--dir", default="snapshots")
    snap_ls.set_defaults(func=_cmd_snapshot_ls)

    bisect = sub.add_parser(
        "bisect",
        help="binary-search the first bad view, forking snapshots "
        "instead of replaying from genesis",
    )
    add_family_args(bisect, default_views=16)
    bisect.add_argument("--check", choices=("safety", "progress"),
                        default="progress",
                        help="predicate probed at view boundaries: safety "
                        "(no conflicting decisions) or progress (every "
                        "elapsed view decided a block)")
    bisect.add_argument("--snapshot-dir", default=None,
                        help="persist probe snapshots here, so re-bisecting "
                        "the same run is nearly free")
    bisect.set_defaults(func=_cmd_bisect)

    fleet = sub.add_parser(
        "fleet",
        help="multi-host sweep fabric: coordinator/runner fleet over TCP",
    )
    fleet_sub = fleet.add_subparsers(dest="fleet_command", required=True)

    coordinate = fleet_sub.add_parser(
        "coordinate",
        help="serve a sweep's cells to remote runners until all commit",
    )
    add_grid_args(coordinate)
    add_output_args(coordinate)
    coordinate.add_argument("--host", default="127.0.0.1",
                            help="bind address (0.0.0.0 for LAN runners)")
    coordinate.add_argument("--port", type=int, default=0,
                            help="bind port (0 = OS-assigned, printed at start)")
    coordinate.add_argument("--lease-ttl", type=float, default=5.0,
                            help="seconds a silent runner holds its cells "
                            "before they re-dispatch")
    coordinate.add_argument("--batch", type=int, default=8,
                            help="cells per lease grant")
    coordinate.add_argument("--min-runners", type=int, default=0,
                            help="hold the first grant until this many "
                            "runners registered (start barrier)")
    coordinate.add_argument("--timeout", type=float, default=None,
                            help="seconds before giving up on convergence "
                            "(committed cells stay durable; resumable)")
    coordinate.set_defaults(func=_cmd_fleet_coordinate)

    fleet_run = fleet_sub.add_parser(
        "run",
        help="one runner: lease cells from a coordinator, stream results",
    )
    fleet_run.add_argument("--host", default="127.0.0.1",
                           help="coordinator address")
    fleet_run.add_argument("--port", type=int, required=True,
                           help="coordinator port")
    fleet_run.add_argument("--runner-id", default="",
                           help="stable runner identity (default: generated)")
    fleet_run.add_argument("--max-cells", type=int, default=0,
                           help="cells per lease request (0 = coordinator's "
                           "advertised batch)")
    fleet_run.add_argument("--snapshot-dir", default=None,
                           help="this host's warm-snapshot store; its ids "
                           "are advertised at register so the coordinator "
                           "prefers leasing cells they cover")
    fleet_run.add_argument("--warmup-views", type=int, default=None,
                           help="force a snapshot boundary for fault-free "
                           "cells (needs --snapshot-dir)")
    fleet_run.set_defaults(func=_cmd_fleet_run)

    local = fleet_sub.add_parser(
        "local",
        help="coordinator + N runner processes on localhost, one command",
    )
    add_grid_args(local)
    add_output_args(local)
    local.add_argument("--runners", type=int, default=2,
                       help="runner processes to spawn")
    local.add_argument("--lease-ttl", type=float, default=5.0,
                       help="seconds a silent runner holds its cells")
    local.add_argument("--batch", type=int, default=8,
                       help="cells per lease grant")
    local.add_argument("--timeout", type=float, default=None,
                       help="seconds before the fleet run is abandoned")
    local.add_argument("--snapshot-dir", default=None,
                       help="shared warm-snapshot store for every runner "
                       "(cells sharing a warm-up prefix fork instead of "
                       "replaying it)")
    local.add_argument("--warmup-views", type=int, default=None,
                       help="force a snapshot boundary for fault-free "
                       "cells (needs --snapshot-dir)")
    local.set_defaults(func=_cmd_fleet_local)

    def add_node_run_args(target: argparse.ArgumentParser) -> None:
        """The run-shape flags shared by ``node`` and ``deploy local``."""

        target.add_argument("--n", type=int, default=4, help="validator count")
        target.add_argument("--views", type=int, default=4, help="views per run")
        target.add_argument("--delta", type=int, default=1, help="Δ in ticks")
        target.add_argument("--seed", type=int, default=0, help="run seed")
        target.add_argument("--faults", default=None, metavar="JSON|@FILE",
                            help="crash-only FaultSpec as inline JSON or "
                            "@path; every crash window is a sleep (the "
                            "earliest a real process kill under --chaos "
                            "kill); message faults are refused")
        target.add_argument("--chaos", choices=("sleep", "kill"),
                            default="sleep",
                            help="how a node's earliest crash window manifests: "
                            "cooperative sleep (sim-exact) or a real SIGKILL "
                            "with resync-on-respawn")
        target.add_argument("--suspicion-timeout", type=float, default=10.0,
                            help="seconds of silence before a peer is "
                            "suspected and no longer waited for")
        target.add_argument("--progress-timeout", type=float, default=120.0,
                            help="seconds without tick progress before the "
                            "runtime aborts")

    node = sub.add_parser(
        "node",
        help="run ONE protocol node over real TCP (peers given explicitly)",
    )
    node.add_argument("--id", type=int, required=True, help="this node's id")
    node.add_argument("--peers", required=True, metavar="MAP",
                      help="full address map: 0=HOST:PORT,1=HOST:PORT,... "
                      "(must include --id; entry count must equal --n)")
    add_node_run_args(node)
    node.add_argument("--resumed", action="store_true",
                      help="rejoin after a crash: resync history from peers "
                      "and replay before re-entering the quorum")
    node.add_argument("--out", default=None,
                      help="write the result JSON here instead of stdout")
    node.set_defaults(func=_cmd_node)

    deploy = sub.add_parser(
        "deploy",
        help="real-transport deployments of unmodified validators",
    )
    deploy_sub = deploy.add_subparsers(dest="deploy_command", required=True)
    deploy_local = deploy_sub.add_parser(
        "local",
        help="n node processes over loopback TCP, byte-checked "
        "against the simulator oracle",
    )
    add_node_run_args(deploy_local)
    deploy_local.add_argument("--no-verify", action="store_true",
                              help="skip the sim-oracle byte comparison")
    deploy_local.add_argument("--out", default=None,
                              help="write the full deployment JSON here")
    deploy_local.set_defaults(func=_cmd_deploy_local)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""

    args = build_parser().parse_args(argv)
    return args.func(args)
