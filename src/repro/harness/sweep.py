"""Parallel experiment-sweep engine.

A sweep is a declarative :class:`ExperimentSpec` — a grid over protocol,
``n``, ``f``, ``Δ``, attacker, participation family and seed — expanded
into :class:`Cell` objects and executed on a ``multiprocessing`` worker
pool.  Three invariants make sweeps trustworthy:

* **Determinism.**  Every cell derives its run seed from a SHA-256 of its
  own coordinates (never from wall clock, never from global RNG state),
  so a cell's result is a pure function of the spec.  Serial and parallel
  execution produce the same set of JSONL records, and the sorted
  aggregate output is byte-identical regardless of worker count.
* **Append-only results.**  Each finished cell is one JSON line in a
  :class:`ResultStore`.  A killed sweep loses at most a partially-written
  final line, which the reader skips.
* **Resume.**  Re-running a sweep against an existing store skips every
  cell whose id is already recorded and executes only the remainder.

The grid axes mirror the paper's worlds: ``stable`` / ``churn`` /
``late-join`` / ``bursty`` participation (see
:mod:`repro.harness.scenarios`), the TOB attackers of
:mod:`repro.adversary.tob_attackers`, and the structural Table-1
baselines of :mod:`repro.baselines`.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass, field, replace
from statistics import mean
from typing import Callable

from repro.adversary.tob_attackers import make_tob_attacker_factory
from repro.baselines.structural_tob import StructuralConfig, StructuralTob
from repro.baselines.structure import PROTOCOL_STRUCTURES, structure_for
from repro.chain.transactions import TransactionPool
from repro.core.tobsvd import PROTOCOL_NAME as TOBSVD_NAME
from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol
from repro.faults import FaultSpec
from repro.harness.prebuild import PREBUILD
from repro.harness.scenarios import compile_checked_fault_plan
from repro.sleepy.corruption import CorruptionPlan
from repro.snapshot import SnapshotStore, fork, snapshot_id, warm_snapshot

PARTICIPATIONS = ("stable", "churn", "late-join", "bursty")
ATTACKERS = ("equivocating-proposer", "silent", "double-voter")
STRUCTURAL_PROTOCOLS = tuple(
    name for name in PROTOCOL_STRUCTURES if name != TOBSVD_NAME
)


def canonical_fault_entry(entry: str) -> str:
    """Normalize one fault-axis entry to its canonical JSON form.

    ``""`` means "no faults"; anything else must parse as a
    :class:`repro.faults.FaultSpec` dict and is re-serialized with sorted
    keys so textually-different spellings of the same spec collapse to one
    cell identity.  A spec with no actual faults normalizes to ``""``.
    """

    if not entry:
        return ""
    try:
        spec = FaultSpec.from_dict(json.loads(entry))
    except (json.JSONDecodeError, TypeError) as exc:
        raise ValueError(f"fault_specs entry is not a fault-spec JSON object: {exc}")
    if not spec.any_faults:
        return ""
    return json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Spec and cells
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExperimentSpec:
    """A declarative experiment grid.

    Axes multiply: ``protocols × ns × fs × deltas × attackers ×
    participations × seeds``.  :meth:`expand` drops combinations that are
    meaningless (``2f >= n``; a named attacker with ``f = 0``; non-stable
    participation for structural baselines, which have no sleep model) and
    de-duplicates the rest, so a spec is safe to write loosely.
    """

    name: str
    protocols: tuple[str, ...] = (TOBSVD_NAME,)
    ns: tuple[int, ...] = (8,)
    fs: tuple[int, ...] = (0,)
    deltas: tuple[int, ...] = (2,)
    attackers: tuple[str, ...] = ("equivocating-proposer",)
    participations: tuple[str, ...] = ("stable",)
    seeds: int = 1
    num_views: int = 8
    txs_per_cell: int = 8
    # Fault-injection axis: each entry is "" (no faults) or a FaultSpec
    # JSON object.  Applies to TOB-SVD cells only; other protocols keep
    # the fault-free cell.  Cells differing only in this axis share a
    # warm-up prefix and can fork from one snapshot (run_sweep
    # ``snapshot_dir=``).
    fault_specs: tuple[str, ...] = ("",)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("spec needs a name")
        if self.seeds < 1:
            raise ValueError("seeds must be >= 1")
        if self.num_views < 4:
            raise ValueError("num_views must be >= 4 (latency anchors need room)")
        if not self.fault_specs:
            raise ValueError("fault_specs needs at least one entry ('' = no faults)")
        for entry in self.fault_specs:
            canonical_fault_entry(entry)  # raises on malformed entries
        known = (TOBSVD_NAME,) + STRUCTURAL_PROTOCOLS
        for protocol in self.protocols:
            if protocol not in known:
                raise ValueError(f"unknown protocol {protocol!r} (known: {known})")
        for participation in self.participations:
            if participation not in PARTICIPATIONS:
                raise ValueError(
                    f"unknown participation {participation!r} (known: {PARTICIPATIONS})"
                )
        for attacker in self.attackers:
            if attacker not in ATTACKERS:
                raise ValueError(f"unknown attacker {attacker!r} (known: {ATTACKERS})")

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form (the on-disk spec-file format)."""

        return {
            "name": self.name,
            "protocols": list(self.protocols),
            "ns": list(self.ns),
            "fs": list(self.fs),
            "deltas": list(self.deltas),
            "attackers": list(self.attackers),
            "participations": list(self.participations),
            "seeds": self.seeds,
            "num_views": self.num_views,
            "txs_per_cell": self.txs_per_cell,
            "fault_specs": list(self.fault_specs),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""

        known = {
            "name", "protocols", "ns", "fs", "deltas", "attackers",
            "participations", "seeds", "num_views", "txs_per_cell",
            "fault_specs",
        }
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown spec keys: {sorted(extra)}")
        kwargs = dict(data)
        for key in (
            "protocols", "ns", "fs", "deltas", "attackers", "participations",
            "fault_specs",
        ):
            if key in kwargs:
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)

    # -- expansion ----------------------------------------------------------

    def expand(self) -> tuple["Cell", ...]:
        """The grid as a deterministic, de-duplicated cell tuple.

        Normalisation: ``f = 0`` cells carry attacker ``"none"`` (no
        attacker runs, so named attackers would only duplicate the cell),
        and invalid combinations are dropped rather than raised so a broad
        grid over ``ns × fs`` stays writable.
        """

        cells: dict[str, Cell] = {}
        for protocol in self.protocols:
            for n in self.ns:
                for f in self.fs:
                    if f < 0 or 2 * f >= n:
                        continue
                    for delta in self.deltas:
                        for participation in self.participations:
                            if (
                                protocol != TOBSVD_NAME
                                and participation != "stable"
                            ):
                                continue
                            attackers = self.attackers if f > 0 else ("none",)
                            if protocol != TOBSVD_NAME and f > 0:
                                # Structural baselines have one built-in
                                # bad-leader adversary; the attacker axis
                                # does not apply.
                                attackers = ("equivocating-proposer",)
                            for attacker in attackers:
                                fault_entries = (
                                    self.fault_specs
                                    if protocol == TOBSVD_NAME
                                    else ("",)
                                )
                                for entry in fault_entries:
                                    faults = canonical_fault_entry(entry)
                                    for seed_index in range(self.seeds):
                                        cell = Cell(
                                            spec_name=self.name,
                                            protocol=protocol,
                                            n=n,
                                            f=f,
                                            delta=delta,
                                            attacker=attacker,
                                            participation=participation,
                                            seed_index=seed_index,
                                            num_views=self.num_views,
                                            txs_per_cell=self.txs_per_cell,
                                            faults=faults,
                                        )
                                        cells[cell.cell_id] = cell
        return tuple(sorted(cells.values(), key=lambda c: c.sort_key))


@dataclass(frozen=True)
class Cell:
    """One grid point: a fully-specified, independently-runnable experiment."""

    spec_name: str
    protocol: str
    n: int
    f: int
    delta: int
    attacker: str
    participation: str
    seed_index: int
    num_views: int
    txs_per_cell: int
    faults: str = ""  # canonical FaultSpec JSON, or "" for no faults

    @property
    def canonical_key(self) -> str:
        """The unambiguous textual identity every derived value hashes.

        The fault suffix only appears when faults are present, so every
        pre-fault-axis cell keeps its historical key (and therefore its
        ``cell_id`` and on-disk records).
        """

        key = self.prefix_key
        if self.faults:
            key += f"|faults={self.faults}"
        return key

    @property
    def prefix_key(self) -> str:
        """The cell's identity *minus* the fault axis.

        Cells sharing a ``prefix_key`` run byte-identical warm-up prefixes
        (crash windows all start strictly after the shared prefix), which
        is what lets the snapshot tier run the prefix once and fork it
        under each cell's fault plan.
        """

        return (
            f"{self.spec_name}|{self.protocol}|n={self.n}|f={self.f}"
            f"|delta={self.delta}|attacker={self.attacker}"
            f"|participation={self.participation}|views={self.num_views}"
            f"|txs={self.txs_per_cell}|seed={self.seed_index}"
        )

    @property
    def cell_id(self) -> str:
        """Stable 16-hex-digit id (prefix of the key's SHA-256)."""

        return hashlib.sha256(self.canonical_key.encode()).hexdigest()[:16]

    @property
    def prefix_id(self) -> str:
        """16-hex id of the fault-stripped prefix (snapshot addressing)."""

        return hashlib.sha256(self.prefix_key.encode()).hexdigest()[:16]

    @property
    def run_seed(self) -> int:
        """Per-cell simulation seed, derived — not enumerated.

        Hash-derived seeds guarantee that neighbouring cells never share
        RNG streams (enumerated seeds 0,1,2… would collide across grid
        points) and that the seed is reproducible from the cell alone.
        Derived from :attr:`prefix_key`, not :attr:`canonical_key`:
        fault-ablation cells must share their prefix's RNG stream exactly
        or forked continuations could not be byte-identical to
        from-genesis runs.
        """

        digest = hashlib.sha256((self.prefix_key + "|rng").encode()).digest()
        return int.from_bytes(digest[:4], "big")

    def fault_spec(self) -> FaultSpec | None:
        """The cell's parsed :class:`FaultSpec`, or ``None`` if fault-free."""

        if not self.faults:
            return None
        return FaultSpec.from_dict(json.loads(self.faults))

    @property
    def sort_key(self) -> tuple:
        """Human-meaningful grid order (protocol, n, f, …, seed)."""

        return (
            self.spec_name, self.protocol, self.n, self.f, self.delta,
            self.attacker, self.participation, self.seed_index, self.faults,
        )

    def to_dict(self) -> dict:
        """JSON-able coordinates (embedded in every result record).

        ``faults`` is emitted only when set, so fault-free cells keep the
        exact record bytes they had before the fault axis existed.
        """

        data = {
            "spec_name": self.spec_name,
            "protocol": self.protocol,
            "n": self.n,
            "f": self.f,
            "delta": self.delta,
            "attacker": self.attacker,
            "participation": self.participation,
            "seed_index": self.seed_index,
            "num_views": self.num_views,
            "txs_per_cell": self.txs_per_cell,
        }
        if self.faults:
            data["faults"] = self.faults
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "Cell":
        """Inverse of :meth:`to_dict` (workers rebuild cells from dicts)."""

        return cls(**data)


# ---------------------------------------------------------------------------
# Cell execution
# ---------------------------------------------------------------------------


def _anchored_submissions(
    pool: TransactionPool, cell: Cell, view_ticks: int
) -> list:
    """Submit ``txs_per_cell`` transactions right before successive views.

    The standard Table-1 submission pattern: one transaction one tick
    before each view start, cycling over views ``1 .. num_views - 4`` so
    every submission has room to confirm inside the run.
    """

    last_view = max(2, cell.num_views - 3)
    txs = []
    for i in range(cell.txs_per_cell):
        view = 1 + i % (last_view - 1)
        # Payloads hash the *prefix* id (== cell_id for fault-free cells)
        # so fault-ablation cells submit byte-identical traffic to their
        # shared warm-up prefix — a snapshot-fork prerequisite.
        txs.append(
            pool.submit(
                payload=f"sweep-{cell.prefix_id}-{i}", at_time=view * view_ticks - 1
            )
        )
    return txs


def run_cell(
    cell: Cell,
    trace_mode: str = "bounded",
    snapshot_store: SnapshotStore | None = None,
    warmup_views: int | None = None,
) -> dict:
    """Execute one cell and return its JSON-able result record.

    The record is a pure function of the cell: metrics come from the
    deterministic simulation, floats are rounded once here (so serial and
    parallel runs cannot diverge in formatting), and failures inside the
    simulation are captured as ``status: "error"`` records rather than
    crashing the sweep.

    ``trace_mode`` picks the retention policy only — every metric reads
    from the streaming reducers, so records are byte-identical between
    ``full`` and ``bounded`` (the default: sweeps are long-horizon batch
    work and nothing here replays events).

    ``snapshot_store`` enables the snapshot tier: eligible cells (TOB-SVD
    with a crash-only fault plan, or any TOB-SVD cell when
    ``warmup_views`` forces a boundary) run their warm-up prefix once per
    store and fork it instead of replaying from genesis.  The record does
    **not** mention how it was executed — forked and from-genesis runs
    are byte-identical, which the fork-identity suite enforces.
    """

    try:
        metrics = None
        if snapshot_store is not None:
            metrics = _execute_forked(cell, trace_mode, snapshot_store, warmup_views)
        if metrics is None:
            metrics = _execute(cell, trace_mode)
        status, error = "ok", None
    except Exception as exc:  # noqa: BLE001 — a cell must never kill the sweep
        metrics, status, error = {}, "error", f"{type(exc).__name__}: {exc}"
    return {
        "cell_id": cell.cell_id,
        "cell": cell.to_dict(),
        "run_seed": cell.run_seed,
        "status": status,
        "error": error,
        "metrics": metrics,
    }


def quarantine_record(cell: Cell, error: str, attempts: int) -> dict:
    """The canonical record for a cell whose every attempt failed.

    Shares the :func:`run_cell` schema (so aggregation and resume logic
    treat it uniformly) with ``status: "failed"`` plus an ``attempts``
    count.  Quarantine records are the *only* records carrying attempt
    metadata — successful records stay pure functions of the cell, which
    is what keeps chaos runs byte-identical to fault-free ones.
    """

    return {
        "cell_id": cell.cell_id,
        "cell": cell.to_dict(),
        "run_seed": cell.run_seed,
        "status": "failed",
        "error": error,
        "metrics": {},
        "attempts": attempts,
    }


def prepare_cell(cell: Cell, trace_mode: str = "bounded"):
    """Build a cell's ready-to-run protocol and its submitted traffic.

    This is the *setup* half of a cell — config, schedule, compliance
    proof, corruption plan, keyset, delay policy, transaction anchors,
    protocol object — split out from the simulation so the benchmark
    suite can measure setup overhead on its own.  Immutable scaffolding
    (keysets, delay policies, corruption plans, compliance-checked
    schedules) comes from the per-process prebuild cache
    (:mod:`repro.harness.prebuild`); run-scoped mutable state (the
    transaction pool, the protocol/network/simulator) is always built
    fresh, keeping serial and parallel execution byte-identical.

    Returns ``(protocol, txs)``; raises on any invalid combination.
    """

    if cell.protocol == TOBSVD_NAME:
        config, schedule, corruption, fault_plan = _tobsvd_scaffold(cell)
        pool = TransactionPool()
        txs = _anchored_submissions(pool, cell, config.time.view_ticks)
        protocol = TobSvdProtocol(
            config,
            schedule=schedule,
            corruption=corruption,
            byzantine_factory=(
                make_tob_attacker_factory(cell.attacker) if cell.f else None
            ),
            delay_policy=PREBUILD.delay_policy(cell.delta),
            pool=pool,
            trace_mode=trace_mode,
            registry=PREBUILD.registry(cell.n, cell.run_seed),
            fault_plan=fault_plan,
        )
    else:
        if cell.faults:
            raise ValueError(
                "fault injection applies to TOB-SVD cells only "
                f"(cell {cell.cell_id} runs {cell.protocol!r})"
            )
        structure = structure_for(cell.protocol)
        config = StructuralConfig(
            n=cell.n, num_views=cell.num_views, delta=cell.delta, seed=cell.run_seed
        )
        pool = TransactionPool()
        view_ticks = structure.view_length_deltas * cell.delta
        txs = _anchored_submissions(pool, cell, view_ticks)
        protocol = StructuralTob(
            structure,
            config,
            corruption=PREBUILD.corruption(cell.n, cell.f),
            delay_policy=PREBUILD.delay_policy(cell.delta),
            pool=pool,
            trace_mode=trace_mode,
            registry=PREBUILD.registry(cell.n, cell.run_seed),
        )
    return protocol, txs


def _tobsvd_scaffold(cell: Cell):
    """A TOB-SVD cell's ``(config, schedule, corruption, fault_plan)``.

    Both execution paths — from-genesis and snapshot-fork — derive these
    here, so the compiled plans (and hence the simulated event streams)
    are identical.  ``fault_plan`` is ``None`` for fault-free cells.
    """

    config = TobSvdConfig(
        n=cell.n, num_views=cell.num_views, delta=cell.delta, seed=cell.run_seed
    )
    schedule = PREBUILD.tobsvd_schedule(cell, config)
    corruption = PREBUILD.corruption(cell.n, cell.f)
    spec = cell.fault_spec()
    fault_plan = None
    if spec is not None:
        fault_plan = compile_checked_fault_plan(
            spec,
            config,
            corruption if corruption is not None else CorruptionPlan.none(),
            schedule,
            label=f"cell {cell.cell_id}",
        )
    return config, schedule, corruption, fault_plan


def _metrics(cell: Cell, result, txs: list) -> dict:
    """The record's metrics dict from a finished run (shared by both tiers)."""

    deliveries = result.network.stats.weighted_deliveries
    analysis = result.analysis
    blocks = analysis.new_blocks
    confirmed = analysis.confirmation_times_deltas(txs, cell.delta)
    phases = analysis.voting_phases_per_block(cell.protocol)
    failure_rate = max(0.0, (cell.num_views - blocks) / cell.num_views)
    return {
        "safe": bool(analysis.safety().safe),
        "blocks": blocks,
        "view_failure_rate": round(failure_rate, 6),
        "confirmed": len(confirmed),
        "unconfirmed": len(txs) - len(confirmed),
        "latency_mean_deltas": round(mean(confirmed), 6) if confirmed else None,
        "latency_min_deltas": round(min(confirmed), 6) if confirmed else None,
        "latency_max_deltas": round(max(confirmed), 6) if confirmed else None,
        "phases_per_block": round(phases, 6) if phases is not None else None,
        "weighted_deliveries": deliveries,
    }


def _execute(cell: Cell, trace_mode: str = "bounded") -> dict:
    """The measured body of :func:`run_cell` (raises on any failure)."""

    protocol, txs = prepare_cell(cell, trace_mode)
    result = protocol.run()
    return _metrics(cell, result, txs)


def _snapshot_view(cell: Cell, config, fault_plan, warmup_views: int | None) -> int:
    """The latest sound fork view for a cell, or ``0`` when ineligible.

    A crash-only fault plan bounds the view at the first crash window
    (all fault events must land strictly after the fork tick);
    ``warmup_views`` caps it further and is the only thing that makes a
    *fault-free* cell eligible (it has no shared warm-up to skip
    otherwise, so snapshotting it would just add pickling overhead).
    """

    view = cell.num_views
    if fault_plan is not None:
        if fault_plan.has_message_faults:
            return 0  # message faults reshape delivery scheduling from genesis
        if fault_plan.crash_windows:
            earliest = min(w.start for w in fault_plan.crash_windows)
            view = min(view, earliest // config.time.view_ticks)
    elif warmup_views is None:
        return 0
    if warmup_views is not None:
        view = min(view, warmup_views)
    return max(0, view)


def _execute_forked(
    cell: Cell,
    trace_mode: str,
    snapshot_store: SnapshotStore,
    warmup_views: int | None,
) -> dict | None:
    """Run a cell via the snapshot tier, or return ``None`` if ineligible.

    The shared warm-up prefix (the cell with its fault axis stripped) is
    simulated once per store and captured at the fork view; every sibling
    cell forks the stored snapshot under its own fault plan.  Metrics are
    computed by the same :func:`_metrics` the genesis path uses, over the
    forked run's own transaction pool, so records stay byte-identical.
    """

    if cell.protocol != TOBSVD_NAME:
        return None
    config, _, _, fault_plan = _tobsvd_scaffold(cell)
    view = _snapshot_view(cell, config, fault_plan, warmup_views)
    if view < 1:
        return None
    scenario_key = f"{cell.prefix_key}|trace={trace_mode}"
    sid = snapshot_id(scenario_key, cell.run_seed, view)
    snapshot = snapshot_store.get(sid)
    if snapshot is None:
        prefix_cell = replace(cell, faults="")
        protocol, _ = prepare_cell(prefix_cell, trace_mode)
        snapshot = warm_snapshot(protocol, scenario_key, view, seed=cell.run_seed)
        snapshot_store.put(snapshot)
    forked = fork(snapshot, fault_plan=fault_plan)
    snapshot_store.forks += 1
    forked.advance(forked.config.horizon)
    result = forked.finish()
    return _metrics(cell, result, list(forked.pool))


def empty_cache_counters() -> dict:
    """The all-zero prebuild + snapshot tier counters."""

    return {
        "prebuild": {"hits": 0, "misses": 0},
        "snapshot": SnapshotStore.empty_stats(),
    }


def add_cache_counters(total: dict, delta: dict) -> None:
    """Add ``delta`` into ``total`` in place (both in the reporting shape)."""

    for tier, counters in delta.items():
        for key, value in counters.items():
            total[tier][key] += value


def run_cell_batch(
    cell_dicts,
    trace_mode: str = "bounded",
    snapshot_dir: str | None = None,
    warmup_views: int | None = None,
    cache: dict | None = None,
):
    """Execute cells given in dict form; yield each canonical JSONL line.

    The one place cell dicts become result lines — the in-process sweep,
    the pool worker and the fleet runner all call it — so every record is
    serialized exactly once, by :func:`canonical_record`, next to the
    simulation that produced it.  Lines are yielded as cells finish (the
    fleet runner streams them as heartbeats).  ``snapshot_dir`` opens the
    snapshot tier on that directory for the batch; the directory is
    shared by every process of a sweep, so a prefix warmed by one is a
    disk hit for all others (atomic first-rename-wins puts).  Once the
    batch is exhausted its prebuild/snapshot counter deltas are added
    into ``cache`` (a dict shaped like :func:`empty_cache_counters`).
    """

    snapshot_store = SnapshotStore(snapshot_dir) if snapshot_dir is not None else None
    hits, misses = PREBUILD.hits, PREBUILD.misses
    for data in cell_dicts:
        yield canonical_record(
            run_cell(
                Cell.from_dict(data),
                trace_mode,
                snapshot_store=snapshot_store,
                warmup_views=warmup_views,
            )
        )
    if cache is not None:
        prebuild = {"hits": PREBUILD.hits - hits, "misses": PREBUILD.misses - misses}
        snapshot = snapshot_store.stats() if snapshot_store is not None else {}
        add_cache_counters(cache, {"prebuild": prebuild, "snapshot": snapshot})


# ---------------------------------------------------------------------------
# Result store
# ---------------------------------------------------------------------------


def canonical_record(record: dict) -> str:
    """The one true serialisation of a record (sorted keys, no whitespace).

    Byte-identity across serial/parallel runs rests on every writer using
    exactly this encoding.
    """

    return json.dumps(record, sort_keys=True, separators=(",", ":"))


class ResultStore:
    """Append-only JSONL result store with kill-tolerant reads.

    One record per line.  Reads skip unparsable lines (a sweep killed
    mid-write leaves at most one truncated final line), which is what
    makes resume-after-kill safe without any journalling.  For damage
    beyond a truncated tail — corrupt JSON mid-file, or a record whose
    embedded cell no longer hashes to its claimed ``cell_id`` —
    :meth:`recover` quarantines the bad lines to a ``.bad`` sidecar so
    the affected cells re-run on resume instead of being shadowed.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        self._tail_checked = False
        self._durable_ids: set[str] | None = None  # lazy dedup index

    @property
    def bad_path(self) -> str:
        """Sidecar file holding quarantined (corrupt) lines."""

        return self.path + ".bad"

    @staticmethod
    def _integrity_ok(record) -> bool:
        """Does a parsed record's embedded cell agree with its cell_id?

        Records that embed a ``cell`` dict must hash back to their claimed
        ``cell_id`` — a mismatch means the line was corrupted (bit rot,
        interleaved writes) even though it still parses as JSON.  Records
        without an embedded cell are accepted as-is.
        """

        if not isinstance(record, dict) or "cell_id" not in record:
            return False
        cell = record.get("cell")
        if cell is None:
            return True
        try:
            return Cell.from_dict(cell).cell_id == record["cell_id"]
        except (TypeError, ValueError, KeyError):
            return False

    def recover(self) -> int:
        """Quarantine corrupt mid-file lines to the ``.bad`` sidecar.

        :meth:`load` already *skips* unparsable lines, which is enough for
        a truncated tail but leaves mid-file corruption (bad JSON, or a
        record whose embedded cell no longer hashes to its ``cell_id``)
        sitting in the store where it silently shadows the cell forever.
        ``recover`` rewrites the store without those lines — atomically,
        via a temp file and :func:`os.replace` — appends them verbatim to
        ``.bad``, and returns the number quarantined so the caller can
        re-run the affected cells.  A clean store is left untouched.
        """

        if not os.path.exists(self.path):
            return 0
        good: list[str] = []
        bad: list[str] = []
        with open(self.path, encoding="utf-8") as fh:
            for raw in fh.read().splitlines():
                line = raw.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    bad.append(raw)
                    continue
                if self._integrity_ok(record):
                    good.append(raw)
                else:
                    bad.append(raw)
        if not bad:
            return 0
        with open(self.bad_path, "a", encoding="utf-8") as fh:
            for line in bad:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        tmp = self.path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            for line in good:
                fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, self.path)
        self._tail_checked = True  # the rewrite always ends on a newline
        self._durable_ids = None  # quarantined lines may have held ids
        return len(bad)

    def _ensure_trailing_newline(self) -> None:
        """Repair a truncated final line before appending new records.

        A run killed mid-write leaves a partial line with no newline;
        appending straight after it would glue a fresh (valid) record onto
        the junk and corrupt it.  Terminating the junk line instead leaves
        it harmlessly unparsable.
        """

        if self._tail_checked:
            return
        self._tail_checked = True
        try:
            with open(self.path, "rb") as fh:
                fh.seek(-1, os.SEEK_END)
                last = fh.read(1)
        except (OSError, ValueError):  # missing or empty file
            return
        if last != b"\n":
            with open(self.path, "a", encoding="utf-8") as fh:
                fh.write("\n")

    def load(self) -> list[dict]:
        """All parsable records, in file order (duplicates possible)."""

        if not os.path.exists(self.path):
            return []
        records: list[dict] = []
        with open(self.path, encoding="utf-8") as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                try:
                    records.append(json.loads(line))
                except json.JSONDecodeError:
                    continue  # truncated tail from an interrupted run
        return records

    def completed_ids(self) -> set[str]:
        """Cell ids with a durable result (``ok`` and ``error`` count).

        Quarantined ``failed`` records do *not* count: a cell that
        exhausted its retries should re-run on the next resume, and its
        fresh record — appended later — supersedes the quarantine line.
        """

        return {
            record["cell_id"]
            for record in self.load()
            if isinstance(record, dict)
            and "cell_id" in record
            and record.get("status") != "failed"
        }

    def append(self, record: dict) -> None:
        """Write one record and flush — a crash never loses earlier cells."""

        self.append_line(canonical_record(record))

    def append_record_once(self, cell_id: str, line: str) -> bool:
        """First-write-wins append keyed on ``cell_id``.

        The store historically assumed a single appender per cell; a
        fleet coordinator re-dispatching leased cells can receive the
        same cell's result more than once (late delivery after lease
        expiry, a runner resending after a cut connection).  The first
        durable line for a cell wins; every later append for the same
        id is dropped and the bytes on disk stay untouched.  Quarantine
        (``status: "failed"``) lines do not claim an id — a later real
        result must still supersede them, mirroring
        :meth:`completed_ids`.  Returns whether the line was written.
        """

        ids = self._dedup_index()
        if cell_id in ids:
            return False
        self.append_line(line)
        return True

    def _dedup_index(self) -> set[str]:
        """The ids holding a durable (non-``failed``) record, cached.

        Built lazily from :meth:`completed_ids` on first use and kept
        coherent by :meth:`append_line` from then on, so resume against
        an existing store pays one scan, not one per append.
        """

        if self._durable_ids is None:
            self._durable_ids = self.completed_ids()
        return self._durable_ids

    def append_line(self, line: str) -> None:
        """Append one pre-canonicalized JSONL line verbatim.

        The chunked-dispatch fast path: sweep workers serialize records
        with :func:`canonical_record` before shipping them back, so the
        parent appends raw bytes instead of re-serializing.  The caller
        guarantees ``line`` is one canonical record with no trailing
        newline.  Durability matches :meth:`append`: flushed and fsynced
        per line, so a kill loses at most the line being written.
        """

        parent = os.path.dirname(self.path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._ensure_trailing_newline()
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")
            fh.flush()
            os.fsync(fh.fileno())
        if self._durable_ids is not None:
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                return
            if (
                isinstance(record, dict)
                and "cell_id" in record
                and record.get("status") != "failed"
            ):
                self._durable_ids.add(record["cell_id"])


# ---------------------------------------------------------------------------
# The sweep driver
# ---------------------------------------------------------------------------


@dataclass
class SweepOutcome:
    """What :func:`run_sweep` hands back to callers."""

    spec: ExperimentSpec
    total_cells: int
    executed: int
    skipped: int
    records: list[dict] = field(default_factory=list)
    recovered: int = 0
    cache: dict | None = None  # prebuild + snapshot tier hit/miss counters

    def sorted_records(self) -> list[dict]:
        """Records in canonical (cell_id) order — the aggregation input."""

        return sorted(self.records, key=lambda r: r["cell_id"])


def pending_cells(
    spec: ExperimentSpec, store: ResultStore | None
) -> tuple[tuple[Cell, ...], list[Cell], int]:
    """The resume prologue every sweep driver shares.

    Quarantines corrupt store lines, expands the grid and filters out the
    cells the store already holds a durable result for.  Returns
    ``(cells, todo, recovered)``.
    """

    cells = spec.expand()
    recovered = store.recover() if store is not None else 0
    done = store.completed_ids() if store is not None else set()
    return cells, [cell for cell in cells if cell.cell_id not in done], recovered


def run_sweep(
    spec: ExperimentSpec,
    store: ResultStore | None = None,
    workers: int = 1,
    progress: Callable[[dict], None] | None = None,
    trace_mode: str = "bounded",
    executor: "SweepExecutor | None" = None,
    snapshot_dir: str | None = None,
    warmup_views: int | None = None,
) -> SweepOutcome:
    """Expand ``spec`` and execute every not-yet-recorded cell.

    Cells run in this process when no pool was given and ``workers <= 1``
    or at most one cell is left; otherwise on a :class:`repro.harness.
    executor.SweepExecutor` — the one passed in (``executor=``, a warm
    pool reused across sweeps) or a throwaway one with ``workers``
    processes for just this call.  Results are appended to ``store`` as
    they complete (completion order may differ between runs, which is
    why consumers read :meth:`SweepOutcome.sorted_records`).  Both paths
    produce the same record *set*, byte-for-byte, because cells share no
    mutable state, derive all randomness from their own coordinates, and
    every record is serialized exactly once by :func:`run_cell_batch` —
    in the worker for pool runs, whose raw line the parent appends
    verbatim.

    ``progress`` (if given) is called with each fresh record — the CLI
    uses it for per-cell console lines.

    ``trace_mode`` selects per-cell event retention (``bounded`` by
    default: each cell holds O(state) memory instead of its full event
    log).  Records do not embed the mode because metrics are
    retention-independent — resuming a ``full`` store with ``bounded``
    cells, or vice versa, is safe.

    ``snapshot_dir`` turns on the snapshot cache tier (tier three of
    immutable prebuild → warm snapshots → per-cell runs): eligible cells
    sharing a warm-up prefix run it once and fork the stored snapshot.
    ``warmup_views`` forces a snapshot boundary for fault-free TOB-SVD
    cells (see :func:`run_cell`).  Records are byte-identical with the
    tier on or off; tier counters come back as
    :attr:`SweepOutcome.cache`.
    """

    cells, todo, recovered = pending_cells(spec, store)
    fresh: list[dict] = []

    def consume_line(line: str) -> None:
        record = json.loads(line)
        if store is not None:
            store.append_line(line)
        fresh.append(record)
        if progress is not None:
            progress(record)

    cache_counters = empty_cache_counters()
    pool = executor
    if pool is None and (workers <= 1 or len(todo) <= 1):
        lines = run_cell_batch(
            (cell.to_dict() for cell in todo),
            trace_mode,
            snapshot_dir,
            warmup_views,
            cache=cache_counters,
        )
    else:
        if pool is None:
            from repro.harness.executor import SweepExecutor

            pool = SweepExecutor(workers=workers)
        lines = pool.map_cells(
            todo,
            trace_mode,
            snapshot_dir=snapshot_dir,
            warmup_views=warmup_views,
            cache=cache_counters,
        )
    try:
        for line in lines:
            consume_line(line)
    finally:
        if pool is not executor:
            pool.close()  # the throwaway pool

    records = {r["cell_id"]: r for r in (store.load() if store is not None else fresh)}
    wanted = {cell.cell_id for cell in cells}
    return SweepOutcome(
        spec=spec,
        total_cells=len(cells),
        executed=len(todo),
        skipped=len(cells) - len(todo),
        records=[records[cid] for cid in sorted(wanted & set(records))],
        recovered=recovered,
        cache=cache_counters,
    )
