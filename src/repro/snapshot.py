"""Snapshot/fork engine: checkpoint a warmed run, fork many continuations.

Every sweep cell, ablation arm and long-horizon run replays the same
deterministic warm-up prefix from genesis.  Because runs here are
*byte-deterministic* (seed fixture; serial ⇔ parallel ⇔ fleet identity),
mid-run state can be captured once and resumed many times with results
identical to uninterrupted executions.  A snapshot serializes the complete
run state — validator/protocol objects, chain logs, the scheduler calendar
(tick buckets + pending heap), in-flight network messages, RNG/VRF memo
state, :class:`~repro.runctx.RunContext` intern tables, awake-schedule and
fault-plan cursors, and the :class:`StreamingAnalyzer` reducer state — as
one pickled object graph behind a canonical, versioned header.

Identity model
--------------
Snapshots are **recipe-addressed**: ``snapshot_id = sha256(scenario_key,
seed, view)``.  Two processes that warm the same recipe may produce
byte-different pickles (hash-seed dependent dict internals), but both thaw
to behaviourally identical runs — determinism is over *event order*, which
the calendar's ``(time, priority, seq)`` total order pins.  The blob
format itself is canonical: :meth:`Snapshot.to_bytes` of a loaded blob
reproduces the input bytes exactly (the payload is kept verbatim and the
header round-trips through canonical JSON).

Fork soundness
--------------
``fork(snapshot, ...)`` thaws a *fresh* object graph per call (forks never
share mutable state) and optionally applies overrides:

* ``fault_plan`` / ``fault_spec`` — crash-only plans whose windows start
  strictly after the snapshot tick.  This is the byte-identity-preserving
  override: the from-genesis run's extra CONTROL events all lie after the
  fork point and install in the same relative bucket order (see
  :meth:`SleepController.adopt_fault_plan`).
* ``num_views`` — extend the horizon:
  :meth:`TobSvdProtocol.extend_horizon` is a second
  ``SleepController.install(new_horizon, after=old_horizon)`` plus the
  missing phase timers, written in the order ``start()`` writes them.
* ``corrupt`` — additional ``{validator: time}`` corruptions after the
  fork point (what-if exploration), via ``SleepController.corrupt_at``.
* ``delay_policy`` — swap the message-delay policy from the fork point
  (what-if exploration; no from-genesis counterpart is claimed).

Within a ``(time, priority)`` bucket the calendar runs events in the
order they were scheduled, so whatever a fork schedules lands *behind*
everything the prefix installed — which is exactly the order a
from-genesis run with the same configuration would have produced, since
every bucket lies wholly inside one install window.

``SNAPSHOT_VERSION`` 8: the network's holder table (envelope token →
mask of the validators holding it) is the run's only dedup record, so it
travels in the blob and validators share it after thaw.  A v7 blob
carries an empty table beside per-validator dedup sets this build no
longer reads — it would thaw into a run that re-handles every envelope —
so v7 blobs are refused at the header.
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import struct
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable

from repro.faults import FaultSpec

if TYPE_CHECKING:  # pragma: no cover - annotation-only
    from repro.core.tobsvd import TobSvdConfig, TobSvdProtocol, TobSvdResult

SNAPSHOT_VERSION = 8
MAGIC = b"RPROSNAP"
_HEADER_LEN = struct.Struct(">I")


class SnapshotError(ValueError):
    """A snapshot cannot be built, parsed, or forked as requested."""


def snapshot_id(scenario_key: str, seed: int, view: int) -> str:
    """Stable 16-hex-digit recipe address of a warmed prefix.

    ``scenario_key`` is any canonical textual identity of the scenario
    (a sweep cell's prefix key, or a CLI family string); ``view`` is the
    first view the snapshot has *not* executed.
    """

    key = f"snapshot|v{SNAPSHOT_VERSION}|{scenario_key}|seed={seed}|view={view}"
    return hashlib.sha256(key.encode()).hexdigest()[:16]


def fork_tick(config: "TobSvdConfig", view: int) -> int:
    """The capture tick for a snapshot taken "before view ``view``".

    One tick before the view's propose phase: every event of views
    ``0 .. view-1`` has executed, in-flight deliveries (≤ Δ away) are
    still in the calendar, and nothing of view ``view`` has run.
    """

    if not 1 <= view <= config.num_views:
        raise SnapshotError(
            f"fork view must lie in [1, {config.num_views}], got {view}"
        )
    return config.time.view_start(view) - 1


@dataclass(frozen=True)
class SnapshotMeta:
    """The canonical-JSON header in front of every snapshot payload."""

    snapshot_id: str
    scenario_key: str
    seed: int
    view: int
    tick: int
    n: int
    num_views: int
    delta: int
    trace_mode: str
    version: int = SNAPSHOT_VERSION

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "snapshot_id": self.snapshot_id,
            "scenario_key": self.scenario_key,
            "seed": self.seed,
            "view": self.view,
            "tick": self.tick,
            "n": self.n,
            "num_views": self.num_views,
            "delta": self.delta,
            "trace_mode": self.trace_mode,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SnapshotMeta":
        if data.get("version") != SNAPSHOT_VERSION:
            raise SnapshotError(
                f"unsupported snapshot version {data.get('version')!r} "
                f"(this build reads v{SNAPSHOT_VERSION})"
            )
        return cls(
            snapshot_id=data["snapshot_id"],
            scenario_key=data["scenario_key"],
            seed=data["seed"],
            view=data["view"],
            tick=data["tick"],
            n=data["n"],
            num_views=data["num_views"],
            delta=data["delta"],
            trace_mode=data["trace_mode"],
        )


class Snapshot:
    """One captured prefix: a canonical header plus the pickled run graph.

    The payload bytes are kept verbatim after :meth:`from_bytes`, so
    ``Snapshot.from_bytes(b).to_bytes() == b`` holds exactly; thawing is
    lazy and per-fork (each :func:`fork` call unpickles a fresh graph).
    """

    __slots__ = ("meta", "payload")

    def __init__(self, meta: SnapshotMeta, payload: bytes) -> None:
        self.meta = meta
        self.payload = payload

    def to_bytes(self) -> bytes:
        header = json.dumps(
            self.meta.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode()
        return MAGIC + _HEADER_LEN.pack(len(header)) + header + self.payload

    @classmethod
    def from_bytes(cls, blob: bytes) -> "Snapshot":
        if blob[: len(MAGIC)] != MAGIC:
            raise SnapshotError("not a snapshot blob (bad magic)")
        offset = len(MAGIC)
        (header_len,) = _HEADER_LEN.unpack_from(blob, offset)
        offset += _HEADER_LEN.size
        header = blob[offset : offset + header_len]
        meta = SnapshotMeta.from_dict(json.loads(header.decode()))
        return cls(meta, blob[offset + header_len :])

    def thaw(self) -> "TobSvdProtocol":
        """A fresh, isolated protocol graph positioned at ``meta.tick``."""

        return pickle.loads(self.payload)


def capture(
    protocol: "TobSvdProtocol", scenario_key: str, view: int, seed: int | None = None
) -> Snapshot:
    """Serialize a started protocol's current state under a recipe address.

    The caller positions the run (``start(); advance(fork_tick(...))``);
    :func:`warm_snapshot` wraps the common case.  ``seed`` defaults to the
    run config's seed.

    The run is pickled as it is.  It stays proportional to the protocol's
    working set because validators retire finished views while they run
    (:meth:`TobSvdValidator._retire_views_below`): what a blob carries of
    an old view is its two-mask tombstone, which answers a late message
    exactly as the live state would.
    """

    if not getattr(protocol, "_started", False):
        raise SnapshotError("capture() needs a started protocol; call start() first")
    config = protocol.config
    seed = config.seed if seed is None else seed
    tick = protocol.simulator.now
    meta = SnapshotMeta(
        snapshot_id=snapshot_id(scenario_key, seed, view),
        scenario_key=scenario_key,
        seed=seed,
        view=view,
        tick=tick,
        n=config.n,
        num_views=config.num_views,
        delta=config.delta,
        trace_mode=protocol.observability.mode,
    )
    return Snapshot(meta, pickle.dumps(protocol, protocol=pickle.HIGHEST_PROTOCOL))


def warm_snapshot(
    protocol: "TobSvdProtocol", scenario_key: str, view: int, seed: int | None = None
) -> Snapshot:
    """Run a freshly-built protocol up to ``view`` and capture it."""

    protocol.start()
    protocol.advance(fork_tick(protocol.config, view))
    return capture(protocol, scenario_key, view, seed=seed)


def _require_forkable_plan(plan, tick: int) -> None:
    """Crash-only, strictly-post-fork fault plans preserve byte identity."""

    if plan.has_message_faults:
        raise SnapshotError(
            "only crash-only fault plans can be forked byte-identically "
            "(message faults change delivery scheduling from genesis)"
        )
    for window in plan.crash_windows:
        if window.start <= tick:
            raise SnapshotError(
                f"crash window for v{window.validator} starts at "
                f"t={window.start}, on or before the fork tick t={tick}"
            )


def fork(
    snapshot: Snapshot,
    fault_plan=None,
    fault_spec: FaultSpec | None = None,
    num_views: int | None = None,
    corrupt: dict[int, int] | None = None,
    delay_policy=None,
) -> "TobSvdProtocol":
    """Thaw ``snapshot`` into a fresh run and apply continuation overrides.

    Returns a started protocol positioned at the snapshot tick; callers
    finish it with ``advance(config.horizon); finish()`` (or ``run()``).
    Overrides apply in a fixed order — horizon extension, fault plan,
    corruptions, delay policy — so combined forks are deterministic.
    """

    from repro.harness.scenarios import compile_checked_fault_plan

    protocol = snapshot.thaw()
    tick = snapshot.meta.tick
    if num_views is not None and num_views != protocol.config.num_views:
        protocol.extend_horizon(num_views)
    if fault_spec is not None:
        if fault_plan is not None:
            raise SnapshotError("pass fault_plan or fault_spec, not both")
        fault_plan = compile_checked_fault_plan(
            fault_spec,
            protocol.config,
            protocol.corruption,
            protocol.schedule,
            label=f"fork of {snapshot.meta.snapshot_id}",
        )
    if fault_plan is not None:
        _require_forkable_plan(fault_plan, tick)
        protocol.fault_plan = fault_plan
        protocol.controller.adopt_fault_plan(fault_plan, protocol.config.horizon)
    if corrupt:
        for vid, time in sorted(corrupt.items(), key=lambda kv: (kv[1], kv[0])):
            if time <= tick:
                raise SnapshotError(
                    f"corruption of v{vid} at t={time} is on or before the "
                    f"fork tick t={tick}"
                )
            protocol.controller.corrupt_at(vid, time)
    if delay_policy is not None:
        protocol.network.set_delay_policy(delay_policy)
    return protocol


def resume(snapshot: Snapshot, **overrides) -> "TobSvdResult":
    """Fork, run to the (possibly extended) horizon, and return the result."""

    protocol = fork(snapshot, **overrides)
    protocol.advance(protocol.config.horizon)
    return protocol.finish()


class SnapshotStore:
    """A directory of ``<snapshot_id>.snap`` blobs with hit/miss counters.

    Writes are atomic (temp file + rename), so concurrent sweep workers
    warming the same recipe race benignly: the first rename wins and every
    loser's blob is an equivalent recipe capture.
    """

    SUFFIX = ".snap"

    def __init__(self, root: str | Path) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.saves = 0
        self.forks = 0  # callers bump this per fork served from the store

    def path_for(self, sid: str) -> Path:
        return self.root / f"{sid}{self.SUFFIX}"

    def get(self, sid: str) -> Snapshot | None:
        path = self.path_for(sid)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        self.hits += 1
        return Snapshot.from_bytes(blob)

    def put(self, snapshot: Snapshot) -> Path:
        path = self.path_for(snapshot.meta.snapshot_id)
        if path.exists():
            return path
        fd, tmp = tempfile.mkstemp(
            dir=self.root, prefix=".tmp-", suffix=self.SUFFIX
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(snapshot.to_bytes())
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise
        self.saves += 1
        return path

    def ids(self) -> list[str]:
        return sorted(
            p.name[: -len(self.SUFFIX)]
            for p in self.root.glob(f"*{self.SUFFIX}")
            if not p.name.startswith(".tmp-")
        )

    def metas(self) -> list[SnapshotMeta]:
        """Headers of every stored snapshot (payloads are not loaded)."""

        metas = []
        for sid in self.ids():
            path = self.path_for(sid)
            with path.open("rb") as handle:
                magic = handle.read(len(MAGIC))
                if magic != MAGIC:
                    continue
                (header_len,) = _HEADER_LEN.unpack(handle.read(_HEADER_LEN.size))
                header = handle.read(header_len)
            metas.append(SnapshotMeta.from_dict(json.loads(header.decode())))
        return metas

    def stats(self) -> dict:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "saves": self.saves,
            "forks": self.forks,
        }

    @staticmethod
    def empty_stats() -> dict:
        """The all-zero stats shape (for reporting when no store is active)."""

        return {"hits": 0, "misses": 0, "saves": 0, "forks": 0}


@dataclass(frozen=True)
class BisectProbe:
    """One bisection probe: the run was examined at the end of ``view``."""

    view: int
    good: bool
    forked_from: int  # boundary view of the snapshot the probe resumed at


@dataclass(frozen=True)
class BisectReport:
    """Outcome of :func:`bisect_views`.

    ``first_bad_view`` is the earliest view whose end already violates the
    predicate, or ``None`` when the full run stays good.  ``probes`` lists
    every evaluation in execution order; ``views_replayed`` counts the
    total views actually simulated — the work a from-genesis bisection
    would multiply by the probe count.
    """

    first_bad_view: int | None
    probes: tuple[BisectProbe, ...]
    views_replayed: int


def bisect_views(
    make_protocol: Callable[[], "TobSvdProtocol"],
    num_views: int,
    predicate: Callable[["TobSvdResult"], bool],
    scenario_key: str = "bisect",
    store: SnapshotStore | None = None,
) -> BisectReport:
    """Binary-search the first view after which ``predicate`` fails.

    ``predicate(result)`` returns True while the run is still "good" when
    examined at a view boundary.  The driver assumes monotonicity (good
    prefixes of a bad run stay good up to the first bad view — true for
    safety violations and missing-decision checks).  Each probe resumes
    from the nearest already-captured snapshot instead of replaying from
    genesis, and every probe's end state is captured for later probes;
    with a ``store``, snapshots persist across bisect invocations.
    """

    if num_views < 1:
        raise SnapshotError("bisect needs at least one view")
    snapshots: dict[int, Snapshot] = {}
    probes: list[BisectProbe] = []
    replayed = 0

    def probe(view: int) -> bool:
        # Advance to the end of ``view`` == the boundary before view+1.
        nonlocal replayed
        boundary = view + 1
        base = max((b for b in snapshots if b <= boundary), default=0)
        if base:
            protocol = fork(snapshots[base])
        else:
            protocol = make_protocol()
            protocol.start()
        protocol.advance(protocol.config.time.view_start(boundary) - 1)
        replayed += boundary - base
        if boundary <= protocol.config.num_views and boundary not in snapshots:
            snap = capture(protocol, scenario_key, boundary)
            snapshots[boundary] = snap
            if store is not None:
                store.put(snap)
        good = bool(predicate(protocol.finish()))
        probes.append(BisectProbe(view=view, good=good, forked_from=base))
        return good

    if store is not None:
        # Adopt any compatible persisted snapshots before probing.
        for meta in store.metas():
            if meta.scenario_key == scenario_key and 1 <= meta.view <= num_views:
                snap = store.get(meta.snapshot_id)
                if snap is not None:
                    snapshots[meta.view] = snap

    if probe(num_views):
        return BisectReport(None, tuple(probes), replayed)
    lo, hi = 0, num_views  # good at end of lo (genesis), bad at end of hi
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if probe(mid):
            lo = mid
        else:
            hi = mid
    return BisectReport(hi, tuple(probes), replayed)
