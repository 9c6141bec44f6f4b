"""Deterministic, seeded fault injection — the sim-layer fault model.

A fault configuration is a declarative :class:`FaultSpec` — crash/recover
windows, message drop/duplication/delay-spike rates, partitions with
scheduled heals — compiled against run dimensions ``(n, Δ, horizon)``
into an immutable :class:`FaultPlan`.  Like every other artefact in this
repo the plan is hash-addressable (``spec_id`` / ``plan_id`` are SHA-256
prefixes of canonical keys) and a pure function of ``(spec, seed, dims)``,
so it is prebuild-cacheable and byte-identical across processes.

Two properties carry the determinism guarantee:

* **Compile-time randomness only.**  Victim selection and window
  placement consume a ``random.Random`` seeded from the spec's canonical
  key.  Nothing at simulation time touches an RNG.
* **Stateless per-message decisions.**  Whether one point-to-point
  delivery is dropped, duplicated or spiked is a keyed ``blake2b`` hash
  of ``(kind, sender, recipient, payload digest, send time)`` mapped to
  ``[0, 1)``.  Decisions are therefore *order-independent*, so the
  network asks for them a fan-out at a time: :meth:`FaultPlan.decide`
  answers one send with ``(kept, dup, spiked)`` recipient masks.  The
  per-link ``cut`` / ``copies`` / ``spike`` are the float definition it
  is tested against (``int(digest) / 2**64 < rate``); ``decide`` compares
  the raw 8-byte digest with a per-kind byte limit (:func:`_draw_limit`)
  that gives the same answer for every digest, so a draw costs little
  more than its ``blake2b`` finalisation.  Both draw from hashers primed
  once per ``(kind, sender)`` with the key block and the preimage's
  prefix — the stream is the one a fresh keyed hasher per draw gives.

Partition semantics are **regional outages**: the isolated minority is
also crashed (asleep) for the window, because a symmetric partition with
an *awake* minority genuinely violates the sleepy model — the minority's
perceived sender set shrinks to itself, its relative quorum passes, and
safety is forfeit (that is a model violation, not a simulator bug).
Crashing the isolated group keeps the compiled plan expressible as an
effective :class:`~repro.sleepy.schedule.AwakeSchedule`
(:func:`crashed_schedule`), which the scenario families compliance-check
before running.

The harness layer reuses the same machinery: :class:`ChaosPlan` decides
per sweep cell whether the executing worker is SIGKILLed on the cell's
first attempt, and :func:`retry_backoff` derives deterministic
exponential-backoff-with-jitter delays from the cell hash.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, fields, replace
from typing import TYPE_CHECKING, Iterable

from repro.sleepy.schedule import AwakeSchedule, Interval

if TYPE_CHECKING:  # pragma: no cover - annotation only
    from repro.net.messages import Envelope

FAULT_SPEC_VERSION = 1

_U64 = float(1 << 64)


def _unit_hash(key: bytes, data: str) -> float:
    """A uniform ``[0, 1)`` float from a keyed blake2b of ``data``."""

    digest = hashlib.blake2b(data.encode(), key=key, digest_size=8).digest()
    return int.from_bytes(digest, "big") / _U64


@dataclass(frozen=True)
class CrashWindow:
    """Validator ``validator`` is crashed (asleep) during ``[start, end)``."""

    validator: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.end <= self.start:
            raise ValueError("crash window needs 0 <= start < end")


@dataclass(frozen=True)
class PartitionWindow:
    """``isolated`` is cut from the rest of the network during ``[start, heal)``.

    Cross-group messages are *dropped* at send time (not buffered): a
    partition models lost traffic, unlike sleep which models deferred
    traffic.  The compiled plan also crashes the isolated group for the
    window (see module docstring), so healed validators catch up from
    ongoing LOG traffic, which carries full chains.
    """

    start: int
    heal: int
    isolated: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.start < 0 or self.heal <= self.start:
            raise ValueError("partition window needs 0 <= start < heal")
        if not self.isolated:
            raise ValueError("partition needs a non-empty isolated group")


@dataclass(frozen=True)
class FaultSpec:
    """A declarative, seeded fault configuration (the config fragment).

    All window lengths and offsets are in Δ units so one spec scales
    across the ``delta`` grid axis; ``*_view`` anchors are in 4Δ views.
    Rates are per point-to-point delivery probabilities in ``[0, 1]``.
    """

    seed: int = 0
    crash_count: int = 0
    crash_view: int = 1
    crash_deltas: int = 8
    crash_stagger_deltas: int = 1
    drop_rate: float = 0.0
    duplicate_rate: float = 0.0
    delay_spike_rate: float = 0.0
    delay_spike_deltas: int = 2
    partitions: int = 0
    partition_fraction: float = 0.25
    partition_view: int = 1
    partition_deltas: int = 8
    partition_gap_deltas: int = 8

    def __post_init__(self) -> None:
        for name in ("drop_rate", "duplicate_rate", "delay_spike_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.crash_count < 0 or self.partitions < 0:
            raise ValueError("crash_count and partitions must be >= 0")
        if self.crash_count and self.crash_deltas < 1:
            raise ValueError("crash_deltas must be >= 1")
        if self.partitions and not 0.0 < self.partition_fraction < 0.5:
            raise ValueError("partition_fraction must lie in (0, 0.5)")
        if self.partitions and self.partition_deltas < 1:
            raise ValueError("partition_deltas must be >= 1")

    # -- identity -----------------------------------------------------------

    @property
    def canonical_key(self) -> str:
        """The unambiguous textual identity every derived value hashes."""

        return (
            f"faults|v{FAULT_SPEC_VERSION}|seed={self.seed}"
            f"|crash={self.crash_count},{self.crash_view},{self.crash_deltas},"
            f"{self.crash_stagger_deltas}"
            f"|drop={self.drop_rate!r}|dup={self.duplicate_rate!r}"
            f"|spike={self.delay_spike_rate!r},{self.delay_spike_deltas}"
            f"|part={self.partitions},{self.partition_fraction!r},"
            f"{self.partition_view},{self.partition_deltas},"
            f"{self.partition_gap_deltas}"
        )

    @property
    def spec_id(self) -> str:
        """Stable 16-hex-digit id (prefix of the key's SHA-256)."""

        return hashlib.sha256(self.canonical_key.encode()).hexdigest()[:16]

    @property
    def any_faults(self) -> bool:
        return bool(
            self.crash_count
            or self.partitions
            or self.drop_rate
            or self.duplicate_rate
            or self.delay_spike_rate
        )

    # -- (de)serialisation --------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-able form (the ``--faults`` CLI format)."""

        return {f.name: getattr(self, f.name) for f in fields(self)}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""

        known = {f.name for f in fields(cls)}
        extra = set(data) - known
        if extra:
            raise ValueError(f"unknown fault-spec keys: {sorted(extra)}")
        return cls(**data)

    def with_seed(self, seed: int) -> "FaultSpec":
        """The same fault shape under a different seed."""

        return replace(self, seed=seed)

    # -- compilation --------------------------------------------------------

    def compile(
        self,
        n: int,
        delta: int,
        horizon: int,
        view_ticks: int | None = None,
        protected: frozenset[int] = frozenset(),
    ) -> "FaultPlan":
        """Compile this spec against run dimensions into a :class:`FaultPlan`.

        ``protected`` ids (Byzantine validators, which the sleepy model
        keeps always awake) are never crashed or isolated.  All
        randomness is consumed here, from an RNG seeded by the spec's
        canonical key — the returned plan makes no random choices at
        simulation time.
        """

        if view_ticks is None:
            view_ticks = 4 * delta
        rng = random.Random(
            int.from_bytes(
                hashlib.sha256((self.canonical_key + "|compile").encode()).digest()[:8],
                "big",
            )
        )
        eligible = [vid for vid in range(n) if vid not in protected]
        windows: list[CrashWindow] = []
        count = min(self.crash_count, len(eligible), (n - 1) // 2)
        if count:
            victims = sorted(rng.sample(eligible, count))
            for i, vid in enumerate(victims):
                start = self.crash_view * view_ticks + i * self.crash_stagger_deltas * delta
                if start >= horizon:
                    continue
                windows.append(
                    CrashWindow(vid, start, start + self.crash_deltas * delta)
                )
        cuts: list[PartitionWindow] = []
        if self.partitions and eligible:
            size = max(1, min(int(n * self.partition_fraction), (n - 1) // 2, len(eligible)))
            period = (self.partition_deltas + self.partition_gap_deltas) * delta
            for k in range(self.partitions):
                start = self.partition_view * view_ticks + k * period
                if start >= horizon:
                    break
                heal = start + self.partition_deltas * delta
                isolated = tuple(sorted(rng.sample(eligible, size)))
                cuts.append(PartitionWindow(start, heal, isolated))
                # Regional-outage semantics: the isolated minority is
                # crashed for the window (see module docstring).
                windows.extend(CrashWindow(vid, start, heal) for vid in isolated)
        return FaultPlan(
            spec=self,
            n=n,
            delta=delta,
            horizon=horizon,
            crash_windows=_merge_crash_windows(windows),
            partition_windows=tuple(cuts),
        )


def _merge_crash_windows(windows: list[CrashWindow]) -> tuple[CrashWindow, ...]:
    """Coalesce overlapping/adjacent windows per validator.

    The controller treats each window as one crash/recover event pair;
    overlapping windows for one validator would otherwise recover it at
    the *first* window's end while the second still holds it down.
    """

    by_vid: dict[int, list[CrashWindow]] = {}
    for window in windows:
        by_vid.setdefault(window.validator, []).append(window)
    merged: list[CrashWindow] = []
    for vid, vid_windows in by_vid.items():
        vid_windows.sort(key=lambda w: w.start)
        start, end = vid_windows[0].start, vid_windows[0].end
        for window in vid_windows[1:]:
            if window.start <= end:
                end = max(end, window.end)
            else:
                merged.append(CrashWindow(vid, start, end))
                start, end = window.start, window.end
        merged.append(CrashWindow(vid, start, end))
    return tuple(sorted(merged, key=lambda w: (w.start, w.validator)))


_KINDS = ("drop", "dup", "spike")
_DROP, _DUP, _SPIKE = range(3)


def _draw_limit(rate: float) -> bytes | None:
    """The byte limit of a draw at ``rate``: for every 8-byte big-endian
    ``digest``, ``digest < limit`` iff ``int(digest) / 2**64 < rate``.

    The float test is monotone in the integer, so its hits are a prefix
    ``[0, L)`` of the 64-bit range; ``L`` is the smallest ``x`` with
    ``x / 2**64 >= rate`` under float rounding, found exactly by
    bisection.  ``None`` at rate zero (no draw is made).  Every rate a
    :class:`FaultSpec` admits has ``L < 2**64``: at rate 1 the quotient
    rounds up to 1.0 from ``x = 2**64 - 1024`` on.
    """

    if not rate:
        return None
    lo, hi = 0, 1 << 64
    while lo < hi:
        mid = (lo + hi) // 2
        if mid / _U64 >= rate:
            hi = mid
        else:
            lo = mid + 1
    return lo.to_bytes(8, "big")


class FaultPlan:
    """A compiled, immutable fault schedule plus stateless message faults.

    Built by :meth:`FaultSpec.compile`; consumed by the network (message
    faults), the sleep controller (crash/recover/partition-marker CONTROL
    events) and the scenario compliance gate (:func:`crashed_schedule`).
    """

    __slots__ = (
        "spec", "n", "delta", "horizon", "crash_windows", "partition_windows",
        "_key", "_rates", "_limits", "spike_ticks", "_cuts", "_primed", "_orders",
        "_drawn", "_drawn_at",
    )

    def __init__(
        self,
        spec: FaultSpec,
        n: int,
        delta: int,
        horizon: int,
        crash_windows: tuple[CrashWindow, ...],
        partition_windows: tuple[PartitionWindow, ...],
    ) -> None:
        self.spec = spec
        self.n = n
        self.delta = delta
        self.horizon = horizon
        self.crash_windows = crash_windows
        self.partition_windows = partition_windows
        self._key = hashlib.sha256(
            (spec.canonical_key + "|msg").encode()
        ).digest()[:32]
        #: Extra delivery ticks of a spiked send.
        self.spike_ticks = spike_ticks = spec.delay_spike_deltas * delta
        # By kind; a spike of zero ticks is no fault, so it is never drawn.
        spike_rate = spec.delay_spike_rate if spike_ticks else 0.0
        self._rates = (spec.drop_rate, spec.duplicate_rate, spike_rate)
        self._limits = tuple(map(_draw_limit, self._rates))
        # One isolated-set mask per partition window, bit ``vid`` per member.
        self._cuts = tuple(
            (w.start, w.heal, sum(1 << vid for vid in w.isolated))
            for w in partition_windows
        )
        # Derived lazily, never pickled (``hashlib`` objects cannot be): the
        # primed hashers per sender, what :meth:`decide` walks per recipient
        # order, and the current tick's draws.  None changes what the plan
        # decides.
        self._primed: dict[int, tuple] = {}
        self._orders: dict[tuple[int, ...], tuple] = {}
        # The draws of the current tick's fan-outs, by ``(origin, digest|time,
        # ids)``: ``(recipients drawn, dropped, dup, spiked)`` masks.  Two
        # envelopes with one payload (equal LOG messages of two signers)
        # forwarded by one validator in one tick repeat every draw.
        self._drawn: dict[tuple, tuple[int, int, int, int]] = {}
        self._drawn_at: int | None = None

    def __reduce__(self):
        return FaultPlan, (self.spec, self.n, self.delta, self.horizon,
                           self.crash_windows, self.partition_windows)

    @property
    def plan_id(self) -> str:
        """Stable id of the compiled plan (spec id + run dimensions)."""

        key = f"{self.spec.canonical_key}|n={self.n}|delta={self.delta}|horizon={self.horizon}"
        return hashlib.sha256(key.encode()).hexdigest()[:16]

    @property
    def has_message_faults(self) -> bool:
        """Whether the network must ask :meth:`decide` about its fan-outs.

        False keeps the shared-fanout fast path fully enabled — the whole
        per-message layer then costs one attribute check per broadcast.
        """

        return bool(any(self._rates) or self.partition_windows)

    # -- process-level chaos (node runtime reuse) ----------------------------

    def kill_schedule(self) -> dict[int, tuple[int, int]]:
        """``validator -> (kill_tick, wake_tick)`` for process-level chaos.

        One entry per crashed validator: its earliest window.  A victim can
        have several (compile merges only overlapping or adjacent windows,
        and a partition spec crashes its isolated group once per window),
        but only the earliest is a process kill: the node SIGKILLs itself
        at the end of ``kill_tick``, and the respawned process replays from
        genesis, transmitting nothing below ``wake_tick``, with every window
        run as a sleep by its world's controller — as in the simulator
        oracle.  The deploy harness uses it to know which processes will
        self-kill.
        """

        schedule: dict[int, tuple[int, int]] = {}
        for window in self.crash_windows:
            known = schedule.get(window.validator)
            if known is None or window.start < known[0]:
                schedule[window.validator] = (window.start, window.end)
        return schedule

    # -- stateless per-message decisions ------------------------------------

    def _prime(self, sender: int) -> tuple:
        """``sender``'s hasher per kind (None at rate zero), holding the key
        block and the ``"{kind}|{sender}|"`` prefix of the draw's preimage."""

        primed = self._primed[sender] = tuple(
            hashlib.blake2b(f"{kind}|{sender}|".encode(), key=self._key, digest_size=8)
            if rate else None
            for kind, rate in zip(_KINDS, self._rates)
        )
        return primed

    def _hit(self, kind: int, sender: int, recipient: int, envelope: "Envelope", time: int) -> bool:
        """One draw: keyed blake2b of ``kind|sender|recipient|digest|time``
        mapped to ``[0, 1)`` and compared with the kind's rate."""

        rate = self._rates[kind]
        if not rate:
            return False
        hasher = (self._primed.get(sender) or self._prime(sender))[kind].copy()
        hasher.update(f"{recipient}|{envelope.payload.digest()}|{time}".encode())
        return int.from_bytes(hasher.digest(), "big") / _U64 < rate

    def cut(self, sender: int, recipient: int, time: int) -> bool:
        """Is the ``sender -> recipient`` link severed by a partition at ``time``?"""

        for start, heal, isolated in self._cuts:
            if start <= time < heal and (isolated >> sender ^ isolated >> recipient) & 1:
                return True
        return False

    def copies(self, sender: int, recipient: int, envelope: "Envelope", time: int) -> int:
        """How many copies of this delivery to schedule: 0 (drop), 1 or 2."""

        if self.cut(sender, recipient, time):
            return 0
        if self._hit(_DROP, sender, recipient, envelope, time):
            return 0
        return 2 if self._hit(_DUP, sender, recipient, envelope, time) else 1

    def spike(self, sender: int, recipient: int, envelope: "Envelope", time: int) -> int:
        """Extra delivery ticks for this send (0 = no spike).

        Spikes deliberately may push a delivery *past* the Δ bound —
        fault injection probes behaviour outside the synchrony the model
        promises.
        """

        return self.spike_ticks if self._hit(_SPIKE, sender, recipient, envelope, time) else 0

    def _order(self, ids: tuple[int, ...]) -> tuple:
        """What :meth:`decide` walks for one recipient order: per recipient
        its bit and preimage field, per partition window its bit-order mask."""

        order = self._orders[ids] = (
            [(1 << index, f"{vid}|".encode()) for index, vid in enumerate(ids)],
            [
                (start, heal, isolated,
                 sum(1 << index for index, vid in enumerate(ids) if isolated >> vid & 1))
                for start, heal, isolated in self._cuts
            ],
        )
        return order

    def decide(
        self, origin: int, ids: tuple[int, ...], plan: int, envelope: "Envelope", time: int
    ) -> tuple[int, int, int]:
        """The fault decisions of one fan-out, as ``(kept, dup, spiked)`` masks.

        ``ids`` lists the network's validator ids in bit order and ``plan``
        has a bit set per addressed recipient.  ``kept`` is ``plan`` minus
        cut and dropped recipients, ``dup`` the kept ones that get a second
        copy, ``spiked`` the kept ones delivered :attr:`spike_ticks` late —
        bit for bit what :meth:`copies` and, for kept recipients,
        :meth:`spike` answer per link.  Each draw compares the raw digest
        with the kind's byte limit instead of mapping it to a float, and a
        draw asked for again within one tick (same origin, payload digest
        and recipient) is read from the tick's memo, not made twice.
        """

        pairs, cuts = self._orders.get(ids) or self._order(ids)
        kept = plan
        for start, heal, isolated, mask in cuts:
            if start <= time < heal:
                kept &= mask if isolated >> origin & 1 else ~mask
        drop_limit, dup_limit, spike_limit = self._limits
        if drop_limit is dup_limit is spike_limit is None:
            return kept, 0, 0
        drop_hash, dup_hash, spike_hash = self._primed.get(origin) or self._prime(origin)
        rest = f"{envelope.payload.digest()}|{time}".encode()
        if time != self._drawn_at:
            self._drawn.clear()
            self._drawn_at = time
        key = (origin, rest, ids)
        known, dropped, dup, spiked = self._drawn.get(key) or (0, 0, 0, 0)
        todo = kept & ~known
        for bit, field in pairs:
            if not todo & bit:
                continue
            data = field + rest
            if drop_hash is not None:
                hasher = drop_hash.copy()
                hasher.update(data)
                if hasher.digest() < drop_limit:
                    dropped |= bit
                    continue
            if dup_hash is not None:
                hasher = dup_hash.copy()
                hasher.update(data)
                if hasher.digest() < dup_limit:
                    dup |= bit
            if spike_hash is not None:
                hasher = spike_hash.copy()
                hasher.update(data)
                if hasher.digest() < spike_limit:
                    spiked |= bit
        self._drawn[key] = (known | todo, dropped, dup, spiked)
        kept &= ~dropped
        return kept, dup & kept, spiked & kept

    def describe(self) -> dict:
        """JSON-able summary (CLI reporting)."""

        return {
            "plan_id": self.plan_id,
            "spec": self.spec.to_dict(),
            "crash_windows": len(self.crash_windows),
            "partition_windows": len(self.partition_windows),
            "message_faults": self.has_message_faults,
        }


def crashed_schedule(
    schedule: AwakeSchedule, windows: Iterable[CrashWindow]
) -> AwakeSchedule:
    """The *effective* awake schedule after subtracting crash windows.

    Crash faults compose with the participation schedule exactly like
    extra naps, so the sleepy-model compliance checker can vet a fault
    plan the same way it vets every scenario: build the effective
    schedule and check Condition (1) against it.
    """

    cuts: dict[int, list[CrashWindow]] = {}
    for window in windows:
        cuts.setdefault(window.validator, []).append(window)
    intervals: dict[int, list[Interval]] = {}
    for vid in range(schedule.n):
        ivs = list(schedule.intervals_for(vid))
        for cut in sorted(cuts.get(vid, []), key=lambda w: w.start):
            trimmed: list[Interval] = []
            for iv in ivs:
                if (iv.end is not None and iv.end <= cut.start) or iv.start >= cut.end:
                    trimmed.append(iv)
                    continue
                if iv.start < cut.start:
                    trimmed.append(Interval(iv.start, cut.start))
                if iv.end is None or iv.end > cut.end:
                    trimmed.append(Interval(cut.end, iv.end))
            ivs = trimmed
        intervals[vid] = ivs
    return AwakeSchedule(schedule.n, intervals)


# ---------------------------------------------------------------------------
# Harness-layer chaos
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChaosPlan:
    """Deterministic worker-kill plan for the self-healing sweep harness.

    ``kill_rate`` selects cells by keyed hash of their ``cell_id``;
    ``kill_cells`` force-selects specific cells (tests aim kills at a
    chosen chunk position with it).  A selected cell SIGKILLs its worker
    immediately before executing — *on the first attempt only*, so a
    retrying executor always converges: retried cells are pure functions
    of their coordinates and the final record set is byte-identical to a
    fault-free run.
    """

    kill_rate: float = 0.0
    seed: int = 0
    kill_cells: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if not 0.0 <= self.kill_rate <= 1.0:
            raise ValueError("kill_rate must lie in [0, 1]")

    def kills(self, cell_id: str, attempt: int) -> bool:
        """Should the worker executing ``cell_id`` be killed on this attempt?"""

        if attempt != 0:
            return False
        if cell_id in self.kill_cells:
            return True
        if not self.kill_rate:
            return False
        key = hashlib.sha256(f"chaos|{self.seed}".encode()).digest()[:32]
        return _unit_hash(key, cell_id) < self.kill_rate


def retry_backoff(cell_id: str, attempt: int, base: float) -> float:
    """Deterministic exponential backoff with jitter from the cell hash.

    ``attempt`` counts failures so far (>= 1).  The jitter factor in
    ``[1, 2)`` is a pure function of ``(cell_id, attempt)``, so a
    re-executed sweep waits exactly as long as the first one did —
    retries are part of the deterministic record, not wall-clock noise.
    """

    if attempt < 1:
        raise ValueError("attempt must be >= 1")
    jitter = _unit_hash(b"sweep-retry-backoff", f"{cell_id}|{attempt}")
    return base * (2 ** (attempt - 1)) * (1.0 + jitter)
