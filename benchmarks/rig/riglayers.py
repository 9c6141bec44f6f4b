"""Layer attribution: which ``src/repro/<layer>`` owns a piece of time or memory.

Layers are the package map.  Three attributions share it:

* :func:`bucket_profile` — ``cProfile`` self time per layer, with time
  spent in code no layer owns (C builtins such as ``hashlib``/``json``/
  ``pickle``/``deque``, and pure-Python stdlib) charged to the layer that
  called it, through the profiler's per-caller table;
* :func:`bucket_snapshot` — ``tracemalloc`` live bytes per layer, by the
  file of each allocating frame;
* :class:`SpanRecorder` — the driver spans the rig records around its
  own calls into each layer.
"""

from __future__ import annotations

import os
import time
from contextlib import contextmanager

LAYERS = (
    "crypto", "chain", "core", "sleepy", "sim", "net", "faults", "adversary",
    "baselines", "harness", "node", "analysis", "tracebus", "runctx", "snapshot",
)

#: Time no layer can be charged for: the rig's own frames and profiler roots.
OTHER = "other"

_MARKER = os.sep + os.path.join("src", "repro") + os.sep


def layer_of(filename: str) -> str | None:
    """The layer owning ``filename``, or ``None`` for foreign code.

    ``src/repro/net/network.py`` → ``net``; ``src/repro/faults.py`` →
    ``faults``; ``trace.py`` rides with ``tracebus`` (one event/recorder
    layer); ``fleet``/``cli`` and everything outside ``src/repro`` are
    foreign.
    """

    index = filename.rfind(_MARKER)
    if index < 0:
        return None
    head = filename[index + len(_MARKER):].split(os.sep, 1)[0]
    if head.endswith(".py"):
        head = head[:-3]
    if head == "trace":
        return "tracebus"
    return head if head in LAYERS else None


def bucket_profile(stats: dict) -> dict[str, dict[str, float]]:
    """Bucket a ``cProfile`` table by layer.

    ``stats`` is ``pstats.Stats(profile).stats``: ``{(file, line, name):
    (cc, nc, tt, ct, callers)}`` with ``callers = {func: (cc, nc, tt,
    ct)}``.  Returns ``{layer: {"self_s": …, "calls": …}}`` over
    :data:`LAYERS` plus :data:`OTHER`.

    A function in a layer's file contributes its own ``tt`` and ``nc``.
    A foreign function's ``tt`` is split over its callers in proportion
    to the per-caller ``tt``; a foreign caller passes its share further
    up by its own split (gprof's approximation), so ``json.dumps`` called
    from ``harness`` lands on ``harness`` even though the C encoder sits
    two stdlib frames down.  Cycles among foreign functions and foreign
    roots fall into :data:`OTHER`, so the buckets always sum to the
    table's total self time.
    """

    buckets = {name: {"self_s": 0.0, "calls": 0} for name in LAYERS + (OTHER,)}
    shares: dict[tuple, dict[str, float]] = {}
    resolving: set[tuple] = set()

    def share_of(func: tuple) -> dict[str, float]:
        """Distribution over buckets that foreign ``func``'s time goes to."""

        known = shares.get(func)
        if known is not None:
            return known
        callers = stats[func][4] if func in stats else {}
        by_time = sum(entry[2] for entry in callers.values()) > 0
        # Zero per-caller time (sub-resolution calls): split by call count.
        weights = {c: (e[2] if by_time else e[1]) for c, e in callers.items()}
        total = sum(weights.values())
        if total <= 0:
            shares[func] = {OTHER: 1.0}
            return shares[func]
        resolving.add(func)
        result: dict[str, float] = {}
        for caller, weight in weights.items():
            if weight == 0:
                continue
            layer = layer_of(caller[0])
            if layer is not None:
                parts = {layer: 1.0}
            elif caller in resolving:  # a cycle among foreign functions
                parts = {OTHER: 1.0}
            else:
                parts = share_of(caller)
            for name, part in parts.items():
                result[name] = result.get(name, 0.0) + part * weight / total
        resolving.discard(func)
        shares[func] = result
        return result

    for func, (_cc, nc, tt, _ct, _callers) in stats.items():
        layer = layer_of(func[0])
        if layer is not None:
            buckets[layer]["self_s"] += tt
            buckets[layer]["calls"] += nc
            continue
        for name, part in share_of(func).items():
            buckets[name]["self_s"] += tt * part
    return buckets


def bucket_snapshot(snapshot) -> dict[str, int]:
    """Live bytes per layer from a ``tracemalloc`` snapshot.

    Each allocation goes to the layer owning the file of its allocating
    frame.  One frame is enough: C code has no Python frame, so a
    ``bytes`` object that ``hashlib`` built for ``chain/log.py`` is
    already recorded against ``chain/log.py`` (deeper stacks moved under
    0.3% of the heap on ``sim-long-n8`` and cost twice the run time).
    """

    totals = {name: 0 for name in LAYERS + (OTHER,)}
    for stat in snapshot.statistics("filename"):
        layer = layer_of(stat.traceback[0].filename)
        totals[layer if layer is not None else OTHER] += stat.size
    return totals


class SpanRecorder:
    """In-memory spans around the rig's own calls into each layer.

    One span is ``{name, start, end, parent, iteration}``; ``parent`` is
    the index of the enclosing span (``None`` at the top), ``iteration``
    the id every span of one iteration shares.  Spans live in memory and
    are written out by the caller when the workload ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.iteration = 0

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        record = {
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "parent": self._stack[-1] if self._stack else None,
            "iteration": self.iteration,
        }
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def durations_ms(self, name: str) -> list[float]:
        return [
            (span["end"] - span["start"]) * 1e3
            for span in self.spans
            if span["name"] == name and span["end"] is not None
        ]


class NoSpans:
    """The tracing-off stand-in: same ``span()`` call, records nothing."""

    @contextmanager
    def span(self, name: str):
        yield None
