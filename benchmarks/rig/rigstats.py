"""Sample statistics and regression-bound arithmetic for the rig.

Pure functions over lists of numbers — no repro imports, so the tests in
``test_rig.py`` can exercise them without a simulator.
"""

from __future__ import annotations

import math
import statistics


def quartiles(samples: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them.

    One sample has no spread: all three collapse onto it.
    """

    if len(samples) < 2:
        return (samples[0], samples[0], samples[0])
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return (q1, q2, q3)


def tail_percentile(samples: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """The highest whole percentile with at least ``beyond`` samples above it.

    Returns ``(percentile, value)`` or ``None`` when the sample is too
    small to support any tail claim (fewer than ``2 * beyond`` samples
    cannot even support the median by this rule, so nothing is reported).
    """

    count = len(samples)
    if count < 2 * beyond:
        return None
    ordered = sorted(samples)
    percentile = math.floor(100 * (count - beyond) / count)
    index = min(count - 1, math.ceil(percentile / 100 * count) - 1)
    return (percentile, ordered[index])


def summarize(samples: list[float]) -> dict:
    """Median, quartiles, count and supported tail of one timing sample."""

    q1, q2, q3 = quartiles(samples)
    summary = {"median": q2, "q1": q1, "q3": q3, "count": len(samples)}
    tail = tail_percentile(samples)
    if tail is not None:
        summary["tail_percentile"], summary["tail_value"] = tail
    return summary


def relative_gap(a: float, b: float) -> float:
    """Symmetric disagreement of two readings of one metric."""

    if a == b:
        return 0.0
    return abs(a - b) / max(abs(a), abs(b))


def within_bound(values: list[float], bound: float) -> bool:
    """Do repeated readings of one metric agree within its own bound?

    A bound of 0 means exact: every reading must be identical.
    """

    return relative_gap(min(values), max(values)) <= bound


def first_difference(expected: dict, got: dict) -> str | None:
    """Name the first field on which two flat dicts differ, or ``None``."""

    for key in sorted(set(expected) | set(got)):
        if expected.get(key) != got.get(key):
            return f"{key}: expected {expected.get(key)!r}, got {got.get(key)!r}"
    return None
