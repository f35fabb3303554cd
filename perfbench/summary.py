"""The benchmark's own arithmetic: percentiles, shares, self time, ratios.

Pure Python on purpose, so the numbers the benchmark prints can be
tested without a recommender system in sight.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: Tail percentiles the benchmark may report, lowest first.
TAIL_LADDER = (90.0, 99.0, 99.9)
#: A percentile is reported only when this many samples lie beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], p: float) -> float:
    """The ``p``-th percentile with linear interpolation between ranks.

    Matches ``numpy.percentile(values, p)`` (its default ``linear``
    method).  Raises ``ValueError`` on an empty sample.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= p <= 100.0:
        raise ValueError(f"percentile {p} outside [0, 100]")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * p / 100.0
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def tail_percentile(n: int) -> Optional[float]:
    """Highest ladder percentile with at least ``MIN_BEYOND`` samples beyond.

    ``n * (1 - p/100)`` samples lie beyond the ``p``-th percentile, so
    p90 needs 100 samples and p99 needs 1000.  ``None`` when even the
    lowest rung has too few.
    """
    chosen = None
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= MIN_BEYOND - 1e-9:
            chosen = p
    return chosen


def distribution(values: Sequence[float]) -> Dict[str, object]:
    """Median, the tail percentile ``n`` supports, and ``n`` itself."""
    n = len(values)
    if n == 0:
        return {"n": 0, "p50": None, "tail_p": None, "tail": None}
    tail_p = tail_percentile(n)
    return {"n": n, "p50": percentile(values, 50.0), "tail_p": tail_p,
            "tail": None if tail_p is None else percentile(values, tail_p)}


def samples_for(p: float) -> int:
    """Fewest samples for which ``p`` has ``MIN_BEYOND`` samples beyond."""
    if p <= 50.0:
        return 1
    return math.ceil(MIN_BEYOND * 100.0 / (100.0 - p) - 1e-9)


def share(part: float, whole: float) -> float:
    """``part / whole``; 0.0 when nothing was measured."""
    return part / whole if whole > 0.0 else 0.0


def union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    covered = 0.0
    cursor = -math.inf
    for start, end in sorted(intervals):
        if end <= cursor:
            continue
        covered += end - max(start, cursor)
        cursor = end
    return covered


def self_times(spans: Sequence[dict]) -> Dict[str, float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``start`` and ``end``.
    Children are clipped to their parent's interval, so the self times
    of a tree sum to its root's duration.
    """
    children: Dict[str, List[Tuple[float, float]]] = {}
    by_id = {span["id"]: span for span in spans}
    for span in spans:
        parent = by_id.get(span["parent"])
        if parent is None:
            continue
        start = max(span["start"], parent["start"])
        end = min(span["end"], parent["end"])
        if start < end:
            children.setdefault(parent["id"], []).append((start, end))
    return {span["id"]: (span["end"] - span["start"]
                         - union_length(children.get(span["id"], ())))
            for span in spans}


def overhead(traced_s: float, untraced_s: float) -> float:
    """Extra wall time tracing costs, as a share of the untraced time."""
    if untraced_s <= 0.0:
        raise ValueError("untraced time must be positive")
    return traced_s / untraced_s - 1.0


def speedup(base_s: float, new_s: float, base: str) -> Dict[str, object]:
    """``base_s / new_s`` with the base named, as every ratio must be."""
    if new_s <= 0.0:
        raise ValueError("compared time must be positive")
    return {"value": base_s / new_s, "base": base}
