"""Percentiles and span arithmetic."""

from __future__ import annotations

import math


def percentile(values, q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least q% of the
    sample at or below it."""
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def span_stats(spans) -> dict:
    """Per-name totals over spans given as (name, start, end, parent) rows,
    where parent is the row index of the enclosing span or -1.

    ``s`` sums the durations of the outermost spans of each name, so a name
    nested in itself is not counted twice; ``self_s`` sums each span's
    duration minus the time its direct child spans cover; ``calls`` counts
    the spans.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict = {}
    for index, (name, start, end, parent) in enumerate(spans):
        entry = out.setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
        duration = end - start
        entry["calls"] += 1
        entry["self_s"] += duration - child_time[index]
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            entry["s"] += duration
    return out


def layer_self_time(stats: dict, prefix: str) -> float:
    """Self time summed over every span name of one layer."""
    return sum((entry["self_s"] for name, entry in stats.items() if name.startswith(prefix)), 0.0)


def layer_time(spans, prefix: str) -> float:
    """Time inside the outermost spans whose name starts with ``prefix``."""
    total = 0.0
    for name, start, end, parent in spans:
        if not name.startswith(prefix):
            continue
        ancestor = parent
        while ancestor >= 0 and not spans[ancestor][0].startswith(prefix):
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total += end - start
    return total
