"""Percentiles over job wall times and self times over a span tree."""

from __future__ import annotations

import math
from collections import defaultdict


def percentile(times, q: float) -> float:
    """Nearest-rank q-quantile; a failed job is passed as math.inf, so it
    counts as slower than every job that finished."""
    ordered = sorted(times)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def beyond(times, q: float) -> int:
    """How many samples lie above the nearest-rank q-quantile's position."""
    return len(times) - max(1, math.ceil(q * len(times)))


def self_times(spans) -> dict:
    """Total self time per span name.

    `spans` is a list of (name, start, end, parent) with `parent` the index
    of the enclosing span or -1.  A span's self time is its duration minus
    the part of its interval that its children cover.
    """
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals = defaultdict(float)
    for i, (name, start, end, _) in enumerate(spans):
        covered, reach = 0.0, start
        for child_start, child_end in sorted(children[i]):
            lo, hi = max(child_start, reach), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        totals[name] += (end - start) - covered
    return dict(totals)
