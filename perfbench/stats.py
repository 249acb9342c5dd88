"""Metric arithmetic of the perfbench benchmark.

Kept apart from run.py so that test_stats.py can pin each rule:

* percentiles interpolate between the closest ranks, and a tail is reported
  at the highest level that still has at least ten samples beyond it;
* a queue's mean wait follows from its mean depth and completion rate by
  Little's law;
* a span's self time is its duration minus the part of it that its child
  spans cover.
"""

import math

TAIL_LEVELS = (99.0, 90.0, 50.0)
MIN_BEYOND = 10


def percentile(values, level):
    """Percentile by linear interpolation between the two closest ranks
    (position (n - 1) * level / 100 in the sorted samples); p50 is the
    usual median."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    position = (len(ordered) - 1) * level / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def samples_beyond(count, level):
    """Samples above the `level` percentile: those past the nearest-rank
    position ceil(level / 100 * count)."""
    return count - max(1, math.ceil(level / 100.0 * count))


def tail_level(count, cap=TAIL_LEVELS[0]):
    """Highest level in TAIL_LEVELS, at most `cap`, with at least
    MIN_BEYOND samples beyond it; None when even the median has fewer."""
    for level in TAIL_LEVELS:
        if level <= cap and samples_beyond(count, level) >= MIN_BEYOND:
            return level
    return None


def littles_law_wait_ms(mean_queue_depth, completions, elapsed_s):
    """Mean time a query spends queued: L = lambda * W, so W = L / lambda."""
    if completions <= 0 or elapsed_s <= 0:
        return 0.0
    return mean_queue_depth / (completions / elapsed_s) * 1000.0


def _covered(intervals, lo, hi):
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total = 0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def self_times(spans):
    """Total self time per span name.

    `spans` is a list of (query, name, parent, start, end) with `parent` the
    index of the enclosing span or -1. Returns {name: total self time}, in
    the unit of start/end.
    """
    children = [[] for _ in spans]
    for span in spans:
        parent = span[2]
        if parent >= 0:
            children[parent].append((span[3], span[4]))
    totals = {}
    for index, (_, name, _, start, end) in enumerate(spans):
        own = (end - start) - _covered(children[index], start, end)
        totals[name] = totals.get(name, 0) + own
    return totals
