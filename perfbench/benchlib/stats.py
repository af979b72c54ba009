"""Percentiles, the tail sample-count rule, and span self-time arithmetic."""

import math

# A tail percentile is only reported when at least this many samples lie
# beyond it (p99 therefore needs >= 1000 samples).
MIN_SAMPLES_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of `values` (0 < pct <= 100).

    Missing results are passed as math.inf, so a rejected, failed or lost
    request counts as missing any latency limit."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0 < pct <= 100:
        raise ValueError("percentile must be in (0, 100]")
    ordered = sorted(values)
    rank = math.ceil(pct / 100.0 * len(ordered))
    return ordered[max(rank, 1) - 1]


def samples_beyond(count, pct):
    """How many of `count` samples lie beyond the pct-th percentile."""
    return count - math.ceil(pct / 100.0 * count)


def tail_supported(count, pct):
    """True when `count` samples support reporting the pct-th percentile."""
    return samples_beyond(count, pct) >= MIN_SAMPLES_BEYOND


def median(values):
    """Median (mean of the middle pair for an even count)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of an empty sample")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of `intervals` clipped to it."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Self time of every span: its duration minus the part of its interval
    that its children cover.

    `spans` maps span id -> (parent id, request id, name, start, end); a
    parent of -1 marks a root. Returns span id -> self time (same unit)."""
    children = {}
    for sid, (parent, _req, _name, start, end) in spans.items():
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, (_parent, _req, _name, start, end) in spans.items():
        out[sid] = (end - start) - covered(children.get(sid, []), start, end)
    return out
