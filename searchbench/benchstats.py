"""Arithmetic of the search-throughput benchmark: order statistics, span
self times and per-layer shares.  Kept apart from run.py so that
test_benchstats.py can check it without building anything."""

import statistics

# Percentiles considered for "the highest percentile with at least ten
# samples beyond it".
PERCENTILES = (50.0, 90.0, 99.0, 99.9)


def median(values):
    return statistics.median(values)


def quartiles(values):
    """(Q1, Q2, Q3) as statistics.quantiles(values, n=4) gives them."""
    q = statistics.quantiles(values, n=4)
    return q[0], q[1], q[2]


def spread(values):
    """Inter-quartile distance as a share of the median."""
    q1, _, q3 = quartiles(values)
    return (q3 - q1) / median(values)


def highest_percentile(n):
    """Highest p in PERCENTILES with at least ten of n samples above it,
    or None when even the median has fewer than ten beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(values, p):
    """Linear interpolation between closest ranks (numpy's default)."""
    v = sorted(values)
    if not v:
        raise ValueError("percentile of no values")
    pos = (len(v) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def _covered(intervals, lo, hi):
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Self time per span name.

    spans: iterable of (span_id, parent_id, name, start, end); parent_id is
    -1 for a root.  A span's self time is its duration minus the part of its
    interval that its children cover."""
    spans = list(spans)
    children = {}
    for sid, parent, _name, start, end in spans:
        children.setdefault(parent, []).append((start, end))
    out = {}
    for sid, _parent, name, start, end in spans:
        own = (end - start) - _covered(children.get(sid, ()), start, end)
        out[name] = out.get(name, 0.0) + own
    return out


def shares(self_s, wall_s, layers):
    """Per-layer self seconds and percent of wall, plus the 'other'
    remainder, so that the percentages sum to 100.

    Returns {layer: (seconds, percent)} with an extra 'other' entry.  Raises
    ValueError if the layers claim more time than the wall."""
    if wall_s <= 0.0:
        raise ValueError("wall time must be positive")
    out = {layer: (self_s.get(layer, 0.0), 100.0 * self_s.get(layer, 0.0) / wall_s)
           for layer in layers}
    other = wall_s - sum(s for s, _ in out.values())
    if other < -1e-9 * wall_s:
        raise ValueError("layer self times exceed the wall time")
    out["other"] = (other, 100.0 - sum(p for _, p in out.values()))
    return out
