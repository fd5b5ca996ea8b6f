"""Percentile rule and summaries shared by every workload.

A timing is reported as its median and as the highest percentile of
:data:`LADDER` that still has at least :data:`MIN_BEYOND` samples beyond
it, so a tail figure is never read off a handful of samples: p99 needs
at least 1000 samples, p90 at least 100. Failed or refused operations
count as infinitely slow, so they can never meet a latency limit.
"""

import math
import statistics

#: candidate percentiles, highest first
LADDER = (99, 98, 95, 90, 80, 75, 50)
#: samples that must lie beyond a reported percentile
MIN_BEYOND = 10


def nearest_rank(sorted_values, p):
    """The nearest-rank ``p``-th percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("no samples")
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def supported_percentile(n, top=99):
    """Highest percentile ``<= top`` of :data:`LADDER` with enough samples
    beyond it among ``n``, or ``None`` when even the median lacks them."""
    for p in LADDER:
        if p <= top and n - math.ceil(p / 100.0 * n) >= MIN_BEYOND:
            return p
    return None


def tail(values, top=99):
    """``(percentile, value)`` of the supported tail (``(None, nan)`` if none)."""
    ordered = sorted(values)
    p = supported_percentile(len(ordered), top)
    if p is None:
        return None, math.nan
    return p, nearest_rank(ordered, p)


def latency_summary(latencies_ms, failed=0, top=99):
    """Median and supported tail of successful latencies plus ``failed``
    operations counted as infinitely slow."""
    values = list(latencies_ms) + [math.inf] * int(failed)
    p, value = tail(values, top)
    return {
        "n": len(values),
        "p50": statistics.median(values) if values else math.nan,
        "tail_p": p,
        "tail": value,
    }


def meets_slo(latencies_ms, failed, limit_ms, top=99):
    """Whether the supported tail is within ``limit_ms`` and nothing failed.

    A refused or failed operation misses the limit by definition.
    """
    if failed:
        return False
    _, value = tail(latencies_ms, top)
    return not math.isnan(value) and value <= limit_ms


def median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


def spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf
