"""Order statistics the benchmark reports.

A percentile is only reported when at least :data:`MIN_BEYOND` samples
lie beyond it; otherwise :func:`percentile` refuses, and
:func:`supported_percentile` says which percentile the sample can carry.
"""

from __future__ import annotations

import math
import statistics

#: Samples that must lie strictly beyond a reported percentile.
MIN_BEYOND = 10


class UnsupportedPercentile(ValueError):
    """Too few samples lie beyond the requested percentile."""


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` sorted samples lie above the nearest-rank ``q``."""
    rank = max(1, math.ceil(q * n))
    return n - rank


def percentile(samples, q: float) -> float:
    """Nearest-rank ``q``-quantile (``0 < q < 1``) of ``samples``.

    Raises :class:`UnsupportedPercentile` when fewer than
    :data:`MIN_BEYOND` samples lie beyond it.
    """
    if not 0.0 < q < 1.0:
        raise ValueError(f"q={q} must be in (0, 1)")
    ordered = sorted(samples)
    n = len(ordered)
    beyond = samples_beyond(n, q)
    if beyond < MIN_BEYOND:
        raise UnsupportedPercentile(
            f"p{q * 100:g} of {n} samples has {beyond} beyond it; "
            f"need at least {MIN_BEYOND}")
    return ordered[max(1, math.ceil(q * n)) - 1]


def supported_percentile(n: int) -> float | None:
    """The highest of p99.9/p99/p95/p90/p50 that ``n`` samples support."""
    for q in (0.999, 0.99, 0.95, 0.9, 0.5):
        if samples_beyond(n, q) >= MIN_BEYOND:
            return q
    return None


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Inter-quartile range as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else math.inf
