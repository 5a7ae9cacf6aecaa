"""Order statistics used by the runner and by compare.py."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float:
    """Interquartile range over the median (0 with fewer than 2 values)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return float((q3 - q1) / abs(mid)) if mid else 0.0


def tail(samples):
    """Highest order statistic with at least ten samples beyond it.

    Returns ``(value, percentile, n)``.  With fewer than eleven samples
    no such statistic exists and the maximum stands in (``--quick``
    only), which the returned percentile of 100 makes plain.
    """
    ordered = sorted(samples)
    n = len(ordered)
    i = n - 11 if n >= 11 else n - 1
    return float(ordered[i]), 100.0 * (i + 1) / n, n
