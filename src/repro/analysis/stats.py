"""Summary statistics for experiment series.

The paper reports means with standard deviations in parentheses
(Figures 2-3); :func:`summarize` produces exactly that, plus the
percentiles the benchmark harness prints.
Implemented directly (no numpy dependency in the hot path) so the pure
protocol tests stay dependency-light.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence


@dataclass(frozen=True)
class Summary:
    """Descriptive statistics of one latency/throughput series."""

    n: int
    mean: float
    stdev: float
    minimum: float
    maximum: float
    p50: float
    p95: float


def percentile(sorted_values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile of pre-sorted data, q in [0, 1]."""
    if not sorted_values:
        raise ValueError("empty series")
    if len(sorted_values) == 1:
        return sorted_values[0]
    pos = q * (len(sorted_values) - 1)
    lo = int(math.floor(pos))
    hi = int(math.ceil(pos))
    frac = pos - lo
    return sorted_values[lo] * (1 - frac) + sorted_values[hi] * frac


def summarize(values: Sequence[float]) -> Summary:
    """Descriptive statistics; sample (n-1) standard deviation."""
    if not values:
        raise ValueError("cannot summarize an empty series")
    data = sorted(values)
    n = len(data)
    mean = sum(data) / n
    if n > 1:
        var = sum((x - mean) ** 2 for x in data) / (n - 1)
        stdev = math.sqrt(var)
    else:
        stdev = 0.0
    return Summary(
        n=n,
        mean=mean,
        stdev=stdev,
        minimum=data[0],
        maximum=data[-1],
        p50=percentile(data, 0.50),
        p95=percentile(data, 0.95),
    )