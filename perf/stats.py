"""Order statistics used by every report in this package."""

from __future__ import annotations

import statistics
from typing import Sequence, Tuple


def quantile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0..1) by linear interpolation between order
    statistics; the only percentile definition used in this package."""
    if not values:
        raise ValueError("quantile of no values")
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


# How a run's many window times (already restated at reference host
# speed, see perf.calibrate) become one number: their lower quartile.
# What is left after that restatement is one-sided — a 50 ms hiccup that
# hit the window but not the reference load around it only ever makes
# the window slower — so the typical undisturbed window sits in the
# lower half; the quartile, not the minimum, so that neither a lucky
# window nor an error in one reference reading decides the result.
# README "Noise" has the measurements this was chosen from.
FAST_QUANTILE = 0.25


def fast_time(seconds: Sequence[float]) -> float:
    """Time the work takes when nothing interferes: the lower quartile."""
    return quantile(seconds, FAST_QUANTILE)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(Q1, median, Q3) exactly as ``statistics.quantiles(n=4)`` gives
    them — the driver's own definition of spread."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0
