"""The time-weighted gauge :mod:`repro.obs.utilization` builds its
occupancy figures on."""

from __future__ import annotations

from typing import List, Optional, Tuple


class Gauge:
    """A sampled level (queue depth, in-flight count) with time weighting.

    Samples must arrive in nondecreasing time order (simulation time).
    ``time_weighted_mean`` integrates the step function the samples
    describe — the right average for occupancy-style quantities, where
    a level held for 100 ms should weigh 100x one held for 1 ms.
    """

    __slots__ = ("name", "samples")

    def __init__(self, name: str):
        self.name = name
        self.samples: List[Tuple[float, float]] = []

    def set(self, time: float, value: float) -> None:
        self.samples.append((time, value))  # lint: bounded(kept only when obs keep=True)

    @property
    def last(self) -> Optional[float]:
        return self.samples[-1][1] if self.samples else None

    @property
    def max(self) -> Optional[float]:
        return max(v for _, v in self.samples) if self.samples else None

    def time_weighted_mean(self, until: Optional[float] = None) -> float:
        if not self.samples:
            return 0.0
        end = self.samples[-1][0] if until is None else until
        total = 0.0
        span = end - self.samples[0][0]
        if span <= 0:
            return self.samples[-1][1]
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            total += v * (t1 - t0)
        total += self.samples[-1][1] * (end - self.samples[-1][0])
        return total / span

    def busy_fraction(self, until: Optional[float] = None) -> float:
        """Fraction of time the level sat above zero (occupancy)."""
        if not self.samples:
            return 0.0
        end = self.samples[-1][0] if until is None else until
        span = end - self.samples[0][0]
        if span <= 0:
            return 1.0 if self.samples[-1][1] > 0 else 0.0
        busy = 0.0
        for (t0, v), (t1, _) in zip(self.samples, self.samples[1:]):
            if v > 0:
                busy += t1 - t0
        if self.samples[-1][1] > 0:
            busy += end - self.samples[-1][0]
        return busy / span
