"""repro.obs.metrics: the time-weighted gauge."""

import pytest

from repro.obs.metrics import Gauge


def test_gauge_time_weighted_mean():
    g = Gauge("depth")
    g.set(0.0, 0.0)
    g.set(10.0, 2.0)
    g.set(20.0, 0.0)
    # Level 0 for 10 ms, level 2 for 10 ms, level 0 for 10 ms.
    assert g.time_weighted_mean(until=30.0) == pytest.approx(2.0 / 3.0)
    assert g.busy_fraction(until=30.0) == pytest.approx(1.0 / 3.0)


def test_gauge_busy_fraction_trailing_level():
    g = Gauge("depth")
    g.set(0.0, 1.0)
    assert g.busy_fraction(until=10.0) == pytest.approx(1.0)
    assert g.time_weighted_mean(until=10.0) == pytest.approx(1.0)


def test_gauge_empty_and_degenerate():
    g = Gauge("depth")
    assert g.time_weighted_mean() == 0.0
    assert g.busy_fraction() == 0.0
    assert g.last is None and g.max is None
    g.set(5.0, 3.0)
    assert g.time_weighted_mean() == pytest.approx(3.0)
    assert g.last == 3.0 and g.max == 3.0
