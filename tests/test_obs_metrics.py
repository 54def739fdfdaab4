"""repro.obs.utilization.occupancy: busy fraction and time-weighted mean
of a sampled level (the recorder's ``lan.in_flight`` gauge)."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.obs.spans import SpanRecorder
from repro.obs.utilization import UtilizationReport, occupancy, snapshot


def test_gauge_time_weighted_mean():
    # Level 0 for 10 ms, level 2 for 10 ms, level 0 for 10 ms.
    busy, mean = occupancy([(0.0, 0.0), (10.0, 2.0), (20.0, 0.0)],
                           until=30.0)
    assert mean == pytest.approx(2.0 / 3.0)
    assert busy == pytest.approx(1.0 / 3.0)


def test_gauge_busy_fraction_trailing_level():
    busy, mean = occupancy([(0.0, 1.0)], until=10.0)
    assert busy == pytest.approx(1.0)
    assert mean == pytest.approx(1.0)


def test_gauge_empty_and_degenerate():
    # No samples: the snapshot has no LAN row to integrate.
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    resources = snapshot(system, SpanRecorder()).resources
    assert [r.kind for r in resources] == ["disk", "disk", "cpu"]
    # A window of zero length reads the last level.
    assert occupancy([(5.0, 3.0)], until=5.0) == (1.0, 3.0)
    assert occupancy([(5.0, 0.0)], until=5.0) == (0.0, 0.0)
    # Nothing measured: no bottleneck to name.
    assert UtilizationReport(elapsed_ms=0.0, resources=[]).bottleneck() \
        is None
