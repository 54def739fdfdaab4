"""Unit + property tests for the statistics helpers."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.analysis.stats import percentile, summarize


def test_summarize_basic():
    s = summarize([1.0, 2.0, 3.0, 4.0, 5.0])
    assert s.n == 5
    assert s.mean == 3.0
    assert s.minimum == 1.0 and s.maximum == 5.0
    assert s.p50 == 3.0
    assert s.stdev == pytest.approx(math.sqrt(2.5))


def test_summarize_single_value():
    s = summarize([7.0])
    assert s.stdev == 0.0
    assert s.p95 == 7.0


def test_summarize_empty_rejected():
    with pytest.raises(ValueError):
        summarize([])


def test_percentile_interpolates():
    data = [0.0, 10.0]
    assert percentile(data, 0.5) == 5.0
    assert percentile(data, 0.0) == 0.0
    assert percentile(data, 1.0) == 10.0


def test_percentile_empty_rejected():
    with pytest.raises(ValueError):
        percentile([], 0.5)


@given(st.lists(st.floats(min_value=-1e6, max_value=1e6,
                          allow_nan=False), min_size=1, max_size=50))
def test_summary_bounds_property(values):
    s = summarize(values)
    eps = 1e-6 * max(1.0, abs(s.minimum), abs(s.maximum))
    assert s.minimum - eps <= s.mean <= s.maximum + eps
    assert s.minimum - eps <= s.p50 <= s.maximum + eps
    assert s.stdev >= 0
