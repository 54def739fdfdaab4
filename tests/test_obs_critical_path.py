"""Critical-path extraction on synthetic span sets.

Every test asserts the balance invariant the CI smoke job relies on:
``attributed + gaps == wall`` exactly (to float tolerance).
"""

import pytest

from repro.obs.critical_path import extract, extract_for_tid
from repro.obs.spans import Span, SpanRecorder
from repro.sim.tracing import NullTracer

TID = "T1@a"


def _sink():
    """A keeping recorder attached to a tracer that counts nothing
    itself; hooks called on the tracer land in the recorder."""
    tracer, rec = NullTracer(), SpanRecorder()
    tracer.attach_obs(rec)
    return tracer, rec


def _span(sid, kind, site, t0, t1, tid=TID, **detail):
    return Span(sid, kind, site, t0, t1, tid, detail)


def _check_balance(path):
    assert path.attributed_ms + path.gap_ms == pytest.approx(path.wall_ms)


def test_sequential_chain_fills_window():
    spans = [
        _span(1, "lock.get", "a", 0.0, 0.5),
        _span(2, "log.force", "a", 0.5, 15.5),
        _span(3, "ipc.inline", "a", 15.5, 17.0),
    ]
    path = extract(spans, TID, 0.0, 17.0)
    _check_balance(path)
    assert path.gap_ms == pytest.approx(0.0)
    assert [link.span.sid for link in path.links] == [1, 2, 3]
    assert path.buckets()["log_force"] == pytest.approx(15.0)


def test_uncovered_time_becomes_gap():
    spans = [
        _span(1, "log.force", "a", 2.0, 4.0),
        _span(2, "ipc.inline", "a", 6.0, 10.0),
    ]
    path = extract(spans, TID, 0.0, 10.0)
    _check_balance(path)
    # [0,2] before the first span and [4,6] between them are gaps.
    assert path.gap_ms == pytest.approx(4.0)
    assert path.attributed_ms == pytest.approx(6.0)


def test_parent_does_not_double_count_nested_child():
    spans = [
        _span(1, "cpu.service", "a", 0.0, 10.0),
        _span(2, "log.force", "a", 3.0, 5.0),
    ]
    path = extract(spans, TID, 0.0, 10.0)
    _check_balance(path)
    buckets = path.buckets()
    assert buckets["cpu"] == pytest.approx(8.0)   # 10 minus the child
    assert buckets["log_force"] == pytest.approx(2.0)
    # The split parent still counts as ONE cpu occurrence.
    assert path.counts() == {"cpu": 1, "log_force": 1}


def test_overlapping_spans_split_without_double_counting():
    # The shorter contained span carves its interval out of the longer
    # one; together they cover the window exactly once.
    spans = [
        _span(1, "log.force", "a", 0.0, 15.0),
        _span(2, "net.datagram", "a", 0.0, 10.0, dst="b"),
    ]
    path = extract(spans, TID, 0.0, 15.0)
    _check_balance(path)
    assert path.gap_ms == pytest.approx(0.0)
    assert path.buckets()["datagram"] == pytest.approx(10.0)
    assert path.buckets()["log_force"] == pytest.approx(5.0)
    assert path.counts() == {"datagram": 1, "log_force": 1}


def test_envelope_and_open_spans_excluded():
    spans = [
        _span(1, "txn", "a", 0.0, 10.0),
        _span(2, "cpu.service", "a", 0.0, None),
        _span(3, "log.force", "a", 0.0, 10.0),
    ]
    path = extract(spans, TID, 0.0, 10.0)
    _check_balance(path)
    assert {link.span.sid for link in path.links} == {3}


def test_other_tids_ignored():
    spans = [
        _span(1, "log.force", "a", 0.0, 10.0, tid="T2@a"),
    ]
    path = extract(spans, TID, 0.0, 10.0)
    _check_balance(path)
    assert path.links == [] and path.gap_ms == pytest.approx(10.0)


def test_static_comparable_includes_cpu_excludes_gaps():
    spans = [
        _span(1, "cpu.service", "a", 0.0, 2.0),
        _span(2, "log.force", "a", 2.0, 17.0),
    ]
    path = extract(spans, TID, 0.0, 20.0)
    _check_balance(path)
    assert path.static_comparable_ms() == pytest.approx(17.0)
    assert path.gap_ms == pytest.approx(3.0)


def test_extract_for_tid_uses_envelope_bounds():
    t, rec = _sink()
    t.add(5.0, 30.0, "txn", site="a", tid=TID)
    t.add(10.0, 25.0, "log.force", site="a", tid=TID)
    path = extract_for_tid(rec, TID)
    assert path is not None
    assert (path.t_start, path.t_end) == (5.0, 30.0)
    _check_balance(path)
    assert path.attributed_ms == pytest.approx(15.0)


def test_extract_for_tid_commit_envelope():
    t, rec = _sink()
    t.add(0.0, 30.0, "txn", site="a", tid=TID)
    t.add(20.0, 30.0, "txn.commit", site="a", tid=TID)
    t.add(21.0, 29.0, "log.force", site="a", tid=TID)
    path = extract_for_tid(rec, TID, envelope="txn.commit")
    assert (path.t_start, path.t_end) == (20.0, 30.0)


def test_extract_for_tid_none_without_envelope():
    t, rec = _sink()
    t.add(0.0, 1.0, "log.force", site="a", tid=TID)
    assert extract_for_tid(rec, TID) is None
