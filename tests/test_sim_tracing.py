"""Unit tests for the tracer/counters."""

from repro.sim.tracing import NullTracer, Tracer


def test_record_counts_and_stores():
    t = Tracer()
    t.record(1.0, "log.force", site="a", lsn=5)
    t.record(2.0, "log.force", site="b")
    assert t.count("log.force") == 2
    assert len(t.events) == 2
    assert t.events[0].detail == {"lsn": 5}


def test_counters_without_events():
    t = Tracer(keep_events=False)
    t.record(1.0, "x")
    assert t.count("x") == 1
    assert t.events == []


def test_count_prefix():
    t = Tracer()
    t.record(0.0, "net.datagram")
    t.record(0.0, "net.multicast")
    t.record(0.0, "log.force")
    assert t.count_prefix("net.") == 2


def test_of_kind_and_between():
    t = Tracer()
    t.record(1.0, "a")
    t.record(5.0, "b")
    t.record(9.0, "a")
    assert len(t.of_kind("a")) == 2
    assert [e.kind for e in t.between(4.0, 10.0)] == ["b", "a"]


def test_snapshot_delta():
    t = Tracer()
    t.record(0.0, "x")
    before = t.snapshot()
    t.record(0.0, "x")
    t.record(0.0, "y")
    delta = Tracer.delta(before, t.snapshot())
    assert delta == {"x": 1, "y": 1}


def test_delta_omits_zero_kinds():
    t = Tracer()
    t.record(0.0, "x")
    before = t.snapshot()
    assert Tracer.delta(before, t.snapshot()) == {}


def test_null_tracer_drops_everything():
    t = NullTracer()
    t.record(0.0, "x")
    assert t.count("x") == 0


def test_clear():
    t = Tracer()
    t.record(0.0, "a")
    t.clear()
    assert t.count("a") == 0
    assert t.events == []


def test_between_bisect_matches_linear_scan_on_long_trace():
    """Regression for the bisect rewrite: same answers as the linear
    filter on a long trace with heavy timestamp duplication."""
    t = Tracer()
    for i in range(10_000):
        t.record(float(i // 4), "tick", seq=i)  # 4 events per instant
    for t0, t1 in [(0.0, 0.0), (10.0, 20.0), (17.3, 17.9),
                   (2_499.0, 2_499.0), (2_498.5, 9_999.0),
                   (-5.0, 3.0), (3_000.0, 2_000.0)]:
        expected = [e for e in t.events if t0 <= e.time <= t1]
        assert t.between(t0, t1) == expected


def test_between_bounds_inclusive():
    t = Tracer()
    t.record(1.0, "a")
    t.record(2.0, "b")
    t.record(3.0, "c")
    assert [e.kind for e in t.between(1.0, 3.0)] == ["a", "b", "c"]
    assert [e.kind for e in t.between(2.0, 2.0)] == ["b"]
    assert t.between(4.0, 9.0) == []


def test_attach_obs_installs_and_removes_sink():
    t = Tracer()
    assert t.obs is None
    sink = object()
    t.attach_obs(sink)
    assert t.obs is sink
    t.attach_obs(None)
    assert t.obs is None
