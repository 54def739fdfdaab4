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


def test_of_kind():
    t = Tracer()
    t.record(1.0, "a")
    t.record(5.0, "b")
    t.record(9.0, "a")
    assert [e.time for e in t.of_kind("a")] == [1.0, 9.0]


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


def test_attach_obs_installs_and_removes_sink():
    t = Tracer()
    assert t.obs is None
    sink = object()
    t.attach_obs(sink)
    assert t.obs is sink
    t.attach_obs(None)
    assert t.obs is None
