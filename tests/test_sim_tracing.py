"""Unit tests for the tracer: counters, kept instants, and the span
hooks' forwarding to an attached sink."""

from repro.sim.tracing import NullTracer, Tracer


def test_record_counts_and_stores():
    t = Tracer()
    t.record(1.0, "log.force", site="a", lsn=5)
    t.record(2.0, "log.force", site="b")
    assert t.count("log.force") == 2
    assert len(t.instants) == 2
    first = t.instants[0]
    assert (first.t0, first.t1, first.site) == (1.0, 1.0, "a")
    assert first.detail == {"lsn": 5}


def test_counters_without_events():
    t = Tracer(keep=False)
    t.record(1.0, "x")
    assert t.count("x") == 1
    assert t.instants == []


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
    assert [e.t0 for e in t.of_kind("a")] == [1.0, 9.0]


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


# ------------------------------------------------------- sink forwarding


class _Msg:
    kind = "operation"
    tid = "T1@a"


def _every_hook(t):
    """One call of each span hook, as a substrate makes them."""
    return [t.add(0.0, 1.0, "lock.get", site="a", tid="T1@a"),
            t.begin(1.0, "log.force", site="a"),
            t.instant(2.0, "tranman.complete", site="a", tid="T1@a"),
            t.gauge(2.0, "lan.in_flight", 1),
            t.ipc(3.0, 4.5, "inline", "a", _Msg()),
            t.net(5.0, 15.0, "a", "b", _Msg(), 1),
            t.begin_cpu(6.0, "tranman", "a", _Msg())]


def test_span_hooks_without_a_sink_record_nothing():
    t = Tracer(keep=False)
    assert _every_hook(t) == [None] * 7
    t.end(None, 7.0)
    assert dict(t.counters) == {"tranman.complete": 1, "ipc.inline": 1}
    assert t.spans == [] and not t.gauges and t.begun == t.ended == 0


def test_count_only_sink_counts_in_the_sink_only():
    t, sink = NullTracer(), Tracer(keep=False)
    t.attach_obs(sink)
    assert _every_hook(t) == [None] * 7
    assert dict(sink.counters) == {
        "lock.get": 1, "log.force": 1, "tranman.complete": 1,
        "ipc.inline": 1, "net.datagram": 1, "cpu.service": 1}
    assert sink.spans == [] and sink.instants == [] and not sink.gauges
    assert t.counters == {} and t.spans == [] and t.begun == 0


def test_keeping_sink_end_closes_the_span_begin_opened():
    t, sink = Tracer(keep=False), Tracer()
    t.attach_obs(sink)
    sid = t.begin(1.0, "log.force", site="a", tid="T1@a")
    assert not sink.balanced and sink.spans[0].t1 is None
    t.end(sid, 16.0)
    (span,) = sink.spans
    assert (span.sid, span.t0, span.t1) == (sid, 1.0, 16.0)
    assert sink.balanced and not t.spans


def test_record_never_reaches_the_sink():
    t, sink = Tracer(), Tracer()
    t.attach_obs(sink)
    t.record(1.0, "log.force", site="a", lsn=3)
    assert t.count("log.force") == 1 and len(t.instants) == 1
    assert sink.counters == {} and sink.instants == [] and sink.spans == []


def test_merged_calls_count_once_in_each_recorder():
    t, sink = Tracer(), Tracer()
    t.attach_obs(sink)
    t.ipc(0.0, 1.5, "oneway", "a", _Msg())
    t.instant(2.0, "server.drop_locks", site="a", tid="T1@a", server="s")
    for recorder in (t, sink):
        assert dict(recorder.counters) == {"ipc.oneway": 1,
                                           "server.drop_locks": 1}
    assert [s.kind for s in t.instants] == ["ipc.oneway",
                                            "server.drop_locks"]
    assert [s.kind for s in sink.spans] == ["ipc.oneway"]
    assert [(s.kind, s.tid) for s in sink.instants] == \
        [("server.drop_locks", "T1@a")]
