"""repro.obs.spans: recorder API, tid extraction, count-only mode."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.core.outcomes import ProtocolKind
from repro.obs.spans import SpanRecorder, tid_of


class _Obj:
    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)


# ------------------------------------------------------------------ tid_of


def test_tid_of_direct_attribute():
    assert tid_of(_Obj(tid="T1@a")) == "T1@a"


def test_tid_of_body_dict():
    assert tid_of(_Obj(body={"tid": "T3@a"})) == "T3@a"


def test_tid_of_trans_dict():
    assert tid_of(_Obj(trans={"tid": "T5@a"})) == "T5@a"


def test_tid_of_stringifies_non_strings():
    class FakeTid:
        def __str__(self):
            return "T6@a"

    assert tid_of(_Obj(tid=FakeTid())) == "T6@a"


def test_tid_of_none_when_absent():
    assert tid_of(_Obj(body={"x": 1})) is None
    assert tid_of(object()) is None


# ---------------------------------------------------------------- recorder


def test_add_records_closed_span():
    rec = SpanRecorder()
    sid = rec.add(1.0, 2.5, "log.force", site="a", tid="T1@a", lsn=7)
    assert sid is not None
    (span,) = rec.spans
    assert span.kind == "log.force"
    assert span.duration == pytest.approx(1.5)
    assert span.closed
    assert span.detail == {"lsn": 7}
    assert rec.counters["log.force"] == 1


def test_begin_end_bracket_and_balance():
    rec = SpanRecorder()
    sid = rec.begin(1.0, "cpu.service", site="a")
    assert not rec.balanced
    rec.end(sid, 3.0)
    assert rec.balanced
    assert rec.spans[0].duration == pytest.approx(2.0)


def test_tid_coerced_to_str_in_keep_mode():
    class FakeTid:
        def __str__(self):
            return "T9@a"

    rec = SpanRecorder()
    rec.add(0.0, 1.0, "lock.get", site="a", tid=FakeTid())
    sid = rec.begin(1.0, "lock.wait", site="a", tid=FakeTid())
    rec.end(sid, 2.0)
    rec.instant(2.0, "server.drop_locks", site="a", tid=FakeTid())
    assert all(s.tid == "T9@a" for s in rec.all_spans())
    assert len(rec.for_tid("T9@a")) == 3


def test_instant_has_zero_duration():
    rec = SpanRecorder()
    rec.instant(5.0, "tranman.complete", site="a", tid="T1@a")
    (span,) = rec.instants
    assert span.t0 == span.t1 == 5.0


def test_gauge_samples_kept_in_order():
    rec = SpanRecorder()
    rec.gauge(1.0, "lan.in_flight", 1)
    rec.gauge(2.0, "lan.in_flight", 0)
    assert rec.gauges["lan.in_flight"] == [(1.0, 1), (2.0, 0)]


def test_domain_hooks_classify_kinds():
    rec = SpanRecorder()
    rec.ipc(0.0, 1.5, "inline", "a", _Obj(tid="T1@a", kind="operation"))
    rec.net(2.0, 12.0, "a", "b", _Obj(tid="T1@a"))
    rec.net(2.0, 12.0, "a", "b", _Obj(tid="T1@a"), rpc=True)
    rec.net(2.0, 12.0, "a", "b", _Obj(tid="T1@a"), multicast=True)
    sid = rec.begin_cpu(13.0, "tranman", "a", _Obj(tid="T1@a", kind="x"))
    rec.end(sid, 13.8)
    kinds = sorted(s.kind for s in rec.spans)
    assert kinds == ["cpu.service", "ipc.inline", "net.datagram",
                     "net.multicast", "rpc.netmsg"]
    assert all(s.tid == "T1@a" for s in rec.spans)


def test_net_names_the_message_it_carries():
    class PrepareRequest:
        tid = "T1@a"

    rec = SpanRecorder()
    rec.net(0.0, 10.0, "a", "b", PrepareRequest())
    assert rec.spans[0].tid == "T1@a"
    assert rec.spans[0].detail["msg_kind"] == "PrepareRequest"
    assert rec.spans[0].detail["dst"] == "b"


# -------------------------------------------------------------- count-only


def test_count_only_retains_nothing_but_counts_exactly():
    rec = SpanRecorder(keep=False)
    rec.ipc(0.0, 1.5, "inline", "a", _Obj(tid="T1@a", kind="op"))
    rec.ipc(0.0, 1.5, "oneway", "a", _Obj())
    rec.net(0.0, 10.0, "a", "b", _Obj())
    rec.net(0.0, 10.0, "a", "b", _Obj(), rpc=True)
    rec.add(0.0, 1.0, "lock.get", site="a", tid="T1@a")
    sid = rec.begin(0.0, "log.force", site="a")
    rec.end(sid, 15.0)
    rec.instant(1.0, "tranman.complete")
    rec.end(rec.begin_cpu(1.0, "tranman", "a", _Obj(tid="T1@a", kind="op")),
            1.8)
    rec.gauge(1.0, "lan.in_flight", 1)
    assert rec.spans == [] and rec.instants == []
    assert not rec.gauges
    assert rec.counters == {"ipc.inline": 1, "ipc.oneway": 1,
                            "net.datagram": 1, "rpc.netmsg": 1,
                            "lock.get": 1, "log.force": 1,
                            "tranman.complete": 1, "cpu.service": 1}
    assert rec.balanced


def test_count_only_tracks_begin_end_pairing():
    rec = SpanRecorder(keep=False)
    rec.begin(0.0, "log.force")
    assert not rec.balanced
    rec.end(None, 1.0)
    assert rec.balanced


@pytest.mark.parametrize("protocol", list(ProtocolKind),
                         ids=lambda p: p.value)
@pytest.mark.parametrize("group_commit", [False, True],
                         ids=["plain", "group-commit"])
def test_keep_and_count_only_count_the_same_run_alike(protocol, group_commit):
    """Every hook has one body with an early count-only exit: on one
    seeded three-site run the two modes must agree counter for counter
    and both close every bracket they open."""
    recorders = {}
    for keep in (True, False):
        system = CamelotSystem(SystemConfig(
            sites={"a": 1, "b": 1, "c": 1}, seed=11,
            group_commit=group_commit, use_multicast=group_commit))
        recorders[keep] = recorder = SpanRecorder(keep=keep)
        system.tracer.attach_obs(recorder)
        app = system.application("a")
        services = system.default_services()

        def workload():
            for op in ("write", "read", "write"):
                yield from app.minimal_transaction(services, op=op,
                                                   protocol=protocol)

        system.run_process(workload())
        system.run_for(2_000.0)
        assert recorder.balanced and recorder.begun > 0
    kept, counted = recorders[True], recorders[False]
    assert dict(kept.counters) == dict(counted.counters)
    assert (kept.begun, kept.ended) == (counted.begun, counted.ended)
    assert kept.counters["cpu.service"] > 0 \
        and kept.counters["net.datagram"] > 0
    assert counted.spans == [] and not counted.gauges
