"""Chrome trace-event export: structure, scaling, JSON validity."""

import json

from repro.obs.export import to_trace_events, write_trace
from repro.obs.spans import SpanRecorder
from repro.sim.tracing import NullTracer


def _sink():
    """A keeping recorder attached to a tracer that counts nothing
    itself; hooks called on the tracer land in the recorder."""
    tracer, rec = NullTracer(), SpanRecorder()
    tracer.attach_obs(rec)
    return tracer, rec


def _recorder():
    t, rec = _sink()
    t.add(1.0, 2.5, "log.force", site="a", tid="T1@a", lsn=3)
    t.add(2.5, 12.5, "net.datagram", site="a", tid="T1@a", dst="b")
    t.add(13.0, 13.8, "cpu.service", site="b", tid="T1@a",
          component="tranman")
    t.instant(14.0, "tranman.complete", site="b", tid="T1@a",
              outcome="committed")
    t.gauge(1.0, "lan.in_flight", 1)
    t.gauge(12.5, "lan.in_flight", 0)
    return rec


def test_spans_become_complete_events_in_microseconds():
    doc = to_trace_events(_recorder())
    assert doc["displayTimeUnit"] == "ms"
    xs = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert len(xs) == 3
    force = next(e for e in xs if e["name"] == "log.force")
    assert force["ts"] == 1_000.0 and force["dur"] == 1_500.0
    assert force["cat"] == "log_force"
    assert force["args"] == {"tid": "T1@a", "lsn": 3}


def test_sites_become_processes_classes_become_threads():
    doc = to_trace_events(_recorder())
    meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
    process_names = {e["args"]["name"] for e in meta
                     if e["name"] == "process_name"}
    assert process_names == {"site a", "site b"}
    thread_names = {e["args"]["name"] for e in meta
                    if e["name"] == "thread_name"}
    assert {"log_force", "datagram", "cpu"} <= thread_names
    # Events on different sites carry different pids.
    xs = {e["name"]: e["pid"] for e in doc["traceEvents"]
          if e["ph"] == "X"}
    assert xs["log.force"] != xs["cpu.service"]


def test_instants_and_counters():
    doc = to_trace_events(_recorder())
    (instant,) = [e for e in doc["traceEvents"] if e["ph"] == "i"]
    assert instant["name"] == "tranman.complete"
    assert instant["s"] == "p"
    counters = [e for e in doc["traceEvents"] if e["ph"] == "C"]
    assert [(c["ts"], c["args"]["value"]) for c in counters] == \
        [(1_000.0, 1), (12_500.0, 0)]


def test_non_json_detail_values_stringified():
    class Weird:
        def __str__(self):
            return "weird"

    t, rec = _sink()
    t.add(0.0, 1.0, "lock.get", site="a", obj=Weird())
    doc = to_trace_events(rec)
    (x,) = [e for e in doc["traceEvents"] if e["ph"] == "X"]
    assert x["args"]["obj"] == "weird"
    json.dumps(doc)  # must not raise


def test_write_trace_roundtrips(tmp_path):
    path = tmp_path / "trace.json"
    n = write_trace(_recorder(), str(path))
    doc = json.loads(path.read_text())
    assert len(doc["traceEvents"]) == n > 0
    for event in doc["traceEvents"]:
        assert {"ph", "pid", "name"} <= set(event)
        if event["ph"] == "X":
            assert event["dur"] >= 0


def test_open_spans_skipped():
    t, rec = _sink()
    t.begin(0.0, "log.force", site="a")
    doc = to_trace_events(rec)
    assert [e for e in doc["traceEvents"] if e["ph"] == "X"] == []
