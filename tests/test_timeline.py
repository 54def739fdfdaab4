"""Unit tests for the trace timeline renderer."""

from repro import CamelotSystem, SystemConfig
from repro.bench.timeline import extract_rows, render_timeline
from repro.sim.tracing import Tracer


def run_commit(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.write(tid, "server0@b", "x", 2)
        yield from app.commit(tid)
        return tid

    return system.run_process(workload())


def test_rows_extracted_in_time_order():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    run_commit(system)
    rows = extract_rows(system.tracer)
    times = [r.time for r in rows]
    assert times == sorted(times)
    texts = [r.text for r in rows]
    assert any("begin" in t for t in texts)
    assert any("COMPLETE: committed" in t for t in texts)


def test_datagrams_become_arrows():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    run_commit(system)
    rows = extract_rows(system.tracer)
    arrows = [r for r in rows if r.arrow_to is not None]
    assert {r.arrow_to for r in arrows} >= {"a", "b"}
    assert any("PrepareRequest" in r.text for r in arrows)


def test_render_places_events_in_site_columns():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    run_commit(system)
    text = render_timeline(system.tracer, ["a", "b"])
    lines = text.splitlines()
    header = lines[0]
    col_b = header.index("b")
    # Site-b events start at site b's column.
    b_lines = [l for l in lines if "join server0@b" in l]
    assert b_lines and b_lines[0].index("join server0@b") == col_b


def test_time_window_filters():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    run_commit(system)
    early = extract_rows(system.tracer, t1=10.0)
    assert all(r.time <= 10.0 for r in early)
    late = extract_rows(system.tracer, t0=50.0)
    assert all(r.time >= 50.0 for r in late)


def test_tid_filter_keeps_untagged_events():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    tid = run_commit(system)
    rows = extract_rows(system.tracer, tid=str(tid))
    assert any("begin" in r.text for r in rows)
    # A different tid filter drops the begin row.
    rows_other = extract_rows(system.tracer, tid="T99@z")
    assert not any("begin" in r.text for r in rows_other)


def test_two_site_commit_drops_locks_at_both_sites():
    """Figure 1's event 11: each data server drops the transaction's
    locks once the commit is decided, and the tid filter keeps the row."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    tid = run_commit(system)
    system.run_for(500.0)  # the drops follow the commit's return
    for rows in (extract_rows(system.tracer),
                 extract_rows(system.tracer, tid=str(tid))):
        assert sorted(r.site for r in rows if r.text == "drop locks") \
            == ["a", "b"]
    text = render_timeline(system.tracer, ["a", "b"], tid=str(tid))
    assert text.count("drop locks") == 2


def test_empty_tracer_renders_header_only():
    text = render_timeline(Tracer(), ["a"])
    assert len(text.splitlines()) == 2


def test_heuristic_decisions_get_their_rows():
    tracer = Tracer()
    tracer.record(7.0, "2pc.heuristic_resolve", site="b",
                  outcome="committed")
    tracer.record(8.0, "2pc.heuristic_damage", site="b")
    assert [(r.site, r.text) for r in extract_rows(tracer)] == [
        ("b", "HEURISTIC committed"), ("b", "!! heuristic damage")]
