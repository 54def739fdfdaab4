"""Unit tests for the benchmark harness itself (experiment runners,
workloads, figure helpers)."""

import pytest

from repro.bench.experiment import (
    ThroughputResult,
    _operation_cost,
    measure_latency,
    measure_throughput,
)
from repro.bench.figures import FigureSeries, ThroughputCurve
from repro.config import rt_pc_profile
from repro import CamelotSystem, SystemConfig
from repro.bench.workloads import closed_loop, serial_minimal_txns, transfer


def test_operation_cost_matches_paper_arithmetic():
    cost = rt_pc_profile()
    # 3.5 ms local + 29 ms per remote operation.
    assert _operation_cost(cost, 0) == pytest.approx(3.5)
    assert _operation_cost(cost, 2) == pytest.approx(3.5 + 2 * 29.0)


def test_measure_latency_reports_all_fields():
    result = measure_latency(1, trials=5, warmup=1)
    assert result.summary.n == 5
    assert result.tm_summary.mean < result.summary.mean
    assert result.commit_summary.mean < result.summary.mean
    assert result.forces_per_txn == 2.0
    assert result.datagrams_per_txn == 3.0
    assert result.n_subs == 1 and result.op == "write"


def test_measure_latency_deterministic_per_seed():
    a = measure_latency(1, trials=5, seed=3)
    b = measure_latency(1, trials=5, seed=3)
    assert a.summary.mean == b.summary.mean
    c = measure_latency(1, trials=5, seed=4)
    assert c.summary.mean != a.summary.mean


def test_measure_throughput_counts_only_window_commits():
    result = measure_throughput(1, 5, False, duration_ms=3_000.0,
                                warmup_ms=500.0)
    assert result.committed > 0
    assert result.tps == pytest.approx(result.committed / 3.0)
    assert result.pairs == 1 and result.threads == 5


def test_figure_series_helpers():
    r = measure_latency(0, trials=3, warmup=0)
    fs = FigureSeries(label="x", points=[(0, r)])
    assert fs.means() == [r.summary.mean]
    assert fs.stdevs() == [r.summary.stdev]


# ----------------------------------------------------------- workloads


def test_serial_minimal_txns_counts_commits():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    app = system.application("a")
    committed = system.run_process(
        serial_minimal_txns(app, ["server0@a"], 4))
    assert committed == 4
    assert len(app.history) == 4


def test_closed_loop_stops_at_deadline():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    app = system.application("a")
    committed = system.run_process(
        closed_loop(app, ["server0@a"], until_ms=500.0))
    assert committed >= 1
    assert system.kernel.now >= 500.0
    # Every recorded commit began before the deadline.
    assert all(r.began_at < 500.0 for r in app.history)


def _held_x(system):
    """A transaction that writes ``x`` at a and never finishes: every
    later lock request on ``x`` outwaits the lock-wait timeout."""
    holder = system.application("a", name="holder")

    def hold():
        tid = yield from holder.begin()
        yield from holder.write(tid, "server0@a", "x", 0)

    system.run_process(hold())


@pytest.mark.parametrize("workload", [
    lambda app: serial_minimal_txns(app, ["server0@a"], 2),
    lambda app: closed_loop(app, ["server0@a"], until_ms=8_000.0),
], ids=["serial", "closed_loop"])
def test_workloads_count_an_aborted_transaction_and_go_on(workload):
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    _held_x(system)
    app = system.application("a")
    assert system.run_process(workload(app)) == 0
    assert app.aborted == 2


def test_throughput_curve_lists_each_points_tps():
    curve = ThroughputCurve(label="x", points=[
        ThroughputResult(pairs=p, threads=1, group_commit=False, op="write",
                         tps=10.0 * p, committed=p, duration_ms=1.0)
        for p in (1, 2)])
    assert curve.tps() == [10.0, 20.0]


def test_transfer_insufficient_funds_is_clean():
    system = CamelotSystem(SystemConfig(sites={"a": 1}),
                           initial_objects={"server0@a": {"rich": 5,
                                                          "poor": 0}})
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        ok = yield from transfer(app, tid, "server0@a", "rich",
                                 "server0@a", "poor", 100)
        yield from app.abort(tid)
        return ok

    assert system.run_process(workload()) is False
    system.run_for(500.0)
    assert system.server("server0@a").peek("rich") == 5
    assert system.server("server0@a").peek("poor") == 0
