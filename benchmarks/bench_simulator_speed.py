"""Harness health: the simulator itself must stay fast.

Not a paper figure — a guard that keeps the experiment suite usable.
The full Figure 2-5 regeneration runs hundreds of simulated seconds;
if kernel event dispatch regresses badly, every experiment silently
turns into a coffee break.  This bench enforces a kernel dispatch-rate
floor so hot-path regressions fail loudly, a ceiling on the span hook
calls a traced transaction makes, a ceiling on the kernel events an open-loop
transaction fires, and a ceiling on an open-loop run's peak RSS.  The
repo's benchmark proper — speed with repeats, spread and per-layer
attribution — is ``python -m perf``; this file only keeps coarse
floors for CI and writes nothing.
"""

import os
import re
import subprocess
import sys
import time
from pathlib import Path

from repro import CamelotSystem, SystemConfig
from repro.bench.openloop import run_open_loop
from repro.bench.workloads import serial_minimal_txns
from repro.obs.spans import SpanRecorder
from repro.sim.kernel import Kernel
from repro.sim.tracing import NullTracer

from benchmarks.conftest import emit
from perf.trace import SimProbes

# Dispatch-rate floor (events of simulated work per host second), for
# the schedule() spin and the post() spin alike.  The schedule() spin
# reads 0.8M-2.0M ev/s on one unchanged tree as the host moves between
# speed levels, and fire-and-forget dispatch ~2.4M; the floor sits far
# enough below both that a slow host passes while an accidental O(n)
# regression (or a Python-level __lt__ creeping back into the heap)
# still misses it by 2-3x and fails loudly.
KERNEL_EVENTS_PER_SEC_FLOOR = 500_000.0

# Open-loop guard rail: the whole CLI process — interpreter, import,
# 10k-transaction run, streaming obs — must stay within a ceiling that
# an O(txns) memory regression would blow through.  (Measured tps
# equals offered load by construction, so it guards nothing.)
OPENLOOP_SITES = 24
OPENLOOP_RATE_TPS = 300.0
OPENLOOP_TXNS = 10_000
OPENLOOP_PEAK_RSS_MB_CEILING = 96.0


def _spin_rate(use_post: bool, n: int = 25_000) -> float:
    """Events/sec for a self-rescheduling ticker (the classic heap spin).

    25k events is ~20 ms of host time: short enough that a trial can
    land wholly inside a quiet window on a noisy shared host, so the
    best-of-N aggregate measures the kernel, not the neighbours.
    """
    kernel = Kernel()
    count = 0

    if use_post:
        def tick():
            nonlocal count
            count += 1
            if count < n:
                kernel.post(1.0, tick)
    else:
        def tick():
            nonlocal count
            count += 1
            if count < n:
                kernel.schedule(1.0, tick)

    kernel.schedule(0.0, tick)
    start = time.perf_counter()
    kernel.run()
    elapsed = time.perf_counter() - start
    assert count == n
    return n / elapsed


def test_kernel_event_throughput(benchmark):
    def spin():
        kernel = Kernel()
        count = 0

        def tick():
            nonlocal count
            count += 1
            if count < 50_000:
                kernel.schedule(1.0, tick)

        kernel.schedule(0.0, tick)
        kernel.run()
        return count

    events = benchmark.pedantic(spin, rounds=1, iterations=1)
    assert events == 50_000


def test_kernel_dispatch_rate_floor():
    """Hot-path guard: dispatch below the floor fails the suite.

    Best-of-twelve per spin: the spin is a pure hot-loop microbenchmark,
    so its true rate is the *fastest* observation — slower samples
    measure scheduler preemption and shared-host noise, not the kernel.
    """
    schedule_rate = max(_spin_rate(use_post=False) for _ in range(12))
    post_rate = max(_spin_rate(use_post=True) for _ in range(12))
    emit(f"kernel dispatch: schedule {schedule_rate:,.0f} ev/s, "
         f"post {post_rate:,.0f} ev/s "
         f"(floor {KERNEL_EVENTS_PER_SEC_FLOOR:,.0f})")
    for spin, rate in (("schedule()", schedule_rate), ("post()", post_rate)):
        assert rate >= KERNEL_EVENTS_PER_SEC_FLOOR, (
            f"kernel {spin} dispatch regressed: {rate:,.0f} ev/s is below "
            f"the {KERNEL_EVENTS_PER_SEC_FLOOR:,.0f} ev/s floor")


SPAN_HOOKS = ("add", "begin", "end", "instant", "gauge", "ipc", "net",
              "begin_cpu", "begin_group_commit")


def _span_hook_calls(sink):
    """Span-hook calls on the system's recorder, and commits, over 120
    serial distributed transactions with ``sink`` attached (or none)."""
    tracer, calls = NullTracer(), {}
    for name in SPAN_HOOKS:
        def counted(*args, _hook=getattr(tracer, name), _name=name,
                    **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _hook(*args, **kwargs)
        setattr(tracer, name, counted)
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1},
                                        keep_trace_events=False),
                           tracer=tracer)
    tracer.attach_obs(sink)
    app = system.application("a")
    committed = system.run_process(
        serial_minimal_txns(app, system.default_services(), 120),
        timeout_ms=600_000.0)
    return sum(calls.values()), committed


def test_span_hook_calls_per_transaction_ceiling():
    """Work, not a clock ratio: span-hook calls on the system's recorder
    per committed transaction on 120 serial distributed transactions,
    with no sink and with a count-only one.  Every hook is one
    unguarded call that leaves at once without a sink and right after
    its counter increment in a count-only one, so the two runs make the
    same calls, and a new hook on a hot path shows here.  The count
    repeats to the digit on any host (7,909 calls, 65.9 per
    transaction); the clock ratio this replaced, count-only over
    untraced under a 1.05 ceiling, read 0.99-1.06 on one tree."""
    for label, sink in (("no sink", None),
                        ("count-only", SpanRecorder(keep=False))):
        calls, committed = _span_hook_calls(sink)
        per_txn = calls / committed
        emit(f"span hooks, {label}: {calls:,} calls for {committed} "
             f"transactions, {per_txn:.1f} per transaction (ceiling 67)")
        assert committed == 120 and per_txn <= 67


def test_open_loop_events_per_transaction_ceiling():
    """A floor that guards work, not host speed: kernel events fired
    per committed transaction on ``perf``'s ``sim_openloop`` call.  The
    count repeats to the digit on any host (20,134 events, 44.7 on this
    tree; 20,406 while each arriving datagram took a second turn to wake
    its TranMan thread; 20,418 while a deadline wait left its timer
    armed after the event won — six of the call's 37 granted lock waits
    lived long enough for theirs to fire; 79.4 per transaction while the
    disk manager's daemons polled and every IPC delivery took a second
    turn to wake its receiver), so the ceiling cannot flake,
    and an idle loop or an unpriced hop creeping back in trips it."""
    with SimProbes() as probes:
        result = run_open_loop(sites=24, rate_tps=300.0, txns=450, seed=1,
                               op="write", zipf_s=1.1, remote_fraction=0.15)
    fired = int(probes.counts()["events"])
    per_txn = fired / result.committed
    emit(f"open loop: {fired:,} kernel events for {result.committed} "
         f"transactions, {per_txn:.1f} per transaction (ceiling 45)")
    assert result.committed == 450 and per_txn <= 45


def test_open_loop_throughput_and_memory():
    """Open-loop guard: every transaction finishes, memory stays flat.

    Runs the ``repro.bench`` CLI in a fresh interpreter so peak RSS is
    the open-loop run's own footprint — not this pytest process with
    every prior benchmark's allocations folded into ``ru_maxrss``.  The
    run is 10k transactions; the streaming-obs design keeps its RSS
    identical to a 1M-transaction run (everything per-transaction is
    dropped at completion), so the ceiling guards the whole bounded-
    memory discipline, and an O(txns) regression (retained spans,
    unpruned tombstones, WAL without checkpoints) shows up here long
    before anyone reruns the million-transaction demo.
    """
    proc = subprocess.run(
        [sys.executable, "-m", "repro.bench", "--open-loop",
         "--sites", str(OPENLOOP_SITES),
         "--rate", str(OPENLOOP_RATE_TPS),
         "--txns", str(OPENLOOP_TXNS)],
        capture_output=True, text=True, timeout=1200,
        env={**os.environ,
             "PYTHONPATH": str(Path(__file__).resolve().parent.parent
                               / "src")})
    assert proc.returncode == 0, (
        f"open-loop run left transactions unfinished:\n{proc.stdout}"
        f"\n{proc.stderr}")
    rss = float(re.search(r"peak RSS: ([\d.]+) MiB", proc.stdout).group(1))
    emit(f"open loop: {OPENLOOP_TXNS:,} txns at {OPENLOOP_RATE_TPS:.0f} tps "
         f"offered, peak RSS {rss:.1f} MiB "
         f"(ceiling {OPENLOOP_PEAK_RSS_MB_CEILING:.0f})")
    assert rss <= OPENLOOP_PEAK_RSS_MB_CEILING, (
        f"open-loop peak RSS {rss:.1f} MiB exceeds the "
        f"{OPENLOOP_PEAK_RSS_MB_CEILING:.0f} MiB ceiling — per-"
        f"transaction state is being retained somewhere")

