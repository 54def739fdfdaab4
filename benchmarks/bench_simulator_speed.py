"""Harness health: the simulator itself must stay fast.

Not a paper figure — a guard that keeps the experiment suite usable.
The full Figure 2-5 regeneration runs hundreds of simulated seconds;
if kernel event dispatch regresses badly, every experiment silently
turns into a coffee break.  This bench enforces a kernel dispatch-rate
floor so hot-path regressions fail loudly, a ceiling on what count-only
tracing may cost, a ceiling on the kernel events an open-loop
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


def _txn_workload_seconds(tracer, recorder=None, n: int = 120) -> float:
    """Host seconds for ``n`` serial distributed transactions."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1},
                                        keep_trace_events=False),
                           tracer=tracer)
    if recorder is not None:
        system.tracer.attach_obs(recorder)
    app = system.application("a")
    start = time.perf_counter()
    committed = system.run_process(
        serial_minimal_txns(app, system.default_services(), n),
        timeout_ms=600_000.0)
    elapsed = time.perf_counter() - start
    assert committed == n
    return elapsed


def test_tracing_overhead_floor():
    """Count-only span instrumentation must stay within 5% of untraced.

    The span hooks in the substrates are guarded by a single attribute
    test (``tracer.obs is not None``); with a count-only SpanRecorder
    attached every hook leaves right after its counter increment.
    Both legs run a
    NullTracer so the ratio bounds exactly the span layer, not the
    tracer's own pre-existing counting.

    Shared-container noise swamps single runs (the same workload
    drifts +-30% between batches), so each measurement block
    interleaves baseline/counted pairs and compares the minima —
    alternating makes both legs sample the same load epochs.  Noise
    only ever *inflates* a leg, so a block that lands under the
    ceiling is sound evidence the true ratio is under it; a block over
    the ceiling may just mean the counted leg never hit a quiet
    window, hence up to three blocks, keeping the best.
    """
    ratio = float("inf")
    for _block in range(3):
        baselines, counteds = [], []
        for _ in range(10):
            baselines.append(_txn_workload_seconds(NullTracer()))
            counteds.append(_txn_workload_seconds(
                NullTracer(), recorder=SpanRecorder(keep=False)))
        ratio = min(ratio, min(counteds) / min(baselines))
        if ratio <= 1.05:
            break
    emit(f"tracing overhead: count-only span layer {ratio:.3f}x over "
         f"untraced (ceiling 1.05x)")
    assert ratio <= 1.05, (
        f"count-only span instrumentation costs {ratio:.3f}x over an "
        f"untraced run; the layer must stay within 5% when spans are off")


def test_open_loop_events_per_transaction_ceiling():
    """A floor that guards work, not host speed: kernel events fired
    per committed transaction on ``perf``'s ``sim_openloop`` call.  The
    count repeats to the digit on any host (20,406 events, 45.3 on this
    tree; 20,418 while a deadline wait left its timer armed after the
    event won — six of the call's 37 granted lock waits lived long
    enough for theirs to fire; 79.4 per transaction while the disk
    manager's daemons polled and every IPC delivery took a second turn
    to wake its receiver), so the ceiling cannot flake,
    and an idle loop or an unpriced hop creeping back in trips it."""
    with SimProbes() as probes:
        result = run_open_loop(sites=24, rate_tps=300.0, txns=450, seed=1,
                               op="write", zipf_s=1.1, remote_fraction=0.15)
    fired = int(probes.counts()["events"])
    per_txn = fired / result.committed
    emit(f"open loop: {fired:,} kernel events for {result.committed} "
         f"transactions, {per_txn:.1f} per transaction (ceiling 46)")
    assert result.committed == 450 and per_txn <= 46


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

