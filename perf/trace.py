"""The traced run: where the host time of one op goes, layer by layer.

Three instruments, all installed from here and removed afterwards —
nothing under ``src/`` is edited or imports this module:

- :class:`LayerProfile` — the interpreter's C profiler hook
  (``cProfile``), switched on for exactly the workloads' timed regions.
  Every function's *self* time and call count is credited to the layer
  its file belongs to (:func:`layer_of`); generator resumes count as
  calls.  A Python-level ``sys.setprofile`` hook would give the same
  table at 3-5x the distortion.
- :class:`SimProbes` — remembers every ``CamelotSystem`` built while it
  is active, hangs a counting ``Kernel.monitor`` on each, and afterwards
  reads the systems' public counters (exact, seed-determined).
- :class:`LiveProbes` — wraps ``FileWal.append``/``force``, the frame
  encoder, ``FrameDecoder.feed``, ``SiteHost.deliver`` and
  ``begin_commit`` and records a span per call: name, start, end,
  parent span, self time, and the TID or size where known.

End-to-end metrics are never taken from a traced phase.
"""

from __future__ import annotations

import cProfile
import os
import sysconfig
import time
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

import repro
import repro.live.site as live_site
from repro.live.codec import FrameDecoder
from repro.live.host import SiteHost
from repro.live.walfile import FileWal
from repro.system import CamelotSystem

import perf
from perf.catalogue import LAYERS, REPRO_LAYERS
from perf.micro import run_micro
from perf.runner import (Measurement, describe, host_warnings, measure,
                         result)
from perf.stats import quantile
from perf.workloads import LIVE_FAMILIES, LiveWorkload, Workload

UNASSIGNED = "unassigned"

_REPRO_DIR = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep
_PERF_DIR = os.path.dirname(os.path.abspath(perf.__file__)) + os.sep
_STDLIB_DIRS = tuple(
    os.path.abspath(sysconfig.get_paths()[key]) + os.sep
    for key in ("stdlib", "platstdlib"))
_ASYNCIO_DIR = os.path.join(_STDLIB_DIRS[0], "asyncio") + os.sep
_ASYNCIO_BUILTINS = ("_asyncio.", "select.epoll", "_socket.socket",
                     "_contextvars.Context")
_IDLE_BUILTIN = "<method 'poll' of 'select.epoll' objects>"


def layer_of(code: Any) -> str:
    """The layer a profiler entry's code belongs to.

    ``code`` is a code object, or for C functions the string cProfile
    names them by.  ``select.epoll.poll`` — the loop waiting for the
    kernel to move a loopback frame — counts as ``asyncio``; its share
    of the wall is reported apart as ``live.loop_idle_share``.
    """
    if isinstance(code, str):
        if "posix.fsync" in code:
            return "fsync"
        if any(mark in code for mark in _ASYNCIO_BUILTINS):
            return "asyncio"
        return "builtins"
    filename = code.co_filename
    if filename.startswith(_REPRO_DIR):
        package = filename[len(_REPRO_DIR):].split(os.sep, 1)[0]
        return package if package in REPRO_LAYERS else "bench"
    if filename.startswith(_PERF_DIR):
        return "driver"
    if filename.startswith(_ASYNCIO_DIR):
        return "asyncio"
    if filename.startswith(_STDLIB_DIRS) or filename.startswith("<frozen "):
        return "stdlib"
    return UNASSIGNED


class LayerProfile:
    """cProfile, started and stopped around timed regions."""

    def __init__(self) -> None:
        self._profile = cProfile.Profile()
        self.wall_s = 0.0
        self._started = 0.0

    def start(self) -> None:
        self._started = time.perf_counter()
        self._profile.enable()

    def stop(self) -> None:
        self._profile.disable()
        self.wall_s += time.perf_counter() - self._started

    def table(self) -> Dict[str, Tuple[float, int]]:
        """layer -> (self seconds, calls); ``idle`` is the epoll wait.

        Code with no file of its own — the ``__init__``/``__eq__`` that
        ``dataclasses`` compiles from a string — is credited to the
        layer of whoever called it.
        """
        table = {layer: [0.0, 0] for layer in LAYERS + (UNASSIGNED, "idle")}
        for entry in self._profile.getstats():
            layer = layer_of(entry.code)
            table[layer][0] += entry.inlinetime
            table[layer][1] += entry.callcount
            if entry.code == _IDLE_BUILTIN:
                table["idle"] = [entry.inlinetime, entry.callcount]
            if layer == UNASSIGNED:
                continue
            for callee in entry.calls or ():
                if layer_of(callee.code) == UNASSIGNED:
                    table[layer][0] += callee.inlinetime
                    table[layer][1] += callee.callcount
                    table[UNASSIGNED][0] -= callee.inlinetime
                    table[UNASSIGNED][1] -= callee.callcount
        return {layer: (seconds, calls)
                for layer, (seconds, calls) in table.items()}


# ------------------------------------------------------------ simulator


class _CountingMonitor:
    """``Kernel.monitor``: events dispatched and the deepest queue."""

    def __init__(self, kernel: Any):
        self.kernel = kernel
        self.events = 0
        self.peak_pending = 0

    def on_schedule(self, seq: int) -> None:
        pending = self.kernel.pending
        if pending > self.peak_pending:
            self.peak_pending = pending

    def before_fire(self, time_: float, seq: int, fn: Any, args: Any) -> None:
        self.events += 1


class SimProbes:
    """Context manager: capture systems built inside, count their work."""

    def __init__(self) -> None:
        self.systems: List[CamelotSystem] = []
        self._monitors: List[_CountingMonitor] = []
        self._original: Optional[Callable[..., None]] = None

    def __enter__(self) -> "SimProbes":
        original = self._original = CamelotSystem.__init__
        probes = self

        def capturing_init(system: CamelotSystem, *args: Any,
                           **kwargs: Any) -> None:
            original(system, *args, **kwargs)
            monitor = _CountingMonitor(system.kernel)
            system.kernel.monitor = monitor
            probes.systems.append(system)
            probes._monitors.append(monitor)

        CamelotSystem.__init__ = capturing_init  # type: ignore[method-assign]
        return self

    def __exit__(self, *exc: Any) -> None:
        CamelotSystem.__init__ = self._original  # type: ignore[method-assign]

    def counts(self) -> Dict[str, float]:
        """Sums of the captured systems' public counters."""
        out = {"events": float(sum(m.events for m in self._monitors)),
               "peak_pending": float(max(
                   (m.peak_pending for m in self._monitors), default=0)),
               "forces": 0.0, "appends": 0.0, "datagrams": 0.0, "ipc": 0.0,
               "lock_waits": 0.0, "spans": 0.0}
        for system in self.systems:
            for runtime in system.runtimes.values():
                out["forces"] += runtime.diskman.wal.forces
                out["appends"] += runtime.diskman.wal.appends
                out["lock_waits"] += sum(server.locks.waits for server
                                         in runtime.servers.values())
            out["datagrams"] += system.lan.delivered
            out["ipc"] += system.tracer.count_prefix("ipc.")
            recorder = system.tracer.obs
            if recorder is not None:
                out["spans"] += sum(recorder.counters.values())
        return out


# ----------------------------------------------------------------- live

class Span(NamedTuple):
    name: str
    started: float
    ended: float
    parent: int      # index into LiveProbes.spans, -1 at the top
    self_s: float    # duration minus the spans nested directly inside
    detail: Any      # TID, bytes or records, whichever the boundary has


class LiveProbes:
    """Context manager: a span per call at the live layer boundaries."""

    def __init__(self) -> None:
        self.spans: List[Optional[Span]] = []
        # Open spans: [index reserved in self.spans, child seconds].
        self._stack: List[List[Any]] = []
        self._restore: List[Tuple[Any, str, Any]] = []

    def _wrap(self, owner: Any, attr: str, name: str,
              detail: Optional[Callable[[Any, Tuple[Any, ...], Any], Any]]
              = None,
              before: Optional[Callable[[Tuple[Any, ...]], Any]] = None
              ) -> None:
        """Replace ``owner.attr`` by a version that records a span per
        call.  ``before(args)`` may note something ahead of the call;
        ``detail(noted, args, value)`` turns it into the span's detail."""
        original = getattr(owner, attr)
        spans, stack = self.spans, self._stack

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = len(spans)
            spans.append(None)  # filled in on return; stays None on raise
            parent = stack[-1][0] if stack else -1
            frame = [index, 0.0]
            stack.append(frame)
            noted = before(args) if before is not None else None
            started = time.perf_counter()
            try:
                value = original(*args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += ended - started
            spans[index] = Span(
                name, started, ended, parent, ended - started - frame[1],
                detail(noted, args, value) if detail is not None else None)
            return value

        self._restore.append((owner, attr, original))
        setattr(owner, attr, traced)

    def __enter__(self) -> "LiveProbes":
        self._wrap(FileWal, "append", "wal.append")
        # detail: records this force made durable (0 = nothing to write)
        self._wrap(FileWal, "force", "wal.force",
                   before=lambda args: args[0].durable_lsn,
                   detail=lambda noted, args, value:
                   args[0].durable_lsn - noted)
        # site.py binds the encoder by name at import, so that binding
        # is the one to wrap.  detail: frame bytes / frames decoded.
        self._wrap(live_site, "encode_message_frame", "codec.encode",
                   detail=lambda noted, args, value: len(value))
        self._wrap(FrameDecoder, "feed", "codec.decode",
                   detail=lambda noted, args, value: len(value))
        # detail: the TID the call is about
        self._wrap(SiteHost, "deliver", "host.deliver",
                   detail=lambda noted, args, value:
                   getattr(args[2], "tid", None))
        self._wrap(SiteHost, "begin_commit", "host.begin_commit",
                   detail=lambda noted, args, value: value)
        return self

    def __exit__(self, *exc: Any) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans
                if span is not None and span.name == name]


# ------------------------------------------------------------ the run


def _percentile_or_zero(values: List[float], q: float) -> float:
    return quantile(values, q) if values else 0.0


def layer_metrics(profile: LayerProfile, ops: float,
                  host_speed: float) -> Dict[str, float]:
    """The layer table, self times restated at reference host speed
    like every other time here."""
    table = profile.table()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        seconds, calls = table[layer]
        metrics[f"{layer}.self_us_per_op"] = \
            seconds * host_speed * 1e6 / ops
        metrics[f"{layer}.calls_per_op"] = calls / ops
    accounted = sum(table[layer][0] for layer in LAYERS)
    unassigned = table[UNASSIGNED][0]
    metrics["trace.coverage"] = accounted / profile.wall_s
    # max(): re-crediting callees leaves float dust around zero
    metrics["trace.unassigned_share"] = max(
        0.0, unassigned / (accounted + unassigned))
    metrics["live.loop_idle_share"] = table["idle"][0] / profile.wall_s
    return metrics


def sim_metrics(probes: SimProbes, ops: float) -> Dict[str, float]:
    counts = probes.counts()
    return {
        "sim.events_per_op": counts["events"] / ops,
        "sim.peak_pending": counts["peak_pending"],
        "log.forces_per_op": counts["forces"] / ops,
        "log.appends_per_op": counts["appends"] / ops,
        "net.datagrams_per_op": counts["datagrams"] / ops,
        "mach.ipc_per_op": counts["ipc"] / ops,
        "servers.lock_waits_per_op": counts["lock_waits"] / ops,
        "obs.spans_counted_per_op": counts["spans"] / ops,
    }


def live_metrics(probes: LiveProbes, traced: Measurement,
                 ops: float) -> Dict[str, float]:
    # A force that found nothing to write (an idle sweep) is not one.
    forces = [span for span in probes.named("wal.force") if span.detail]
    force_ms = [(span.ended - span.started) * 1000.0 for span in forces]
    frames = probes.named("codec.encode")
    deliver_us = [span.self_s * 1e6 for span in probes.named("host.deliver")]
    return {
        "live.forces_per_commit": len(forces) / ops,
        "live.records_per_force":
            sum(span.detail for span in forces) / len(forces)
            if forces else 0.0,
        "live.force_ms_p50": _percentile_or_zero(force_ms, 0.5),
        "live.force_ms_p95": _percentile_or_zero(force_ms, 0.95),
        "live.frames_per_commit": len(frames) / ops,
        "live.bytes_per_commit": sum(span.detail for span in frames) / ops,
        "live.deliver_us_p50": _percentile_or_zero(deliver_us, 0.5),
        "live.duplicates_per_commit": traced.count("duplicates") / ops,
    }


def driver_metrics(untraced: Measurement) -> Dict[str, float]:
    pooled = untraced.latencies()
    metrics = {
        "driver.commit_p50_ms": _percentile_or_zero(pooled, 0.5),
        "driver.commit_p95_ms": _percentile_or_zero(pooled, 0.95),
        "driver.commit_p99_ms": _percentile_or_zero(pooled, 0.99),
        "driver.rounds": float(len(untraced.rounds)),
        "driver.windows": float(untraced.windows),
        "driver.window_spread": untraced.window_spread,
    }
    for family in LIVE_FAMILIES:
        metrics[f"driver.commit_p50_ms.{family}"] = _percentile_or_zero(
            untraced.latencies(family), 0.5)
    return metrics


# Shares of ``--seconds``: an untraced baseline (overhead ratio, latency
# percentiles), the traced rounds, and the microbenchmarks.
UNTRACED_SHARE, TRACED_SHARE, MICRO_SHARE = 0.3, 0.35, 0.35


def per_layer(workload: Workload, seconds: float,
              max_rounds: Optional[int] = None) -> Dict[str, Any]:
    """The ``--trace 1`` run: every per-layer metric."""
    for warning in host_warnings(workload):
        print(f"warning: {warning}")
    untraced = measure(workload, seconds * UNTRACED_SHARE, max_rounds)
    describe(workload, untraced)

    profile = LayerProfile()
    workload.tracer = profile
    try:
        with SimProbes() as sim_probes, LiveProbes() as live_probes:
            traced = measure(workload, seconds * TRACED_SHARE, max_rounds,
                             warm_up=False)
    finally:
        workload.tracer = None
    # Per-op figures of a run in which nothing committed mean nothing;
    # dividing by 1 keeps them finite and ``correct`` is false anyway.
    ops = float(traced.committed) or 1.0

    metrics = layer_metrics(profile, ops, traced.host_speed)
    metrics["trace.overhead_ratio"] = (
        traced.s_per_op / untraced.s_per_op if untraced.s_per_op else 0.0)
    metrics.update(sim_metrics(sim_probes, ops))
    metrics.update(live_metrics(live_probes, traced, ops))
    metrics.update(driver_metrics(untraced))
    metrics.update(run_micro(seconds * MICRO_SHARE, workload.seed))

    if metrics["trace.coverage"] < 0.95:
        print(f"warning: trace.coverage {metrics['trace.coverage']:.3f} "
              "is below 0.95")
    if isinstance(workload, LiveWorkload) \
            and metrics["live.fsync_ms_p50"] < 0.05:
        print(f"warning: live.fsync_ms_p50 is "
              f"{metrics['live.fsync_ms_p50']:.3f} ms: this is a "
              "sandbox's fsync, not a device's")
    return result(Measurement(untraced.rounds + traced.rounds), metrics)
