"""Structured tracing and counting for experiments.

The benchmark harness needs to count primitives on the critical path —
log forces per transaction, datagrams per commit, RPCs — exactly the
accounting the paper does by hand in its Table 3.  Subsystems report
to one :class:`Tracer` per system; experiments read its counters and
the instants it keeps.

A :class:`Tracer` plays two roles.  A system's tracer counts every
:meth:`~Tracer.record` and, with ``keep``, keeps each as an instant (a
:class:`Span` with ``t0 == t1``).  The span hooks — ``add``, ``begin`` /
``end``, ``instant``, ``gauge`` and the domain hooks ``ipc``, ``net``,
``begin_cpu`` and ``begin_group_commit`` — write into the sink attached
with :meth:`~Tracer.attach_obs` (a second instance, which ``repro.obs``
reads) and return at once when there is none, so a substrate makes
every recording with one unguarded call.  ``ipc``, ``instant`` and
``begin_group_commit`` are one fact each: they count in this recorder
too.  A sink with ``keep=False`` counts span kinds exactly and retains
nothing — the CLI's count-only mode.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any, Dict, List, Optional, Tuple


def tid_of(obj: Any) -> Optional[str]:
    """Best-effort transaction id of a message-shaped object.

    Handles protocol messages (``.tid``) and Mach messages (``body``/
    ``trans`` dicts) without importing any of their classes.
    """
    tid = getattr(obj, "tid", None)
    if tid is not None:
        return str(tid)
    body = getattr(obj, "body", None)
    if isinstance(body, dict):
        tid = body.get("tid")
        if tid is not None:
            return str(tid)
    trans = getattr(obj, "trans", None)
    if isinstance(trans, dict):
        tid = trans.get("tid")
        if tid is not None:
            return str(tid)
    return None


class Span:
    """One recorded interval (``t1 is None`` while still open); an
    instant has ``t0 == t1``."""

    __slots__ = ("sid", "kind", "site", "t0", "t1", "tid", "detail")

    def __init__(self, sid: int, kind: str, site: Optional[str],
                 t0: float, t1: Optional[float], tid: Optional[str],
                 detail: Dict[str, Any]):
        self.sid = sid
        self.kind = kind
        self.site = site
        self.t0 = t0
        self.t1 = t1
        self.tid = tid
        self.detail = detail

    @property
    def duration(self) -> float:
        return 0.0 if self.t1 is None else self.t1 - self.t0

    @property
    def closed(self) -> bool:
        return self.t1 is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        end = f"{self.t1:.2f}" if self.t1 is not None else "…"
        return (f"<Span #{self.sid} {self.kind} {self.site} "
                f"[{self.t0:.2f},{end}] tid={self.tid}>")


# One kind per flavour ``IpcFabric.latency_for`` prices; it raises on
# any other before ``Tracer.ipc`` runs.
_IPC_KINDS = {"inline": "ipc.inline", "oneway": "ipc.oneway",
              "outofline": "ipc.outofline", "immediate": "ipc.immediate"}


class Tracer:
    """Per-kind counters, kept instants and spans, gauge samples.

    ``keep=False`` counts only, which keeps long runs' memory bounded.
    A hook leaves right after its counter increment in a count-only
    sink, before any tid extraction or detail construction; the
    benchmark gate (``test_span_hook_calls_per_transaction_ceiling``)
    bounds how many hook calls a transaction makes.
    """

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.counters: Dict[str, int] = defaultdict(int)
        self.instants: List[Span] = []
        self.spans: List[Span] = []
        # gauge name -> [(time, value)], nondecreasing time
        self.gauges: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self.begun = 0
        self.ended = 0
        # The span sink; the tracer itself never imports repro.obs.
        self.obs: Optional[Tracer] = None
        self._open: Dict[int, Span] = {}
        self._next_sid = 0

    def _span(self, kind: str, site: Optional[str], t0: float,
              t1: Optional[float], tid: Any, detail: Dict[str, Any]) -> Span:
        # ``tid`` may be a TID or a message's tid field: it is turned
        # into a string here, so unkept recordings never pay for it.
        if tid is not None and type(tid) is not str:
            tid = str(tid)
        sid = self._next_sid = self._next_sid + 1
        return Span(sid, kind, site, t0, t1, tid, detail)

    # ------------------------------------------------- system counters

    def record(self, time: float, kind: str, site: Optional[str] = None,
               tid: Any = None, **detail: Any) -> None:
        """Count (and with ``keep``, keep) one instant; never the sink's."""
        self.counters[kind] += 1
        if self.keep:
            self.instants.append(self._span(kind, site, time, time, tid, detail))  # lint: bounded(kept only when keep=True; long runs count only)

    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counters whose kind starts with ``prefix``."""
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def attach_obs(self, recorder: Optional[Tracer]) -> None:
        """Install (or, with None, remove) the span sink."""
        self.obs = recorder

    def of_kind(self, kind: str) -> List[Span]:
        return [e for e in self.instants if e.kind == kind]

    def snapshot(self) -> Dict[str, int]:
        """Copy of the counters; subtract two snapshots to scope a window."""
        return dict(self.counters)

    @staticmethod
    def delta(before: Dict[str, int], after: Dict[str, int]) -> Dict[str, int]:
        """Per-kind difference ``after - before`` (kinds at zero omitted)."""
        out: Dict[str, int] = {}
        for kind, value in after.items():
            diff = value - before.get(kind, 0)
            if diff:
                out[kind] = diff
        return out

    # ------------------------------------------------------ span hooks

    def add(self, t0: float, t1: float, kind: str,
            site: Optional[str] = None, tid: Any = None,
            **detail: Any) -> Optional[int]:
        """A span whose end time is already known."""
        obs = self.obs
        if obs is None:
            return None
        obs.counters[kind] += 1
        if not obs.keep:
            return None
        span = obs._span(kind, site, t0, t1, tid, detail)
        obs.spans.append(span)  # lint: bounded(kept only when keep=True; long runs count only)
        return span.sid

    def begin(self, time: float, kind: str, site: Optional[str] = None,
              tid: Any = None, **detail: Any) -> Optional[int]:
        obs = self.obs
        if obs is None:
            return None
        obs.counters[kind] += 1
        obs.begun += 1
        if not obs.keep:
            return None
        span = obs._span(kind, site, time, None, tid, detail)
        obs.spans.append(span)  # lint: bounded(kept only when keep=True; long runs count only)
        obs._open[span.sid] = span
        return span.sid

    def end(self, sid: Optional[int], time: float) -> None:
        obs = self.obs
        if obs is None:
            return
        obs.ended += 1
        if sid is not None:
            span = obs._open.pop(sid, None)
            if span is not None:
                span.t1 = time

    def instant(self, time: float, kind: str, site: Optional[str] = None,
                tid: Any = None, **detail: Any) -> None:
        """A point event: recorded here and forwarded to the sink."""
        self.counters[kind] += 1
        if self.keep:
            self.instants.append(self._span(kind, site, time, time, tid, detail))  # lint: bounded(kept only when keep=True; long runs count only)
        obs = self.obs
        if obs is None:
            return
        obs.counters[kind] += 1
        if obs.keep:
            obs.instants.append(obs._span(kind, site, time, time, tid, detail))  # lint: bounded(kept only when keep=True; long runs count only)

    def gauge(self, time: float, name: str, value: float) -> None:
        obs = self.obs
        if obs is not None and obs.keep:
            obs.gauges[name].append((time, value))  # lint: bounded(kept only when keep=True; long runs count only)

    def ipc(self, t0: float, t1: float, flavour: str, site: Optional[str],
            msg: Any) -> None:
        """One IPC leg: recorded here, its latency a span in the sink."""
        kind = _IPC_KINDS[flavour]
        self.counters[kind] += 1
        if self.keep:
            self.instants.append(self._span(kind, site, t0, t0, None, {"kind_of": msg.kind}))  # lint: bounded(kept only when keep=True; long runs count only)
        obs = self.obs
        if obs is None:
            return
        obs.counters[kind] += 1
        if obs.keep:
            obs.spans.append(obs._span(kind, site, t0, t1, tid_of(msg), {"msg_kind": getattr(msg, "kind", None)}))  # lint: bounded(kept only when keep=True; long runs count only)

    def net(self, t0: float, t1: float, src: str, dst: str, payload: Any,
            in_flight: int, rpc: bool = False,
            multicast: bool = False) -> Optional[int]:
        """One datagram's transit, and the LAN occupancy its send left;
        the kept span's id, so the arrival can sample the occupancy it
        leaves."""
        obs = self.obs
        if obs is None:
            return None
        if rpc:
            kind = "rpc.netmsg"
        elif multicast:
            kind = "net.multicast"
        else:
            kind = "net.datagram"
        obs.counters[kind] += 1
        if not obs.keep:
            return None
        obs.gauges["lan.in_flight"].append((t0, in_flight))  # lint: bounded(kept only when keep=True; long runs count only)
        span = obs._span(kind, src, t0, t1, tid_of(payload),
                         {"dst": dst, "msg_kind": type(payload).__name__})
        obs.spans.append(span)  # lint: bounded(kept only when keep=True; long runs count only)
        return span.sid

    def begin_cpu(self, time: float, component: str, site: Optional[str],
                  msg: Any = None, cpu: Any = None) -> Optional[int]:
        """A service's CPU burst; ``cpu``, when given, is the scheduler
        whose run-queue depth a keeping sink samples as it begins."""
        obs = self.obs
        if obs is None:
            return None
        obs.counters["cpu.service"] += 1
        obs.begun += 1
        if not obs.keep:
            return None
        if cpu is not None:
            obs.gauges[f"cpu.queue_depth.{site}"].append((time, cpu.queue_depth))  # lint: bounded(kept only when keep=True; long runs count only)
        span = obs._span("cpu.service", site, time, None,
                         tid_of(msg) if msg is not None else None,
                         {"component": component,
                          "msg_kind": getattr(msg, "kind", None)})
        obs.spans.append(span)  # lint: bounded(kept only when keep=True; long runs count only)
        obs._open[span.sid] = span
        return span.sid

    def begin_group_commit(self, time: float, site: Optional[str],
                           batch: int, lsn: int) -> Optional[int]:
        """A group-commit round: recorded here, its force a span in the
        sink."""
        self.record(time, "log.group_commit", site, batch=batch, lsn=lsn)
        return self.begin(time, "log.group_commit", site, batch=batch)

    # ----------------------------------------------------- consistency

    @property
    def balanced(self) -> bool:
        """Every begun span was ended (no dangling begin/end pairs)."""
        return self.begun == self.ended and not self._open

    # --------------------------------------------------------- queries

    def all_spans(self) -> List[Span]:
        return self.spans + self.instants

    def for_tid(self, tid: str) -> List[Span]:
        return [s for s in self.all_spans() if s.tid == tid]


class _Dropped(Dict[str, int]):
    """A counter table that keeps nothing."""

    def __missing__(self, kind: str) -> int:
        return 0

    def __setitem__(self, kind: str, value: int) -> None:
        pass


def NullTracer() -> Tracer:
    """A tracer that drops everything; handy default for unit tests."""
    tracer = Tracer(keep=False)
    tracer.counters = _Dropped()
    return tracer
