"""Span recording: timed intervals with transaction and site identity.

A span is one timed occurrence of a primitive — an IPC delivery, a
datagram transit, a log force, a lock wait — tagged with the site it
charges and, when known, the transaction it serves.  Substrates emit
spans through the recorder attached to their :class:`~repro.sim.tracing.
Tracer` (``tracer.obs``); when no recorder is attached the hook is a
single attribute test, so instrumentation costs nothing in ordinary
runs.

Three recording shapes cover every call site:

- :meth:`SpanRecorder.add` for intervals whose duration is known at
  emission time (IPC latency, LAN arrival time are computed before the
  delivery is posted);
- :meth:`SpanRecorder.begin` / :meth:`SpanRecorder.end` bracketing
  generator-based work (a log force through the batcher);
- :meth:`SpanRecorder.instant` for point events (locks dropped).

``keep=False`` turns the recorder into a counter: per-kind span counts
stay exact, no Span objects are retained — the CLI's count-only mode,
whose overhead the benchmark gate bounds.
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
    """One recorded interval (``t1 is None`` while still open)."""

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


class SpanRecorder:
    """Collects spans, instants, and time-stamped gauge samples."""

    def __init__(self, keep: bool = True):
        self.keep = keep
        self.spans: List[Span] = []
        self.instants: List[Span] = []
        self.counters: Dict[str, int] = defaultdict(int)
        # gauge name -> [(time, value)], nondecreasing time
        self.gauges: Dict[str, List[Tuple[float, float]]] = defaultdict(list)
        self._open: Dict[int, Span] = {}
        self._next_sid = 0
        self.begun = 0
        self.ended = 0

    # ------------------------------------------------------ generic API

    def add(self, t0: float, t1: float, kind: str,
            site: Optional[str] = None, tid: Optional[Any] = None,
            **detail: Any) -> Optional[int]:
        """A span whose end time is already known.

        ``tid`` may be any object with a sensible ``str()`` (a TID, a
        message tid field); conversion happens here so hot call sites
        never pay for it in count-only mode.
        """
        self.counters[kind] += 1
        if not self.keep:
            return None
        if tid is not None and type(tid) is not str:
            tid = str(tid)
        sid = self._next_sid = self._next_sid + 1
        self.spans.append(Span(sid, kind, site, t0, t1, tid, detail))  # lint: bounded(kept only when keep=True; long runs count only)
        return sid

    def begin(self, time: float, kind: str, site: Optional[str] = None,
              tid: Optional[Any] = None, **detail: Any) -> Optional[int]:
        self.counters[kind] += 1
        self.begun += 1
        if not self.keep:
            return None
        if tid is not None and type(tid) is not str:
            tid = str(tid)
        sid = self._next_sid = self._next_sid + 1
        span = Span(sid, kind, site, time, None, tid, detail)
        self.spans.append(span)
        self._open[sid] = span
        return sid

    def end(self, sid: Optional[int], time: float) -> None:
        self.ended += 1
        if sid is None or not self.keep:
            return
        span = self._open.pop(sid, None)
        if span is not None:
            span.t1 = time

    def instant(self, time: float, kind: str, site: Optional[str] = None,
                tid: Optional[Any] = None, **detail: Any) -> None:
        self.counters[kind] += 1
        if self.keep:
            if tid is not None and type(tid) is not str:
                tid = str(tid)
            sid = self._next_sid = self._next_sid + 1
            self.instants.append(Span(sid, kind, site, time, time, tid,  # lint: bounded(kept only when keep=True; long runs count only)
                                      detail))

    def gauge(self, time: float, name: str, value: float) -> None:
        if self.keep:
            self.gauges[name].append((time, value))

    # ------------------------------------------ domain-specific helpers
    #
    # One-line hooks for the substrates, so the guarded call sites stay
    # small and tid extraction lives here, not in sim code.  They are
    # the hottest hooks, so a count-only recorder leaves before any
    # tid extraction or detail construction; the benchmark gate
    # (``test_span_hook_calls_per_transaction_ceiling``) bounds how many
    # of these calls a transaction makes.

    # One kind per flavour ``IpcFabric.latency_for`` prices; it raises
    # on any other before this hook runs.
    _IPC_KINDS = {"inline": "ipc.inline", "oneway": "ipc.oneway",
                  "outofline": "ipc.outofline", "immediate": "ipc.immediate"}

    def ipc(self, t0: float, t1: float, flavour: str, site: Optional[str],
            msg: Any) -> None:
        kind = self._IPC_KINDS[flavour]
        if not self.keep:
            self.counters[kind] += 1
            return
        self.add(t0, t1, kind, site=site, tid=tid_of(msg),
                 msg_kind=getattr(msg, "kind", None))

    def net(self, t0: float, t1: float, src: str, dst: str, payload: Any,
            rpc: bool = False, multicast: bool = False) -> None:
        if rpc:
            kind = "rpc.netmsg"
        elif multicast:
            kind = "net.multicast"
        else:
            kind = "net.datagram"
        if not self.keep:
            self.counters[kind] += 1
            return
        self.add(t0, t1, kind, site=src, tid=tid_of(payload), dst=dst,
                 msg_kind=type(payload).__name__)

    def begin_cpu(self, time: float, component: str, site: Optional[str],
                  msg: Any = None) -> Optional[int]:
        if not self.keep:
            self.counters["cpu.service"] += 1
            self.begun += 1
            return None
        return self.begin(time, "cpu.service", site=site,
                          tid=tid_of(msg) if msg is not None else None,
                          component=component,
                          msg_kind=getattr(msg, "kind", None))

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
