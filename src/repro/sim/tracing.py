"""Structured tracing and counting for experiments.

The benchmark harness needs to count primitives on the critical path —
log forces per transaction, datagrams per commit, RPCs — exactly the
accounting the paper does by hand in its Table 3.  Subsystems report
events to a :class:`Tracer`; experiments read counters and the raw trace.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass(frozen=True)
class TraceEvent:
    """One traced occurrence.

    ``kind`` is a dotted category such as ``"log.force"`` or
    ``"net.datagram"``; ``detail`` carries free-form context (tid, sizes).
    """

    time: float
    kind: str
    site: Optional[str] = None
    detail: Dict[str, Any] = field(default_factory=dict)


class Tracer:
    """Collects :class:`TraceEvent` records and per-kind counters.

    Recording the full event list can be switched off for long throughput
    runs (counters stay on); this keeps memory bounded.
    """

    def __init__(self, keep_events: bool = True):
        self.keep_events = keep_events
        self.events: List[TraceEvent] = []
        self.counters: Dict[str, int] = defaultdict(int)
        # Optional span-recorder sink (see repro.obs.spans).  Substrates
        # guard every span hook with ``tracer.obs is not None`` so the
        # disabled case costs one attribute load; the tracer itself never
        # imports or calls into repro.obs.
        self.obs: Optional[Any] = None

    def record(self, time: float, kind: str, site: Optional[str] = None,
               **detail: Any) -> None:
        """Count (and optionally store) one event."""
        self.counters[kind] += 1
        if self.keep_events:
            self.events.append(TraceEvent(time=time, kind=kind, site=site, detail=detail))  # lint: bounded(kept only when keep_events=True; long runs count only)

    def count(self, kind: str) -> int:
        return self.counters.get(kind, 0)

    def count_prefix(self, prefix: str) -> int:
        """Sum of counters whose kind starts with ``prefix``."""
        return sum(v for k, v in self.counters.items() if k.startswith(prefix))

    def attach_obs(self, recorder: Optional[Any]) -> None:
        """Install (or, with None, remove) a span-recorder sink."""
        self.obs = recorder

    def of_kind(self, kind: str) -> List[TraceEvent]:
        return [e for e in self.events if e.kind == kind]

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


class NullTracer(Tracer):
    """A tracer that drops everything; handy default for unit tests."""

    def __init__(self) -> None:
        super().__init__(keep_events=False)

    def record(self, time: float, kind: str, site: Optional[str] = None,
               **detail: Any) -> None:
        """Count nothing, store nothing."""
