"""Critical-path extraction: where did a transaction's latency go?

The paper's Table 3 answers this *statically*: each protocol's
completion time is a hand-written sum of primitive costs.  This module
answers it *dynamically*.  Given a committed transaction's recorded
spans, it reconstructs the blocking chain — the sequence of primitive
occurrences such that at every instant of the transaction's lifetime,
either exactly one chain segment is "the thing being waited on" or the
instant is unattributed — and buckets the chain by primitive class.

Algorithm (backward greedy walk):

1. Decompose each span into *self segments* — the span's interval minus
   any same-site spans of the same transaction nested inside it — so a
   parent never double-counts a child's time.
2. Walk backward from the transaction's end.  At each cursor position
   pick the segment still active latest before the cursor (max effective
   end, earliest start on ties), attribute ``[t0, effective end]`` to
   it, and jump the cursor to its start.  Where no segment reaches the
   cursor, the distance to the next one is recorded as an unattributed
   gap (CPU consumed by processes the instrumentation doesn't tag with
   this tid — e.g. ComMan service legs).

By construction ``sum(chain) + gaps == wall`` exactly, which is the
balance invariant the CI smoke job asserts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.obs.kinds import ENVELOPE, PRIMITIVE_CLASSES, classify
from repro.obs.spans import Span

_EPS = 1e-9


@dataclass
class _Segment:
    t0: float
    t1: float
    span: Span


@dataclass
class ChainLink:
    """One hop of the blocking chain."""

    t0: float
    t1: float
    span: Span

    @property
    def duration(self) -> float:
        return self.t1 - self.t0

    @property
    def cls(self) -> str:
        return classify(self.span.kind)


@dataclass
class CriticalPath:
    """The blocking chain of one transaction, plus its class breakdown."""

    tid: str
    t_start: float
    t_end: float
    links: List[ChainLink] = field(default_factory=list)
    gap_ms: float = 0.0

    @property
    def wall_ms(self) -> float:
        return self.t_end - self.t_start

    @property
    def attributed_ms(self) -> float:
        return sum(link.duration for link in self.links)

    def buckets(self) -> Dict[str, float]:
        """Milliseconds on the chain per primitive class."""
        out: Dict[str, float] = {cls: 0.0 for cls in PRIMITIVE_CLASSES}
        for link in self.links:
            out[link.cls] = out.get(link.cls, 0.0) + link.duration
        return out

    def counts(self) -> Dict[str, int]:
        """Distinct spans on the chain per primitive class.

        Distinct, not per-link: a span split around a nested child still
        counts as one occurrence of its primitive, which is what the
        paper's "2 forces / 3 messages" style counts mean.
        """
        seen: Dict[str, set] = {}
        for link in self.links:
            seen.setdefault(link.cls, set()).add(link.span.sid)
        return {cls: len(sids) for cls, sids in seen.items()}

    def static_comparable_ms(self) -> float:
        """Chain time in the classes the static formulas also count.

        Every attributed class counts, CPU included — the paper's
        primitive constants are wall-clock figures that fold handler
        CPU in (see ``kinds.PRIMITIVE_CLASSES``); only unattributed
        gaps stay out.
        """
        buckets = self.buckets()
        return sum(buckets.get(cls, 0.0) for cls in PRIMITIVE_CLASSES)


def _self_segments(spans: Sequence[Span]) -> List[_Segment]:
    segments: List[_Segment] = []
    for span in spans:
        nested = sorted(
            (c.t0, c.t1) for c in spans
            if c is not span and c.site == span.site
            and span.t0 - _EPS <= c.t0 and c.t1 <= span.t1 + _EPS
            and (c.t1 - c.t0) < (span.t1 - span.t0) - _EPS)
        cursor = span.t0
        for c0, c1 in nested:
            if c0 > cursor + _EPS:
                segments.append(_Segment(cursor, c0, span))
            cursor = max(cursor, c1)
        if span.t1 > cursor + _EPS:
            segments.append(_Segment(cursor, span.t1, span))
    return segments


def extract(spans: Sequence[Span], tid: str, t_start: float,
            t_end: float) -> CriticalPath:
    """Blocking chain for ``tid`` over the window ``[t_start, t_end]``."""
    usable = [s for s in spans
              if s.tid == tid and s.closed and s.t1 > s.t0 + _EPS
              and classify(s.kind) != ENVELOPE]
    segments = _self_segments(usable)

    path = CriticalPath(tid=tid, t_start=t_start, t_end=t_end)
    cursor = t_end
    while cursor > t_start + _EPS:
        best: Optional[_Segment] = None
        best_eff = t_start
        for seg in segments:
            if seg.t0 >= cursor - _EPS:
                continue
            # So eff > seg.t0 + _EPS: every segment outlasts _EPS.
            eff = min(seg.t1, cursor)
            if best is None or eff > best_eff + _EPS \
                    or (abs(eff - best_eff) <= _EPS and seg.t0 < best.t0):
                best, best_eff = seg, eff
        if best is None:
            path.gap_ms += cursor - t_start
            break
        if best_eff < cursor - _EPS:
            path.gap_ms += cursor - best_eff
        link_t0 = max(best.t0, t_start)
        path.links.append(ChainLink(link_t0, best_eff, best.span))
        segments.remove(best)
        cursor = link_t0
    path.links.reverse()
    return path


def extract_for_tid(recorder, tid: str,
                    envelope: str = "txn") -> Optional[CriticalPath]:
    """Critical path bounded by the transaction's recorded envelope span.

    ``envelope`` picks the window: ``"txn"`` (begin to completion, what
    Table 3's completion formulas cover) or ``"txn.commit"`` (the
    commit-protocol phase only).
    """
    spans = recorder.for_tid(tid)
    bounds = [s for s in spans if s.kind == envelope and s.closed]
    if not bounds:
        return None
    env = bounds[0]
    return extract(spans, tid, env.t0, env.t1)
