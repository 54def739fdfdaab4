"""ASCII timelines: render a transaction's life from the trace.

The paper's Figure 1 walks through the eleven events of a simple
transaction; this module regenerates that view for *any* traced run —
one column per site, one row per interesting event, datagram arrows
between columns.  Used by ``examples/trace_timeline.py`` and handy when
debugging protocol changes.

Input is a :class:`~repro.sim.tracing.Tracer` that kept its events.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.sim.tracing import Tracer

# Trace kinds worth a timeline row, and how to describe them.
TIMELINE_DESCRIPTIONS: Dict[str, Callable] = {
    "tranman.begin": lambda e: f"begin {e.detail.get('tid', '')}",
    "tranman.join": lambda e: f"join {e.detail.get('server', '')}",
    "tranman.commit_call": lambda e: "commit-transaction "
        f"({e.detail.get('protocol', '')}, {e.detail.get('subs', 0)} subs)",
    "tranman.local_prepared": lambda e: f"local vote: {e.detail.get('vote')}",
    "diskman.force": lambda e: "log force",
    "log.group_commit": lambda e: f"group commit x{e.detail.get('batch')}",
    "tranman.complete": lambda e: f"COMPLETE: {e.detail.get('outcome')}",
    "server.abort": lambda e: "undo + release locks",
    "server.drop_locks": lambda e: "drop locks",
    "nb.commit_point": lambda e: "COMMIT POINT (quorum formed)",
    "nb.takeover": lambda e: "timeout -> becoming coordinator",
    "nb.takeover_decided": lambda e: f"takeover decided: "
        f"{e.detail.get('outcome')}",
    "2pc.blocked_inquiry": lambda e: "blocked: inquiring",
    "2pc.heuristic_resolve": lambda e: "HEURISTIC "
        f"{e.detail.get('outcome')}",
    "2pc.heuristic_damage": lambda e: "!! heuristic damage",
    "fail.crash": lambda e: "**CRASH**",
    "fail.restart": lambda e: "**RESTART**",
    "recovery.plan": lambda e: f"recovery: {e.detail.get('in_doubt')} "
        "in doubt",
    "tranman.orphan_abort": lambda e: "orphan abort",
}

# Trace kinds rendered as inter-site arrows in the timeline.
ARROW_KINDS: Tuple[str, ...] = ("tranman.datagram", "tranman.multicast")


@dataclass
class TimelineRow:
    time: float
    site: Optional[str]
    text: str
    arrow_to: Optional[str] = None


def extract_rows(tracer: Tracer, t0: float = 0.0,
                 t1: Optional[float] = None,
                 tid: Optional[str] = None) -> List[TimelineRow]:
    """Pull timeline-worthy rows out of a tracer's events."""
    rows: List[TimelineRow] = []
    for event in tracer.events:
        if event.time < t0 or (t1 is not None and event.time > t1):
            continue
        if tid is not None:
            event_tid = event.detail.get("tid")
            if event_tid is not None and event_tid != tid:
                continue
        if event.kind in ARROW_KINDS:
            kind_of = event.detail.get("kind_of", "datagram")
            dst = event.detail.get("dst")
            rows.append(TimelineRow(event.time, event.site,
                                    f"--{kind_of}-->", arrow_to=dst))
        elif event.kind in TIMELINE_DESCRIPTIONS:
            rows.append(TimelineRow(event.time, event.site,
                                    TIMELINE_DESCRIPTIONS[event.kind](event)))
    return rows


def render_timeline(tracer: Tracer, sites: Sequence[str],
                    t0: float = 0.0, t1: Optional[float] = None,
                    tid: Optional[str] = None, width: int = 26) -> str:
    """One column per site, chronological rows, arrows labelled."""
    rows = extract_rows(tracer, t0=t0, t1=t1, tid=tid)
    col_of: Dict[str, int] = {site: i for i, site in enumerate(sites)}
    header = "t (ms)".rjust(9) + "  " + "".join(
        site.ljust(width) for site in sites)
    lines = [header, "-" * len(header)]
    for row in rows:
        cells = [" " * width for _ in sites]
        text = row.text
        if row.arrow_to is not None and row.arrow_to in col_of \
                and row.site in col_of:
            text = f"{text} {row.arrow_to}"
        if row.site in col_of:
            cells[col_of[row.site]] = text[:width].ljust(width)
        elif row.site is None and cells:
            cells[0] = text[:width].ljust(width)
        lines.append(f"{row.time:9.1f}  " + "".join(cells).rstrip())
    return "\n".join(lines)
