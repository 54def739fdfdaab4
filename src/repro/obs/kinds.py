"""The observability vocabulary: span kinds and primitive classes.

The paper's whole method is classifying latency into a handful of
primitive costs (Tables 1-3): Mach IPC, Camelot RPC, log forces,
inter-TranMan datagrams, CPU service, lock waits.  Every span the
instrumentation emits carries a dotted ``kind``; this module maps kinds
onto those primitive classes so the critical-path extractor can bucket a
live run the same way the paper buckets its formulas.

The timeline renderer (:mod:`repro.bench.timeline`) shares this registry
so span names and timeline rows use one vocabulary.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

# ----------------------------------------------------- primitive classes

IPC = "ipc"                 # local Mach IPC (inline / oneway / outofline)
RPC = "rpc"                 # inter-site NetMsgServer RPC legs
LOG_FORCE = "log_force"     # synchronous log force (disk occupancy)
DATAGRAM = "datagram"       # inter-TranMan datagram transit
CPU = "cpu"                 # CPU service time (TranMan/server/logger)
LOCK = "lock"               # lock acquisition (the 0.5 ms get-lock)
LOCK_WAIT = "lock_wait"     # blocked behind a conflicting holder
ENVELOPE = "envelope"       # whole-transaction bracketing spans
OTHER = "other"

PRIMITIVE_CLASSES = (IPC, RPC, LOG_FORCE, DATAGRAM, CPU, LOCK, LOCK_WAIT)

# Classes summed when comparing a live breakdown against the static
# Table 3 formulas — everything attributed, including CPU service: the
# paper's primitive constants are measured wall-clock figures that fold
# dispatch/handler CPU in, so the live chain's CPU slivers belong on the
# comparable side.  Only unattributed gaps (work the instrumentation
# cannot tag with a transaction, e.g. ComMan service legs) stay out.
STATIC_COMPARABLE = (IPC, RPC, LOG_FORCE, DATAGRAM, CPU, LOCK, LOCK_WAIT)

# span kind (or dotted prefix, see classify) -> primitive class
KIND_CLASSES: Dict[str, str] = {
    "ipc.inline": IPC,
    "ipc.oneway": IPC,
    "ipc.outofline": IPC,
    "ipc.immediate": IPC,
    "rpc.netmsg": RPC,
    "net.datagram": DATAGRAM,
    "net.multicast": DATAGRAM,
    "log.force": LOG_FORCE,
    "log.group_commit": LOG_FORCE,
    "cpu.service": CPU,
    "lock.get": LOCK,
    "lock.wait": LOCK_WAIT,
    "txn": ENVELOPE,
    "txn.commit": ENVELOPE,
    "tranman.local_prepare": ENVELOPE,
}


def classify(kind: str) -> str:
    """Primitive class for a span kind (prefix match on the first dot)."""
    cls = KIND_CLASSES.get(kind)
    if cls is not None:
        return cls
    head = kind.split(".", 1)[0]
    return {"ipc": IPC, "rpc": RPC, "net": DATAGRAM,
            "cpu": CPU, "lock": LOCK}.get(head, OTHER)


# --------------------------------------------------- timeline vocabulary

# Trace kinds worth a timeline row, and how to describe them (moved here
# from bench/timeline.py so timelines and spans share one registry).
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

# Span kinds that cross sites: the causal edges of a span tree.
SPAN_ARROW_KINDS: Tuple[str, ...] = ("net.datagram", "net.multicast",
                                     "rpc.netmsg")

