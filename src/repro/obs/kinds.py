"""The observability vocabulary: span kinds and primitive classes.

The paper's whole method is classifying latency into a handful of
primitive costs (Tables 1-3): Mach IPC, Camelot RPC, log forces,
inter-TranMan datagrams, CPU service, lock waits.  Every span the
instrumentation emits carries a dotted ``kind``; this module maps kinds
onto those primitive classes so the critical-path extractor can bucket a
live run the same way the paper buckets its formulas.
"""

from __future__ import annotations

from typing import Dict

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

# Every attributed class, in report order.  All of them are compared
# against the static Table 3 formulas, CPU service included: the paper's
# primitive constants are measured wall-clock figures that fold
# dispatch/handler CPU in.  Only unattributed gaps (work the
# instrumentation cannot tag with a transaction, e.g. ComMan service
# legs) stay out.
PRIMITIVE_CLASSES = (IPC, RPC, LOG_FORCE, DATAGRAM, CPU, LOCK, LOCK_WAIT)

CLASS_LABELS: Dict[str, str] = {
    IPC: "local IPC",
    RPC: "Camelot RPC (NetMsgServer)",
    LOG_FORCE: "log force",
    DATAGRAM: "inter-TranMan datagram",
    CPU: "CPU service",
    LOCK: "lock acquisition",
    LOCK_WAIT: "lock wait",
}

# span kind -> primitive class; the instants (``tranman.complete``,
# ``server.drop_locks``) are OTHER
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
}


def classify(kind: str) -> str:
    """Primitive class for a span kind."""
    return KIND_CLASSES.get(kind, OTHER)
