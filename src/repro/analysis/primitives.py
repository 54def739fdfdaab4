"""The paper's Tables 1 and 2 as data, and what each primitive costs.

Table 1 benchmarks the raw machine + Mach (IBM PC-RT model 125, Mach
2.0); Table 2 lists the latencies of the Camelot-level primitives that
dominate protocol paths.  Both are derived from the active
:class:`~repro.config.CostModel` through :func:`unit_costs`, the one
table the static analysis prices paths with, so sweeping a cost
parameter sweeps the printed tables and the static analysis coherently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CostModel
from repro.obs.kinds import DATAGRAM, IPC, LOCK, LOG_FORCE, RPC

# Composite primitives: a fixed sequence of the span classes above.
IPC_ROUND_TRIP = "ipc_round_trip"        # request + reply to a local server
CAMELOT_RPC = "camelot_rpc"              # remote operation through ComMan
DATAGRAM_PAIR = "datagram_pair"          # a datagram and its answer
REMOTE_DROP_LOCKS = "remote_drop_locks"  # one-way message + drop lock


def unit_costs(cost: CostModel) -> Dict[str, float]:
    """The cost in ms of one of each primitive a path is priced in.

    A primitive that is an :mod:`repro.obs.kinds` class keeps the
    class's name and is priced per span of that class, so a span count
    times its entry is an estimate: one ``rpc`` span is one NetMsgServer
    leg, half the round trip.  The composites are §4.1's and Table 3's.
    """
    return {
        IPC: cost.local_ipc,
        RPC: cost.netmsg_rpc / 2,
        LOG_FORCE: cost.log_force,
        DATAGRAM: cost.datagram,
        LOCK: cost.get_lock,
        IPC_ROUND_TRIP: 2 * cost.local_ipc,
        CAMELOT_RPC: (cost.netmsg_rpc + 2 * cost.local_ipc
                      + 2 * cost.comman_cpu_per_call),
        DATAGRAM_PAIR: 2 * cost.datagram,
        REMOTE_DROP_LOCKS: cost.local_oneway_message + cost.drop_lock,
    }


@dataclass(frozen=True)
class PrimitiveRow:
    """One table row: a named primitive and its cost."""

    name: str
    value: float
    unit: str
    note: str = ""

    def formatted(self) -> str:
        if self.unit == "us":
            return f"{self.value:8.1f} us"
        return f"{self.value:8.2f} ms"


def table1_rows(cost: Optional[CostModel] = None) -> List[PrimitiveRow]:
    """Benchmarks of PC-RT and Mach (paper Table 1)."""
    c = cost or CostModel()
    return [
        PrimitiveRow("Procedure call, 32-byte arg", c.procedure_call_us, "us"),
        PrimitiveRow("Data copy, bcopy()", c.bcopy_base_us, "us",
                     note=f"+ {c.bcopy_per_kb_us:.0f} us/KB"),
        PrimitiveRow("Kernel call, getpid()", c.kernel_call_us, "us"),
        PrimitiveRow("Copy data in/out of kernel", c.kernel_copy_base_us,
                     "us", note="+ copy time"),
        PrimitiveRow("Local IPC, 8-byte in-line", c.local_ipc, "ms"),
        PrimitiveRow("Remote IPC, 8-byte in-line", c.netmsg_rpc, "ms"),
        PrimitiveRow("Context switch, swtch()", c.context_switch_us, "us"),
        PrimitiveRow("Raw disk write, 1 track", c.raw_disk_track_write, "ms"),
    ]


def table2_rows(cost: Optional[CostModel] = None) -> List[PrimitiveRow]:
    """Latency of Camelot primitives (paper Table 2)."""
    c = cost or CostModel()
    units = unit_costs(c)
    return [
        PrimitiveRow("Local in-line IPC", c.local_ipc, "ms"),
        PrimitiveRow("Local in-line IPC to server", units[IPC_ROUND_TRIP],
                     "ms", note="request + reply"),
        PrimitiveRow("Local out-of-line IPC", c.local_outofline_ipc, "ms"),
        PrimitiveRow("Local one-way inline message", c.local_oneway_message,
                     "ms"),
        PrimitiveRow("Remote RPC", units[CAMELOT_RPC] + c.get_lock, "ms",
                     note="28.5 TM path + 0.5 locking"),
        PrimitiveRow("Log force", c.log_force, "ms"),
        PrimitiveRow("Datagram", c.datagram, "ms"),
        PrimitiveRow("Get lock", c.get_lock, "ms"),
        PrimitiveRow("Drop lock", c.drop_lock, "ms"),
        PrimitiveRow("Data access: read", c.data_access_read, "ms",
                     note="negligible"),
        PrimitiveRow("Data access: write", c.data_access_write, "ms",
                     note="negligible"),
    ]


def rpc_breakdown_rows(cost: Optional[CostModel] = None) -> List[PrimitiveRow]:
    """The §4.1 dissection of the 28.5 ms Camelot RPC."""
    c = cost or CostModel()
    return [
        PrimitiveRow("NetMsgServer-to-NetMsgServer RPC", c.netmsg_rpc, "ms"),
        PrimitiveRow("Extra IPC, ComMan <-> NetMsgServer", 2 * c.local_ipc,
                     "ms", note="2 x local IPC"),
        PrimitiveRow("ComMan CPU (both sites)", 2 * c.comman_cpu_per_call,
                     "ms", note=f"{c.comman_cpu_per_call:.1f} ms per site"),
        PrimitiveRow("Total Camelot RPC", unit_costs(c)[CAMELOT_RPC], "ms"),
    ]
