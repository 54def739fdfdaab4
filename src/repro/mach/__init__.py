"""Mach-like OS substrate: typed messages, ports, IPC, threads, CPU.

Camelot is "operating-system-intensive": nearly all of its overhead is
Mach primitives.  This package models the Mach 2.0 facilities the paper
depends on, at the granularity the paper measures them:

- typed messages sent to **ports** (:mod:`repro.mach.message`,
  :mod:`repro.mach.ports`),
- local IPC and synchronous RPC with the Table 1/2 latencies
  (:mod:`repro.mach.ipc`),
- a C-Threads-like thread pool (:mod:`repro.mach.threads`),
- per-site CPUs with a single master run queue and context-switch cost
  (:mod:`repro.mach.scheduler`),
- the NetMsgServer: name service plus inter-site RPC forwarding
  (:mod:`repro.mach.netmsgserver`).
"""

from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.netmsgserver import NameDirectory, NetMsgServer
from repro.mach.ports import DeadPortError, Port
from repro.mach.scheduler import CpuScheduler
from repro.mach.threads import CThreadsPool

__all__ = [
    "CThreadsPool",
    "CpuScheduler",
    "DeadPortError",
    "IpcFabric",
    "Message",
    "NameDirectory",
    "NetMsgServer",
    "Port",
]
