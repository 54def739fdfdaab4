"""The Mach network message server ("NetMsgServer").

Mach allows messages only between threads on a single site, so a
forwarding agent carries them between sites.  The NetMsgServer is that
agent, plus a name service: a client presents a string naming a service
and gets back a port; RPCs then flow

    client - NetMsgServer - network - NetMsgServer - server.

The paper measured the basic NetMsgServer-to-NetMsgServer RPC at
19.1 ms on the RT-PC testbed; this model reproduces that number as
(send cycle + wire leg) in each direction, routed over the
:class:`~repro.net.lan.Lan` so crashes and partitions apply.

Camelot interposes its communication manager in front of the
NetMsgServer (see :mod:`repro.servers.comman`), which adds the extra
IPC hops and ComMan CPU the paper dissects in §4.1.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional, Tuple

from repro.config import CostModel
from repro.mach.ipc import ReplyHandle
from repro.mach.message import Message
from repro.mach.ports import Port
from repro.net.lan import Lan
from repro.sim.events import SimEvent, wait_with_deadline
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer


class NameDirectory:
    """Cluster-wide service registry shared by all NetMsgServers.

    A real NetMsgServer gossips its registrations; the simulation keeps
    one coherent directory, which is indistinguishable at the granularity
    the paper measures.
    """

    def __init__(self) -> None:
        self._services: Dict[str, Tuple[str, Port]] = {}

    def register(self, service: str, site: str, port: Port) -> None:
        self._services[service] = (site, port)  # lint: bounded(one entry per service name; a restart re-registers over it)

    def lookup(self, service: str) -> Tuple[str, Port]:
        try:
            return self._services[service]
        except KeyError:
            raise KeyError(f"no such service {service!r}") from None

    def services(self) -> list[str]:
        return sorted(self._services)


class NetMsgServer:
    """One site's forwarding agent."""

    def __init__(self, kernel: Kernel, lan: Lan, directory: NameDirectory,
                 site: str, cost: CostModel, tracer: Tracer):
        self.kernel = kernel
        self.lan = lan
        self.directory = directory
        self.site = site
        self.cost = cost
        self.tracer = tracer

    def wire_leg(self) -> float:
        """One-way wire+NMS-processing latency.

        Chosen so that (send cycle + wire leg) * 2 equals the measured
        19.1 ms NetMsgServer round trip.
        """
        return max(0.0, self.cost.netmsg_rpc / 2.0 - self.cost.datagram_send_cycle)

    # ------------------------------------------------------ remote RPC

    def remote_call(self, dest_site: str, dest_port: Port, msg: Message,
                    timeout: Optional[float] = None
                    ) -> Generator[Any, Any, Optional[Message]]:
        """Forward ``msg`` to a port on another site and await the reply.

        Returns None if ``timeout`` elapses first (destination crashed or
        partitioned away) — the caller is expected to initiate the abort
        protocol, as the paper prescribes for unresponsive operations.
        """
        msg.sender = self.site
        done = SimEvent(self.kernel, name="rpc.done", ignore_retrigger=True)
        # The server replies through the normal ``fabric.reply`` path to a
        # handle at its own site; the callback sends the reply home.
        reply = ReplyHandle(self.kernel, dest_site)
        msg.reply_to = reply
        # The reply hop out of the server is part of the measured 19.1 ms,
        # not an extra local IPC, so suppress the fabric's reply charge.
        msg.body["_reply_flavour"] = "immediate"
        reply.event.add_callback(
            lambda response: self._send_home(dest_site, response, done))
        self.tracer.record(self.kernel.now, "nms.rpc", site=self.site,
                           dst=dest_site, kind_of=msg.kind)
        self.lan.unicast(self.site, dest_site, msg,
                         lambda m: self._deliver_request(dest_port, m),
                         latency_override=self.wire_leg())
        if timeout is None:
            response = yield done
            return response
        replied, response = yield from wait_with_deadline(
            self.kernel, done, timeout, name="rpc-or-timeout")
        if replied:
            return response
        self.tracer.record(self.kernel.now, "nms.rpc_timeout", site=self.site,
                           dst=dest_site, kind_of=msg.kind)
        return None

    def _deliver_request(self, port: Port, msg: Message) -> None:
        if port.dead:
            self.tracer.record(self.kernel.now, "nms.dead_port", site=port.site)
            return
        port.enqueue(msg)

    def _send_home(self, dest_site: str, response: Message, done: SimEvent) -> None:
        if response is None:
            return
        self.lan.unicast(dest_site, self.site, response, done.trigger,
                         latency_override=self.wire_leg())
