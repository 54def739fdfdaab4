"""The IPC fabric: message transfer priced by the cost model.

Mach allows messages only between threads on a single site; anything
inter-site goes through forwarding agents (NetMsgServer/ComMan, see
:mod:`repro.mach.netmsgserver` and :mod:`repro.servers.comman`).  This
fabric therefore only implements *local* transfer flavours, each with
the latency the paper measured (Table 2):

====================  =======================================  ========
flavour               paper row                                latency
====================  =======================================  ========
``inline``            Local in-line IPC                        1.5 ms
``oneway``            Local one-way inline message             1.0 ms
``outofline``         Local out-of-line IPC                    5.5 ms
``immediate``         (intra-process handoff, not an IPC)      0 ms
====================  =======================================  ========

A synchronous call to a server ("Local in-line IPC to server", 3 ms) is
two ``inline`` legs: request + reply.

Replies travel on lightweight reply handles (:class:`ReplyHandle`), not
full ports: the requester blocks on a one-shot event, the responder
answers through :meth:`IpcFabric.reply`, and the handle carries the
flavour that answer is priced at.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, Optional

from repro.config import CostModel
from repro.mach.message import Message
from repro.mach.ports import Port
from repro.sim.events import SimEvent, wait_with_deadline
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer

FLAVOURS = ("inline", "oneway", "outofline", "immediate")


class ReplyHandle:
    """One-shot reply slot carried in ``Message.reply_to``, with the
    flavour its reply is priced at."""

    __slots__ = ("event", "site", "flavour")

    def __init__(self, kernel: Kernel, site: str, flavour: str):
        self.event = SimEvent(kernel, name="reply", ignore_retrigger=True)
        self.site = site
        self.flavour = flavour


class IpcFabric:
    """Prices and schedules local message transfer on every site."""

    def __init__(self, kernel: Kernel, cost: CostModel, tracer: Tracer):
        self.kernel = kernel
        self.cost = cost
        self.tracer = tracer
        # Map of site name -> Site (or anything with .alive); consulted at
        # delivery time so in-flight mail to a crashing site is lost.
        self.sites: Dict[str, Any] = {}
        # The flavours whose price does not depend on the message.
        self._fixed = {"inline": cost.local_ipc,
                       "oneway": cost.local_oneway_message,
                       "immediate": 0.0}

    # ------------------------------------------------------------ costs

    def latency_for(self, flavour: str, msg: Message) -> float:
        latency = self._fixed.get(flavour)
        if latency is not None:
            return latency
        if flavour == "outofline":
            return self.cost.local_outofline_ipc + self.cost.bcopy(msg.outofline_kb)
        raise ValueError(f"unknown IPC flavour {flavour!r}")

    def _site_alive(self, site: str) -> bool:
        entry = self.sites.get(site)
        return entry is None or getattr(entry, "alive", True)

    # ------------------------------------------------------------ sends

    def send(self, port: Port, msg: Message, flavour: str = "inline",
             sender_site: Optional[str] = None) -> None:
        """Fire-and-forget local send; delivery after the flavour latency."""
        if sender_site is not None:
            msg.sender = sender_site
        elif msg.sender is None:
            msg.sender = port.site
        latency = self.latency_for(flavour, msg)
        now = self.kernel.now
        self.tracer.ipc(now, now + latency, flavour, port.site, msg)
        self.kernel.post(latency, self._deliver, port, msg)

    def _deliver(self, port: Port, msg: Message) -> None:
        if port.dead or not self._site_alive(port.site):
            self.tracer.record(self.kernel.now, "ipc.dropped", site=port.site,
                               kind_of=msg.kind)
            return
        # Our last act in a top-level kernel turn: the receiver runs in it.
        port.queue.hand_off(msg)

    # -------------------------------------------------------------- rpc

    def ask(self, port: Port, msg: Message, flavour: str = "inline",
            sender_site: Optional[str] = None,
            reply_flavour: Optional[str] = None) -> ReplyHandle:
        """The send half of :meth:`call`: send ``msg`` with a reply
        handle and return the handle, whose ``event`` the caller waits
        on.  A thread that asks several servers at once sends them all
        before it waits on any."""
        handle = ReplyHandle(self.kernel, sender_site or (msg.sender or port.site),
                             reply_flavour or flavour)
        msg.reply_to = handle
        self.send(port, msg, flavour=flavour, sender_site=sender_site)
        return handle

    def call(self, port: Port, msg: Message, flavour: str = "inline",
             sender_site: Optional[str] = None,
             reply_flavour: Optional[str] = None,
             timeout: Optional[float] = None
             ) -> Generator[Any, Any, Optional[Message]]:
        """Synchronous request/response; returns the reply message.

        The default server-call cost is two ``inline`` legs = 3 ms, the
        paper's "local in-line IPC to server" row.  With ``timeout`` set
        the call returns None when no reply arrives in time (dead
        server/port) instead of blocking forever.
        """
        handle = self.ask(port, msg, flavour, sender_site, reply_flavour)
        if timeout is None:
            response = yield handle.event
        else:
            replied, response = yield from wait_with_deadline(
                self.kernel, handle.event, timeout, name="call-or-timeout")
            if not replied:
                return None
        return response

    def reply(self, request: Message, response: Message,
              flavour: Optional[str] = None) -> None:
        """Answer a synchronous request; latency per the reply flavour."""
        handle = request.reply_to
        if handle is None:
            raise ValueError(f"message {request!r} has no reply handle")
        flavour = flavour or handle.flavour
        latency = self.latency_for(flavour, response)
        now = self.kernel.now
        self.tracer.ipc(now, now + latency, flavour, handle.site, response)
        self.kernel.post(latency, self._trigger_reply, handle, response)

    def _trigger_reply(self, handle: ReplyHandle, response: Message) -> None:
        if not self._site_alive(handle.site):
            return
        handle.event.hand_off(response)
