"""The communication manager (ComMan).

Applications and data servers use the ComMan exactly as a non-Camelot
program uses the NetMsgServer — same forwarding, same name service —
but the ComMan additionally *spies* on messages in flight (paper §3.1):

- when a request with a transaction identifier leaves a site, the ComMan
  records the destination site in the local TranMan's descriptor;
- when a **response** leaves a site, the ComMan appends the list of
  sites used to generate it; the ComMan at the destination strips that
  list and merges it with lists from previous responses.

If every operation responds, the site that began the transaction
eventually learns the identity of every participant — those are the
subordinates at commit time.  If an operation fails to respond, the
caller initiates the abort protocol, which tolerates incomplete
knowledge.

Cost model (paper §4.1, reproduced exactly): a Camelot remote RPC costs
28.5 ms = 19.1 (NetMsgServer↔NetMsgServer RPC) + 2 x 1.5 (extra
ComMan-NetMsgServer IPC) + 2 x 3.2 (ComMan CPU at each site, i.e.
1.6 ms per traversal, two traversals per site).  "The very high
processing time within communication managers is due to unusually
inefficient coding" — faithfully reproduced as a constant.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.config import CostModel
from repro.core.tid import TID
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.netmsgserver import NetMsgServer
from repro.mach.site import Site
from repro.mach.threads import CThreadsPool
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.tracing import Tracer


class CommunicationManager:
    """One site's ComMan: interposed RPC transport plus name service."""

    def __init__(self, kernel: Kernel, site: Site, fabric: IpcFabric,
                 nms: NetMsgServer, cost: CostModel, tracer: Tracer):
        self.kernel = kernel
        self.site = site
        self.fabric = fabric
        self.nms = nms
        self.cost = cost
        self.tracer = tracer
        # Set by system assembly once the TranMan exists (mutual refs).
        self.tranman = None
        self.calls = 0
        # Inbound port for requests forwarded from remote ComMans.
        self.port = site.create_port("comman")
        self.pool = CThreadsPool(
            kernel, self.port, self._serve_inbound, size=8,
            name=f"{site.name}/comman", spawn=site.spawn)

    # ------------------------------------------------------ client side

    def lookup(self, service: str) -> Generator[Any, Any, tuple]:
        """Name service facade (paper Figure 1, event 1)."""
        result = yield from self.nms.lookup(service)
        return result

    def call_service(self, service: str, msg: Message,
                     timeout: Optional[float] = None
                     ) -> Generator[Any, Any, Optional[Message]]:
        """Synchronous call to a (possibly remote) service; ``yield
        from`` the generator it returns.

        Local destinations bypass the ComMan machinery entirely — a
        local operation is a plain 3 ms server IPC, as the paper charges
        it.  Remote destinations take the interposed path.
        """
        dest_site, dest_port = self.nms.directory.lookup(service)
        if dest_site == self.site.name:
            return self.fabric.call(dest_port, msg,
                                    sender_site=self.site.name,
                                    timeout=timeout)
        return self._remote_call(dest_site, service, msg, timeout)

    def _remote_call(self, dest_site: str, service: str, msg: Message,
                     timeout: Optional[float]
                     ) -> Generator[Any, Any, Optional[Message]]:
        self.calls += 1
        self.tracer.record(self.kernel.now, "comman.call", site=self.site.name,
                           dst=dest_site)
        tid = self._tid_of(msg)
        if tid is not None and self.tranman is not None:
            # Request-side spying: this transaction now spans dest_site.
            self.tranman.note_remote_site(tid, dest_site)
            msg.trans.setdefault("tid", tid)
            msg.trans["origin_site"] = self.site.name
        # ComMan CPU (outbound traversal) + the extra ComMan->NMS IPC.
        yield from self.site.consume_cpu(self.cost.comman_cpu_per_call / 2.0)
        yield Sleep(self.cost.local_ipc)
        dest_comman_port = self.nms.directory.lookup(f"comman@{dest_site}")[1]
        envelope = Message(kind="comman_forward",
                           body={"_target_service": service,
                                 "_inner_kind": msg.kind,
                                 "_inner_body": dict(msg.body)},
                           trans=dict(msg.trans))
        response = yield from self.nms.remote_call(dest_site, dest_comman_port,
                                                   envelope, timeout=timeout)
        if response is None:
            self.tracer.record(self.kernel.now, "comman.timeout",
                               site=self.site.name, dst=dest_site)
            return None
        # NMS->ComMan return IPC + inbound traversal CPU.
        yield Sleep(self.cost.local_ipc)
        yield from self.site.consume_cpu(self.cost.comman_cpu_per_call / 2.0)
        self._merge_spied_sites(response)
        return response

    def _merge_spied_sites(self, response: Message) -> None:
        tid = self._tid_of(response)
        sites = response.trans.pop("sites_used", None)
        if tid is None or sites is None or self.tranman is None:
            return
        self.tranman.note_remote_sites(tid, [s for s in sites
                                             if s != self.site.name])
        self.tracer.record(self.kernel.now, "comman.spied",
                           site=self.site.name, tid=str(tid),
                           sites=list(sites))

    # ------------------------------------------------------ server side

    def _serve_inbound(self, msg: Message) -> Generator[Any, Any, None]:
        """A request arrived from a remote ComMan: deliver it to the
        target server on this site, then send the response back with the
        spied site list attached."""
        yield from self.site.consume_cpu(self.cost.comman_cpu_per_call / 2.0)
        service = msg.body.get("_target_service")
        if service is None:
            raise ValueError("inbound ComMan message without _target_service")
        __, dest_port = self.nms.directory.lookup(service)
        inner = Message(kind=msg.body["_inner_kind"],
                        body=dict(msg.body["_inner_body"]),
                        trans=dict(msg.trans))
        # The ComMan-server hops on this side are inside the measured
        # 19.1 ms NetMsgServer leg — priced "immediate" so the total RPC
        # lands exactly on the paper's 28.5 ms accounting.
        response = yield from self.fabric.call(dest_port, inner,
                                               flavour="immediate",
                                               sender_site=self.site.name)
        yield from self.site.consume_cpu(self.cost.comman_cpu_per_call / 2.0)
        out = Message(kind=response.kind, body=dict(response.body),
                      trans=dict(response.trans))
        tid = self._tid_of(msg)
        if tid is not None and self.tranman is not None:
            known = self.tranman.known_sites(tid)
            out.trans["tid"] = tid
            out.trans["sites_used"] = sorted(known | {self.site.name})
        self.fabric.reply(msg, out, flavour="immediate")

    @staticmethod
    def _tid_of(msg: Message) -> Optional[TID]:
        return msg.trans.get("tid") or msg.body.get("tid")
