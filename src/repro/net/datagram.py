"""The TranMan-to-TranMan datagram layer.

Camelot's ComMan does **not** carry transaction-manager traffic: "in
order to process distributed protocols as quickly as possible,
transaction managers on different sites communicate using datagrams",
with the TranMan itself "responsible for implementing mechanisms such as
timeout/retry and duplicate detection" (paper §4.2, footnote 1).

Accordingly this service is deliberately thin:

- :meth:`DatagramService.send` / :meth:`DatagramService.multicast` put a
  :class:`Datagram` on the LAN — unreliable, unordered;
- an arriving datagram is handed, in the kernel turn it arrives in, to
  the callable the endpoint's owner registered as
  :attr:`DatagramService.receiver` (the TranMan's puts it on its
  request port): no queue and no process of this layer's own;
- timeout/retry and duplicate detection are *not* here: the TranMan's
  effect interpreter arms every timer from its one protocol timeout
  (the machines only name which wait they want and how many timeouts
  long), and the machines answer a repeated message idempotently,
  exactly as in Camelot.  A datagram carries nothing but its two ends
  and its payload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Sequence

from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer


@dataclass
class Datagram:
    """A protocol message on the wire.

    ``payload`` is the protocol message object (see
    :mod:`repro.core.messages`).
    """

    src: str
    dst: str
    payload: Any


class DatagramService:
    """One endpoint of the datagram layer, owned by one site's TranMan,
    which sets :attr:`receiver` to take each received :class:`Datagram`.
    """

    def __init__(self, kernel: Kernel, lan: Lan, site: str, tracer: Tracer,
                 peers: Optional[Dict[str, "DatagramService"]] = None):
        self.kernel = kernel
        self.lan = lan
        self.site = site
        self.tracer = tracer
        # Shared endpoint registry: site name -> that site's service.
        # Registration replaces any predecessor (site restart), so mail
        # in flight across a restart reaches the new incarnation.
        self.peers: Dict[str, "DatagramService"] = (
            peers if peers is not None else {})
        self.peers[site] = self
        # Until an owner registers, nobody listens: mail is dropped.
        self.receiver: Callable[[Datagram], None] = lambda dgram: None
        self.sent = 0
        self.received = 0

    # ------------------------------------------------------------ sends

    def send(self, dst: str, payload: Any) -> None:
        """One unreliable datagram to ``dst``."""
        if dst == self.site:
            # Local loopback: no LAN transit, deliver next turn.
            self.kernel.post_soon(self._deliver, Datagram(self.site, dst, payload))
            return
        self.sent += 1
        dgram = Datagram(self.site, dst, payload)
        self.lan.unicast(self.site, dst, dgram, self._deliver_at_destination)

    def multicast(self, dsts: Sequence[str], payload: Any) -> None:
        """One physical multicast carrying ``payload`` to every dst."""
        remote = [d for d in dsts if d != self.site]
        if len(remote) != len(dsts):
            self.kernel.post_soon(
                self._deliver, Datagram(self.site, self.site, payload))
        if not remote:
            return
        self.sent += len(remote)

        def payload_for(dst: str) -> Datagram:
            return Datagram(self.site, dst, payload)

        def deliver_for(dst: str):
            return self._deliver_at_destination

        self.lan.multicast(self.site, remote, payload_for, deliver_for)

    # ---------------------------------------------------------- receive

    def _deliver_at_destination(self, dgram: Datagram) -> None:
        """Route an arriving datagram to the destination's endpoint."""
        endpoint = self.peers.get(dgram.dst)
        if endpoint is None:
            self.tracer.record(self.kernel.now, "net.no_endpoint",
                               site=dgram.dst)
            return
        endpoint._deliver(dgram)

    def _deliver(self, dgram: Datagram) -> None:
        self.received += 1
        self.receiver(dgram)
