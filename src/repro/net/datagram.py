"""The TranMan-to-TranMan datagram layer.

Camelot's ComMan does **not** carry transaction-manager traffic: "in
order to process distributed protocols as quickly as possible,
transaction managers on different sites communicate using datagrams",
with the TranMan itself "responsible for implementing mechanisms such as
timeout/retry and duplicate detection" (paper §4.2, footnote 1).

Accordingly this service is deliberately thin:

- :meth:`DatagramService.send` / :meth:`DatagramService.multicast` put a
  protocol message (see :mod:`repro.core.messages`) on the LAN as it
  is — unreliable, unordered, no envelope: a message names its own
  sender, and the LAN is told where it goes;
- an arriving message is handed, in the kernel turn it arrives in, to
  the callable the endpoint's owner registered as
  :attr:`DatagramService.receiver` (the TranMan's puts it on its
  request port, the simulated :class:`~repro.live.host.SiteHost`'s in
  its inbox): no queue and no process of this layer's own;
- timeout/retry and duplicate detection are *not* here: the TranMan's
  effect interpreter arms every timer from its one protocol timeout
  (the machines only name which wait they want and how many timeouts
  long), and the machines answer a repeated message idempotently,
  exactly as in Camelot.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, Dict, Optional, Sequence

from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer


class DatagramService:
    """One endpoint of the datagram layer, owned by one site's engine,
    which sets :attr:`receiver` to take each received message.
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
        self.receiver: Callable[[Any], None] = lambda payload: None
        self.sent = 0
        self.received = 0

    # ------------------------------------------------------------ sends

    def send(self, dst: str, payload: Any) -> None:
        """One unreliable datagram to ``dst``."""
        if dst == self.site:
            # Local loopback: no LAN transit, deliver next turn.
            self.kernel.post_soon(self._deliver, payload)
            return
        self.sent += 1
        self.lan.unicast(self.site, dst, payload, self._deliver_at(dst))

    def multicast(self, dsts: Sequence[str], payload: Any) -> None:
        """One physical multicast carrying ``payload`` to every dst."""
        remote = [d for d in dsts if d != self.site]
        if len(remote) != len(dsts):
            self.kernel.post_soon(self._deliver, payload)
        if not remote:
            return
        self.sent += len(remote)
        self.lan.multicast(self.site, remote, payload, self._deliver_at)

    # ---------------------------------------------------------- receive

    def _deliver_at(self, dst: str) -> Callable[[Any], None]:
        """What the LAN calls when a datagram arrives at ``dst``."""
        return partial(self._arrived, dst)

    def _arrived(self, dst: str, payload: Any) -> None:
        """Hand an arriving datagram to whichever endpoint ``dst`` has
        now (not the one it had at send time: see :attr:`peers`)."""
        endpoint = self.peers.get(dst)
        if endpoint is None:
            self.tracer.record(self.kernel.now, "net.no_endpoint", site=dst)
            return
        endpoint._deliver(payload)

    def _deliver(self, payload: Any) -> None:
        self.received += 1
        self.receiver(payload)
