"""Token-ring LAN model.

Transit time for a datagram is::

    send-cycle serialization  +  base latency  +  jitter(load)

- **Serialization**: a site's network interface emits one datagram per
  ``datagram_send_cycle`` (1.7 ms measured); back-to-back sends queue.
  This is why the paper's third prepare message leaves ~3.4 ms after the
  first, and one of the two reasons "parallel" phases are not parallel.
- **Jitter**: exponential with mean ``jitter_base + jitter_per_load *
  in_flight``; variance therefore grows with instantaneous network load,
  reproducing the paper's "variance rises with network load" observation.
- **Multicast**: one send cycle regardless of fan-out, and one shared
  jitter draw for the whole group — receivers see nearly simultaneous,
  highly correlated arrivals.  This is what cuts the variance of the
  slowest-subordinate time without changing the mean much.

Failure model: fail-stop site crashes (delivery checks the destination's
liveness at arrival time) and clean partitions (site groups; messages
crossing a group boundary are silently dropped, as on a real LAN where
the bridge went away).  Optional uniform message loss exercises the
protocols' retry paths.

Every dropped datagram is accounted by cause — random loss
(``dropped_loss`` / ``net.lost``), a partition boundary
(``dropped_partition`` / ``net.drop.partition``), or a dead sender or
destination (``dropped_dead`` / ``net.drop.dead``) — so fault-injection
oracles can tell a lossy link from a severed or crashed one.
``dropped`` remains the total.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional, Sequence

from repro.config import CostModel
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer

DeliverFn = Callable[[Any], None]

# Backlog multiplier ceiling for sender-side scheduling jitter (in units
# of queued sends).  See Lan._send_jitter.
_SEND_BACKLOG_JITTER_CAP = 8.0


class Lan:
    """The shared medium connecting all sites."""

    def __init__(self, kernel: Kernel, cost: CostModel, rng: RngStreams,
                 tracer: Tracer):
        self.kernel = kernel
        self.cost = cost
        self.rng = rng
        self.tracer = tracer
        # site name -> object with .alive (registered by system assembly)
        self.sites: Dict[str, Any] = {}
        # site name -> partition group id (all zero = fully connected)
        self._group: Dict[str, int] = {}
        # site name -> time its NIC is next free to start a send
        self._nic_free: Dict[str, float] = {}
        self.in_flight = 0
        self.loss_probability = 0.0
        self.duplicate_probability = 0.0
        self.delivered = 0
        self.duplicated = 0
        self.dropped_loss = 0
        self.dropped_partition = 0
        self.dropped_dead = 0

    @property
    def dropped(self) -> int:
        """Total drops across all causes (loss + partition + dead site)."""
        return self.dropped_loss + self.dropped_partition + self.dropped_dead

    def drop_counts(self) -> Dict[str, int]:
        """Per-cause drop counters, as the trace summary exposes them."""
        return {"loss": self.dropped_loss,
                "partition": self.dropped_partition,
                "dead": self.dropped_dead,
                "total": self.dropped}

    # ------------------------------------------------------ membership

    def register_site(self, name: str, site: Any) -> None:
        self.sites[name] = site  # lint: bounded(one entry per site)
        self._group.setdefault(name, 0)
        self._nic_free.setdefault(name, 0.0)

    def site_alive(self, name: str) -> bool:
        entry = self.sites.get(name)
        return entry is None or getattr(entry, "alive", True)

    # ------------------------------------------------------- partitions

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        """Split the network into isolated groups of sites.

        Sites not named in any group remain in group 0 together.
        """
        self._group = {name: 0 for name in self._group}
        for gid, members in enumerate(groups, start=1):
            for name in members:
                self._group[name] = gid

    def heal(self) -> None:
        """Remove all partitions."""
        self._group = {name: 0 for name in self._group}

    @property
    def partitioned(self) -> bool:
        """True while any site sits outside group 0."""
        return any(gid != 0 for gid in self._group.values())

    def reachable(self, src: str, dst: str) -> bool:
        return self._group.get(src, 0) == self._group.get(dst, 0)

    # ----------------------------------------------------- transmission

    def _jitter(self) -> float:
        """Receive-side jitter: grows with instantaneous network load."""
        mean = (self.cost.datagram_jitter_base
                + self.cost.datagram_jitter_per_load * self.in_flight)
        if mean <= 0:
            return 0.0
        return self.rng.stream("lan.jitter").expovariate(1.0 / mean)

    def _send_jitter(self, backlog: float) -> float:
        """Sender-side scheduling jitter: paid per send *event* (once per
        multicast group), the dominant variance term the paper isolates.

        Repeated sends hurt superlinearly: every send already queued at
        the NIC multiplies the scheduling-jitter mean — "much of the
        variance is created by the coordinator's repeated sends and not
        by its repeated receives ... may be due to operating system
        scheduling policies" (paper §4.2).

        The multiplier is capped: jitter proportional to *unbounded*
        backlog is a positive feedback loop (more backlog -> longer
        occupancy -> more backlog) that diverges under sustained
        open-loop load, which no physical NIC does.  The paper's effect
        lives at backlogs of a few sends (a coordinator's 3-5 prepares),
        well under the cap, so the measured superlinearity is preserved
        where it matters and past the cap delay grows linearly like a
        real transmit queue.
        """
        mean = self.cost.datagram_send_jitter * (
            1.0 + min(backlog, _SEND_BACKLOG_JITTER_CAP))
        if mean <= 0:
            return 0.0
        return self.rng.stream("lan.sendsched").expovariate(1.0 / mean)

    def _duplicate(self, src: str, dst: str, payload: Any,
                   deliver: DeliverFn, base_delay: float) -> None:
        """Maybe schedule a second arrival of the same datagram.

        Models retransmission-induced duplication (a stale retry racing
        its original): the copy trails the original by a fresh jitter
        draw, so handlers see it after — possibly long after — the
        first delivery was already processed.
        """
        if self.duplicate_probability <= 0:
            return
        if self.rng.stream("lan.duplicate").random() \
                >= self.duplicate_probability:
            return
        self.duplicated += 1
        self.in_flight += 1
        self.tracer.record(self.kernel.now, "net.duplicated", site=src,
                           dst=dst)
        lag = self.cost.datagram + self._jitter()
        self.kernel.post(base_delay + lag, self._arrive, src, dst,
                         payload, deliver)

    def _serialize_send(self, src: str, cycle: float) -> float:
        """Reserve the sender NIC; returns the wire-entry delay from now.

        Each send event pays the fixed cycle plus a scheduling jitter
        draw; back-to-back sends queue behind each other, so a
        coordinator's third prepare leaves well after its first.
        """
        now = self.kernel.now
        start = max(now, self._nic_free.get(src, 0.0))
        backlog = (start - now) / cycle if cycle > 0 else 0.0
        occupancy = cycle + self._send_jitter(backlog)
        self._nic_free[src] = start + occupancy  # lint: bounded(one float per site)
        return (start + occupancy) - now

    def unicast(self, src: str, dst: str, payload: Any, deliver: DeliverFn,
                latency_override: Optional[float] = None) -> None:
        """Send one datagram; ``deliver(payload)`` runs at arrival.

        ``latency_override`` replaces base+jitter (used by the
        NetMsgServer leg whose 19.1 ms round trip the paper measured as
        one opaque number); serialization and partition/crash checks
        still apply.
        """
        if not self.site_alive(src):
            self.dropped_dead += 1
            self.tracer.record(self.kernel.now, "net.drop.dead", site=src,
                               dst=dst)
            return
        send_delay = self._serialize_send(src, self.cost.datagram_send_cycle)
        if latency_override is not None:
            transit = latency_override
        else:
            # The paper's 10 ms datagram primitive includes the send
            # cycle; keep (cycle + transit) == datagram when uncontended.
            transit = (max(0.0, self.cost.datagram - self.cost.datagram_send_cycle)
                       + self._jitter())
        self.tracer.record(self.kernel.now, "net.datagram", site=src, dst=dst)
        self._transmit(src, dst, payload, deliver, send_delay + transit,
                       rpc=latency_override is not None)

    def multicast(self, src: str, dsts: Sequence[str], payload: Any,
                  deliver_for: Callable[[str], DeliverFn]) -> None:
        """Send ``payload`` to every destination with one send cycle and
        one jitter draw; ``deliver_for(dst)(payload)`` runs at arrival."""
        if not self.site_alive(src):
            self.dropped_dead += len(dsts)
            self.tracer.record(self.kernel.now, "net.drop.dead", site=src,
                               fanout=len(dsts))
            return
        send_delay = self._serialize_send(src, self.cost.multicast_send_cycle)
        transit = (max(0.0, self.cost.datagram - self.cost.multicast_send_cycle)
                   + self._jitter())
        self.tracer.record(self.kernel.now, "net.multicast", site=src,
                           fanout=len(dsts))
        for dst in dsts:
            self._transmit(src, dst, payload, deliver_for(dst),
                           send_delay + transit, multicast=True)

    def _transmit(self, src: str, dst: str, payload: Any, deliver: DeliverFn,
                  delay: float, rpc: bool = False,
                  multicast: bool = False) -> None:
        """One destination's share of a send: the loss draw, the flight
        count, the span, the arrival and the duplicate draw."""
        now = self.kernel.now
        if (self.loss_probability > 0 and
                self.rng.stream("lan.loss").random() < self.loss_probability):
            self.dropped_loss += 1
            self.tracer.record(now, "net.lost", site=src, dst=dst)
            return
        self.in_flight += 1
        obs = self.tracer.obs
        if obs is not None:
            obs.net(now, now + delay, src, dst, payload, rpc=rpc,
                    multicast=multicast)
            if obs.keep:  # two samples per datagram counting would discard
                obs.gauge(now, "lan.in_flight", self.in_flight)
        self.kernel.post(delay, self._arrive, src, dst, payload, deliver)
        self._duplicate(src, dst, payload, deliver, delay)

    def _arrive(self, src: str, dst: str, payload: Any, deliver: DeliverFn) -> None:
        self.in_flight -= 1
        obs = self.tracer.obs
        if obs is not None and obs.keep:
            obs.gauge(self.kernel.now, "lan.in_flight", self.in_flight)
        if not self.reachable(src, dst):
            self.dropped_partition += 1
            self.tracer.record(self.kernel.now, "net.drop.partition",
                               site=src, dst=dst)
            return
        if not self.site_alive(dst):
            self.dropped_dead += 1
            self.tracer.record(self.kernel.now, "net.drop.dead", site=src,
                               dst=dst)
            return
        self.delivered += 1
        deliver(payload)
