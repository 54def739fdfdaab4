"""The simulated substrate: :class:`SiteHost` over kernel + LAN model.

This is the conformance baseline.  The same engine that the live
harness uses runs here over the deterministic discrete-event
kernel, the token-ring :class:`repro.net.lan.Lan`, and an in-memory WAL
whose forces complete after the modelled ``log_force`` latency.  A
scenario executed here produces the reference transcript that the live
loopback run must match byte for byte.

Jitter is zeroed for conformance runs (see
:func:`repro.live.scenario.conformance_cost`): the point of the
comparison is protocol-transcript equality, and random per-message
jitter would make the *simulated* ordering the arbitrary one.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.config import CostModel
from repro.core.outcomes import Vote
from repro.net.datagram import DatagramService
from repro.net.lan import Lan
from repro.sim.kernel import Kernel, Timer
from repro.sim.rng import RngStreams
from repro.sim.tracing import NullTracer, Tracer
from repro.live.host import SiteHost, Substrate
from repro.live.scenario import SIM_PREPARE_MS, Scenario, Transcript, \
    run_scenario_steps
from repro.live.walfile import MemoryWal


class SimSubstrate(Substrate):
    """Substrate implementation over the discrete-event kernel."""

    def __init__(self, site: str, kernel: Kernel, cost: CostModel,
                 dgram: DatagramService):
        self.site = site
        self.kernel = kernel
        self.cost = cost
        # The simulated TranMan's wire: loopback off the LAN, transit on
        # it, delivery to whichever endpoint the site has at arrival.
        self.dgram = dgram
        self.wal = MemoryWal()
        self.tracer = Tracer(keep=False)
        self.alive = True  # Lan liveness probe

    def now(self) -> float:
        return self.kernel.now

    def send(self, dst: str, message: Any) -> None:
        self.dgram.send(dst, message)

    # ------------------------------------------------------------ wal

    def force(self, lsn: int, done: Callable[[], None]) -> None:
        self.kernel.post(self.cost.log_force, self._force_done, lsn, done)

    def _force_done(self, lsn: int, done: Callable[[], None]) -> None:
        for fn in self.wal.force(lsn):
            fn()
        done()

    # ---------------------------------------------------------- timers

    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Timer:
        return self.kernel.schedule(delay_ms, fn)


def build_sim_cluster(sites: List[str], cost: CostModel,
                      votes: Optional[Dict[str, Vote]] = None
                      ) -> Tuple[Kernel, Dict[str, SiteHost], Transcript]:
    """A kernel, one wired and tapped SiteHost per site, and the
    transcript the taps share."""
    kernel = Kernel()
    tracer = NullTracer()
    lan = Lan(kernel, cost, RngStreams(0), tracer)
    transcript = Transcript()
    endpoints: Dict[str, DatagramService] = {}
    hosts: Dict[str, SiteHost] = {}
    for site in sites:
        dgram = DatagramService(kernel, lan, site, tracer, endpoints)
        sub = SimSubstrate(site, kernel, cost, dgram)
        lan.register_site(site, sub)
        host = hosts[site] = SiteHost(site, sub, cost, votes=votes,
                                      prepare_delay_ms=SIM_PREPARE_MS)
        dgram.receiver = (lambda message, host=host:
                          host.deliver(message.sender, message))
        transcript.tap(site, host)
    return kernel, hosts, transcript


def run_sim_scenario(scenario: Scenario) -> Transcript:
    """Execute the scenario on the simulated substrate; return transcript."""
    cost = scenario.cost
    kernel, hosts, transcript = build_sim_cluster(
        list(scenario.sites), cost, votes=scenario.votes)
    for host in hosts.values():
        host.start_sweeps()
    run_scenario_steps(
        scenario, hosts,
        at=lambda delay_ms, fn: kernel.schedule(delay_ms, fn))
    kernel.run(until=scenario.horizon_ms)
    for host in hosts.values():
        host.stop()
    return transcript
