"""System assembly: build a whole simulated Camelot deployment.

:class:`CamelotSystem` wires together everything below it — kernel, RNG
streams, tracer, LAN, IPC fabric, name directory, per-site process
suites (NetMsgServer, ComMan, DiskMan, TranMan, data servers) — from one
:class:`~repro.config.SystemConfig`.  It owns crash/restart (including
running recovery), and is the entry point examples and benchmarks use::

    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    app = system.application("a")
    system.spawn(my_workload(app), "workload")
    system.run_for(5_000.0)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.config import CostModel, SystemConfig
from repro.core.outcomes import Outcome
from repro.log.storage import StableStoreDirectory
from repro.mach.ipc import IpcFabric
from repro.mach.netmsgserver import NameDirectory, NetMsgServer
from repro.mach.site import Site
from repro.net.datagram import DatagramService
from repro.net.failures import FailureInjector
from repro.net.lan import Lan
from repro.servers.application import Application
from repro.servers.comman import CommunicationManager
from repro.servers.dataserver import DataServer
from repro.servers.diskman import DiskManager
from repro.servers.recovery import analyze
from repro.servers.tranman import TransactionManager
from repro.sim.kernel import Kernel
from repro.sim.process import Process, ProcessBody, Sleep
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer


@dataclass
class SiteRuntime:
    """All live components of one site."""

    site: Site
    nms: NetMsgServer
    comman: CommunicationManager
    dgram: DatagramService
    diskman: DiskManager
    tranman: TransactionManager
    servers: Dict[str, DataServer]


class CamelotSystem:
    """A complete multi-site Camelot deployment in one event kernel."""

    def __init__(self, config: Optional[SystemConfig] = None,
                 initial_objects: Optional[Dict[str, Any]] = None,
                 tracer: Optional[Tracer] = None):
        self.config = config or SystemConfig()
        self.cost: CostModel = self.config.cost
        self.kernel = Kernel()
        self.rng = RngStreams(self.config.seed)
        # An injected tracer (e.g. NullTracer for overhead baselines)
        # replaces the config-driven default.
        self.tracer = tracer if tracer is not None \
            else Tracer(keep=self.config.keep_trace_events)
        self.stores = StableStoreDirectory()
        self.directory = NameDirectory()
        self.lan = Lan(self.kernel, self.cost, self.rng, self.tracer)
        self.fabric = IpcFabric(self.kernel, self.cost, self.tracer)
        self.runtimes: Dict[str, SiteRuntime] = {}
        self.dgram_peers: Dict[str, DatagramService] = {}
        self.initial_objects = dict(initial_objects or {})
        for name, n_servers in self.config.sites.items():
            self._build_site(name, n_servers, first_boot=True)
        self.failures = FailureInjector(self.kernel, self.lan, self.tracer,
                                        restart_hook=self.restart_site)

    # ----------------------------------------------------- construction

    def _build_site(self, name: str, n_servers: int,
                    first_boot: bool) -> SiteRuntime:
        if first_boot:
            site = Site(self.kernel, name, self.cost)
            self.lan.register_site(name, site)
            self.fabric.sites[name] = site
        else:
            site = self.runtimes[name].site
        nms = NetMsgServer(self.kernel, self.lan, self.directory, name,
                           self.cost, self.tracer)
        dgram = DatagramService(self.kernel, self.lan, name, self.tracer,
                                peers=self.dgram_peers)
        diskman = DiskManager(self.kernel, site, self.cost,
                              self.stores.for_site(name), self.tracer,
                              group_commit=self.config.group_commit)
        tranman = TransactionManager(
            self.kernel, site, self.fabric, dgram, diskman, self.cost,
            self.tracer, threads=self.config.tranman_threads,
            use_multicast=self.config.use_multicast)
        comman = CommunicationManager(self.kernel, site, self.fabric, nms,
                                      self.cost, self.tracer)
        comman.tranman = tranman
        self.directory.register(f"comman@{name}", name, comman.port)
        servers: Dict[str, DataServer] = {}
        for i in range(n_servers):
            server_name = f"server{i}@{name}"
            server = DataServer(
                self.kernel, site, server_name, self.fabric, diskman,
                self.cost, self.tracer, tranman_port=tranman.port,
                threads=self.config.server_threads,
                initial_objects=self.initial_objects.get(server_name),
                read_only_optimization=self.config.read_only_optimization)
            self.directory.register(server_name, name, server.port)
            tranman.register_server(server)
            servers[server_name] = server
        runtime = SiteRuntime(site=site, nms=nms, comman=comman, dgram=dgram,
                              diskman=diskman, tranman=tranman,
                              servers=servers)
        self.runtimes[name] = runtime  # lint: bounded(one runtime per site)
        if self.config.cost.checkpoint_interval > 0:
            site.spawn(self._checkpoint_loop(runtime),
                       f"{name}.checkpointer")
        return runtime

    def _checkpoint_loop(self, runtime: SiteRuntime
                         ) -> Generator[Any, Any, None]:
        interval = self.config.cost.checkpoint_interval
        while True:
            yield Sleep(interval)
            yield from runtime.diskman.checkpoint(
                runtime.servers, tombstones=runtime.tranman.tombstones)

    # ------------------------------------------------------- accessors

    def site_names(self) -> List[str]:
        return sorted(self.runtimes)

    def runtime(self, name: str) -> SiteRuntime:
        return self.runtimes[name]

    def tranman(self, name: str) -> TransactionManager:
        return self.runtimes[name].tranman

    def server(self, service: str) -> DataServer:
        site_name = service.split("@", 1)[1]
        return self.runtimes[site_name].servers[service]

    def application(self, site_name: str, name: str = "app",
                    keep_history: bool = True) -> Application:
        """An application bound to ``site_name``.  ``keep_history=False``
        is the streaming mode for unbounded workloads (open-loop runs):
        outcome counts stay exact, per-transaction records are dropped
        at completion."""
        rt = self.runtimes[site_name]
        return Application(self.kernel, rt.site, self.fabric, rt.comman,
                           rt.tranman.port, self.cost, self.tracer,
                           name=f"{name}@{site_name}",
                           keep_history=keep_history)

    def default_services(self) -> List[str]:
        """One server per site, coordinator's first (the paper's minimal
        distributed transaction layout)."""
        return [f"server0@{name}" for name in self.site_names()]

    # --------------------------------------------------------- running

    def spawn(self, body: ProcessBody, name: str = "workload") -> Process:
        return Process(self.kernel, body, name=name)

    def run_for(self, duration_ms: float) -> None:
        self.kernel.run(until=self.kernel.now + duration_ms)

    def run_until_idle(self, max_ms: Optional[float] = None) -> None:
        """Run until the heap drains (periodic sweepers make this rare;
        prefer :meth:`run_for` with a bound)."""
        self.kernel.run(until=None if max_ms is None
                        else self.kernel.now + max_ms)

    def run_process(self, body: ProcessBody, timeout_ms: float = 60_000.0,
                    name: str = "workload") -> Any:
        """Spawn a process and run the kernel until it finishes."""
        proc = self.spawn(body, name=name)
        deadline = self.kernel.now + timeout_ms
        while proc.alive and self.kernel.now < deadline:
            if not self.kernel.step():
                break
        if proc.alive:
            raise TimeoutError(f"{name} did not finish within {timeout_ms}ms")
        return proc.done.value

    # -------------------------------------------------- crash / restart

    def crash_site(self, name: str) -> None:
        self.runtimes[name].site.crash()

    def restart_site(self, name: str) -> SiteRuntime:
        """Bring a crashed site back: fresh processes + crash recovery."""
        rt = self.runtimes[name]
        n_servers = len(rt.servers)
        rt.site.restart()
        runtime = self._build_site(name, n_servers, first_boot=False)
        self._recover(runtime)
        return runtime

    def _recover(self, runtime: SiteRuntime) -> None:
        name = runtime.site.name
        plan = analyze(name, self.stores.for_site(name).records())
        self.tracer.record(self.kernel.now, "recovery.plan", site=name,
                           in_doubt=len(plan.in_doubt),
                           unacked=len(plan.unacked_commits))
        # Recovered values: initial objects, then the last checkpoint's
        # committed view, then the redo pass on top.
        touched = set(plan.base_values) | set(plan.redo_values)
        for server_name in touched:
            server = runtime.servers.get(server_name)
            if server is not None:
                merged = dict(self.initial_objects.get(server_name) or {})
                merged.update(plan.base_values.get(server_name, {}))
                merged.update(plan.redo_values.get(server_name, {}))
                server.load_state(merged)
        # The TranMan adopts the protocol state; in-doubt updates wait here.
        runtime.tranman.recover_from_plan(plan)
        for tid_str, redo in plan.pending_redo.items():
            runtime.site.spawn(
                self._pending_redo_watch(runtime, tid_str, redo),
                f"recovery.redo.{tid_str}")

    def _pending_redo_watch(self, runtime: SiteRuntime, tid_str: str,
                            redo: List[Any]) -> Generator[Any, Any, None]:
        """Apply an in-doubt transaction's updates once it resolves to
        committed (drop them if it aborts)."""
        while True:
            outcome = runtime.tranman.tombstones.get(tid_str)
            if outcome is Outcome.COMMITTED:
                for server_name, obj, value in redo:
                    server = runtime.servers.get(server_name)
                    if server is not None:
                        server.values[obj] = value
                self.tracer.record(self.kernel.now, "recovery.redo_applied",
                                   site=runtime.site.name, tid=tid_str)
                return
            if outcome is Outcome.ABORTED:
                return
            yield Sleep(50.0)
