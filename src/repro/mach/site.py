"""A site: one machine running Mach plus the Camelot process suite.

The site owns its CPUs, its ports, and the liveness flag consulted by
the IPC fabric and the LAN.  Crash/restart is implemented here so that
failure injection has a single switch to flip:

- ``crash()`` kills every registered process, destroys every port, and
  discards volatile state; stable storage (the log) survives because it
  lives in :class:`repro.log.storage.StableStore`, not on the site.
- ``restart()`` revives ports and lets the caller re-spawn processes
  (the system assembly layer re-creates them and runs recovery).
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List

from repro.config import CostModel
from repro.mach.ports import Port
from repro.mach.scheduler import CpuScheduler
from repro.sim.kernel import Kernel
from repro.sim.process import Process, ProcessBody


class Site:
    """A named machine in the simulated distributed system."""

    def __init__(self, kernel: Kernel, name: str, cost: CostModel):
        self.kernel = kernel
        self.name = name
        self.cost = cost
        self.alive = True
        self.cpu = CpuScheduler(
            kernel,
            num_cpus=cost.num_cpus,
            context_switch_ms=cost.context_switch_us / 1000.0,
            name=f"{name}.cpu",
        )
        self.ports: Dict[str, Port] = {}
        self.processes: List[Process] = []
        # Finished processes are swept lazily: the registry exists only
        # so a crash can kill live processes, but per-transaction spawns
        # (prepare votes, continuations) would otherwise grow it by one
        # entry per message forever.  Doubling watermark => O(1)
        # amortized per spawn.
        self._process_sweep_at = 64
        self.crash_count = 0
        self.on_crash: List[Callable[[], None]] = []

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "up" if self.alive else "DOWN"
        return f"<Site {self.name} {state}>"

    # ------------------------------------------------------------ ports

    def create_port(self, name: str) -> Port:
        if name in self.ports:
            raise ValueError(f"port {name!r} already exists on {self.name}")
        port = Port(self.kernel, self.name, name=name)
        self.ports[name] = port
        return port

    def port(self, name: str) -> Port:
        return self.ports[name]

    # -------------------------------------------------------- processes

    def spawn(self, body: ProcessBody, name: str) -> Process:
        """Start a process bound to this site (killed on site crash).

        Spawning on a dead site yields an already-dead process: crashed
        machines run nothing, including stragglers scheduled by timers
        that fired after the crash.
        """
        proc = Process(self.kernel, body, name=f"{self.name}/{name}")
        if not self.alive:
            proc.kill()
            return proc
        self.processes.append(proc)
        if len(self.processes) >= self._process_sweep_at:
            self.processes = [p for p in self.processes if p.alive]
            self._process_sweep_at = max(64, 2 * len(self.processes))
        return proc

    def consume_cpu(self, cost_ms: float) -> Generator[Any, Any, None]:
        """``yield from`` it: charge scaled CPU time on this site's
        processors (the scheduler's own generator, no wrapper)."""
        return self.cpu.run(self.cost.scaled_cpu(cost_ms))

    # ------------------------------------------------- failure handling

    def crash(self) -> None:
        """Fail-stop the site: kill processes, destroy ports, lose RAM."""
        if not self.alive:
            return
        self.alive = False
        self.crash_count += 1
        for proc in self.processes:
            proc.kill()
        self.processes.clear()
        for port in self.ports.values():
            port.destroy()
        for hook in self.on_crash:
            hook()

    def restart(self) -> None:
        """Mark the site up again, with the port namespace cleared.

        Old :class:`Port` objects stay dead — anything still holding a
        stale reference (a remote name-directory entry, an in-flight
        message) loses its mail, just as a rebooted machine would drop
        connections.  The caller (system assembly) re-creates the Camelot
        processes, which mint fresh ports and re-register them, and runs
        recovery against stable storage.
        """
        if self.alive:
            return
        self.alive = True
        self.ports = {}
