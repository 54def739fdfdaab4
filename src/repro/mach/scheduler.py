"""Per-site CPU model.

The throughput experiments (paper Figures 4-5) saturate on CPU and
logger, not on protocol logic, so sites need a CPU abstraction:

- ``num_cpus`` identical processors,
- one FIFO run queue (the measured Mach 2.0 on the VAX 8200 had a single
  run queue on a master processor — the paper names this as a
  thread-switch cost factor), and
- a context-switch charge per dispatch.

Simulated work consumes CPU by ``yield from cpu.run(cost)``.  Costs are
scaled by the profile's ``cpu_speed_factor`` at the call site (via
:meth:`repro.config.CostModel.scaled_cpu`), so the same workload code
runs on both machine profiles.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.resources import Semaphore


class CpuScheduler:
    """FIFO multiprocessor scheduler for one site.

    Busy time and dispatch counts are kept for utilisation reporting in
    the throughput benchmarks.
    """

    def __init__(self, kernel: Kernel, num_cpus: int = 1,
                 context_switch_ms: float = 0.137, name: str = "cpu"):
        if num_cpus < 1:
            raise ValueError("need at least one CPU")
        self.kernel = kernel
        self.name = name
        self.num_cpus = num_cpus
        self.context_switch_ms = context_switch_ms
        self._slots = Semaphore(kernel, value=num_cpus, name=f"{name}.slots")
        self.busy_ms = 0.0
        self.dispatches = 0

    def run(self, cost_ms: float) -> Generator[Any, Any, None]:
        """Consume ``cost_ms`` of CPU, queueing if all CPUs are busy.

        Zero-cost work returns immediately without a dispatch — profiles
        that fold CPU time into their latency constants (RT-PC) pass 0
        and suffer no queueing at all.
        """
        if cost_ms <= 0:
            return
        slots = self._slots
        if slots._value > 0 and not slots._waiters:
            slots._value -= 1  # a free CPU: Semaphore.down's fast path, inline
        else:
            yield from slots.down()
        try:
            burst = cost_ms + self.context_switch_ms
            self.dispatches += 1
            self.busy_ms += burst
            yield Sleep(burst)
        finally:
            self._slots.up()

    @property
    def queue_depth(self) -> int:
        """Threads currently queued for a CPU slot (run-queue length)."""
        return len(self._slots._waiters)

    def utilization(self, elapsed_ms: float) -> float:
        """Fraction of total CPU capacity used over ``elapsed_ms``."""
        if elapsed_ms <= 0:
            return 0.0
        return self.busy_ms / (elapsed_ms * self.num_cpus)
