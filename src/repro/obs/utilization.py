"""Per-resource utilization accounting (paper Figures 4-5).

The paper's throughput argument is a bottleneck argument: update
throughput saturates on the *logger disk* (~30 forces/sec without group
commit), read throughput on the *TranMan/CPU*.  This module reads the
busy-time counters the simulation already keeps (disk busy, CPU busy)
plus the recorder's LAN-occupancy samples, normalizes them over a run
window, and names the saturated resource — all strictly read-only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple


@dataclass
class ResourceUsage:
    """One resource's utilization over the observed window."""

    name: str
    kind: str                      # "disk" | "cpu" | "lan"
    utilization: float             # 0..1 fraction of capacity busy
    detail: Dict[str, float] = field(default_factory=dict)


@dataclass
class UtilizationReport:
    elapsed_ms: float
    resources: List[ResourceUsage]
    # component name ("tranman"/"server"/"logger") -> CPU ms in spans
    cpu_by_component: Dict[str, float] = field(default_factory=dict)

    def bottleneck(self) -> Optional[ResourceUsage]:
        """The busiest resource (the Figure 4/5 saturation candidate)."""
        if not self.resources:
            return None
        return max(self.resources, key=lambda r: r.utilization)


def occupancy(samples: Sequence[Tuple[float, float]],
              until: float) -> Tuple[float, float]:
    """Busy fraction and time-weighted mean of a sampled level.

    ``samples`` are ``(time, level)`` pairs in nondecreasing time
    (simulation time, at least one); the level holds from each sample to
    the next and from the last to ``until``.  Integrating that step
    function is the right average for occupancy: a level held for
    100 ms weighs 100x one held for 1 ms.
    """
    span = until - samples[0][0]
    last = samples[-1][1]
    if span <= 0:
        return (1.0 if last > 0 else 0.0), last
    busy = total = 0.0
    for (t0, level), (t1, _) in zip(samples, samples[1:]):
        total += level * (t1 - t0)
        if level > 0:
            busy += t1 - t0
    tail = until - samples[-1][0]
    total += last * tail
    if last > 0:
        busy += tail
    return busy / span, total / span


def snapshot(system, recorder=None,
             elapsed_ms: Optional[float] = None) -> UtilizationReport:
    """Read utilization out of a finished (or paused) run.

    ``system`` is a :class:`~repro.system.CamelotSystem`; ``recorder``
    an optional SpanRecorder supplying LAN occupancy and per-component
    CPU spans.  Nothing in the system is mutated.
    """
    elapsed = system.kernel.now if elapsed_ms is None else elapsed_ms
    resources: List[ResourceUsage] = []
    for name in system.site_names():
        runtime = system.runtime(name)
        log_disk = runtime.diskman.disk
        resources.append(ResourceUsage(
            name=f"{name}.logdisk", kind="disk",
            utilization=log_disk.utilization(elapsed),
            detail={"busy_ms": log_disk.busy_ms,
                    "writes": float(log_disk.writes),
                    "queue_depth": float(log_disk.queue_depth)}))
        data_disk = runtime.diskman.data_disk
        resources.append(ResourceUsage(
            name=f"{name}.datadisk", kind="disk",
            utilization=data_disk.utilization(elapsed),
            detail={"busy_ms": data_disk.busy_ms,
                    "writes": float(data_disk.writes)}))
        cpu = runtime.site.cpu
        resources.append(ResourceUsage(
            name=f"{name}.cpu", kind="cpu",
            utilization=cpu.utilization(elapsed),
            detail={"busy_ms": cpu.busy_ms,
                    "dispatches": float(cpu.dispatches),
                    "num_cpus": float(cpu.num_cpus),
                    "queue_depth": float(cpu.queue_depth)}))

    in_flight = (recorder.gauges.get("lan.in_flight")
                 if recorder is not None else None)
    if in_flight:
        busy, mean = occupancy(in_flight, system.kernel.now)
        resources.append(ResourceUsage(
            name="lan", kind="lan", utilization=busy,
            detail={"mean_in_flight": mean,
                    "max_in_flight": float(max(v for _, v in in_flight)),
                    "delivered": float(system.lan.delivered)}))

    cpu_by_component: Dict[str, float] = {}
    if recorder is not None:
        for span in recorder.spans:
            if span.kind == "cpu.service" and span.closed:
                component = span.detail.get("component", "?")
                cpu_by_component[component] = (
                    cpu_by_component.get(component, 0.0) + span.duration)

    return UtilizationReport(elapsed_ms=elapsed, resources=resources,
                             cpu_by_component=cpu_by_component)
