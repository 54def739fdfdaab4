"""Failure injection: scripted crashes, restarts, partitions, loss.

Experiments and tests describe failure scenarios declaratively::

    injector.crash_at(250.0, "site1")
    injector.partition_at(300.0, [["site0"], ["site1", "site2"]])
    injector.heal_at(900.0)
    injector.restart_at(1200.0, "site1")

Restart delegates to a caller-supplied hook (the system assembly layer
re-spawns the Camelot processes and runs recovery); the injector only
owns the schedule.

Primitives are idempotent under generated schedules: crashing a site
that is already down, restarting one that is already up, and healing
when no partition is active are validated no-ops — each leaves a
``fail.*_noop`` record in the trace rather than silently diverging (a
random schedule generator relies on this).
"""

from __future__ import annotations

from typing import Any, Callable, Sequence

from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer


class FailureInjector:
    """Schedules failures against a LAN and a set of sites."""

    def __init__(self, kernel: Kernel, lan: Lan, tracer: Tracer,
                 restart_hook: Callable[[str], None]):
        self.kernel = kernel
        self.lan = lan
        self.tracer = tracer
        self.restart_hook = restart_hook

    # ------------------------------------------------------ primitives

    def _site(self, site_name: str) -> Any:
        site = self.lan.sites.get(site_name)
        if site is None:
            raise KeyError(f"unknown site {site_name!r}")
        return site

    def crash(self, site_name: str) -> None:
        site = self._site(site_name)
        if not getattr(site, "alive", True):
            # Already down: idempotent, but leave a trace of the attempt.
            self.tracer.record(self.kernel.now, "fail.crash_noop",
                               site=site_name)
            return
        self.tracer.record(self.kernel.now, "fail.crash", site=site_name)
        site.crash()

    def restart(self, site_name: str) -> None:
        site = self._site(site_name)
        if getattr(site, "alive", True):
            # Already up: restarting a live site would tear down nothing
            # and then collide with its existing ports; no-op instead.
            self.tracer.record(self.kernel.now, "fail.restart_noop",
                               site=site_name)
            return
        self.tracer.record(self.kernel.now, "fail.restart", site=site_name)
        self.restart_hook(site_name)

    def partition(self, groups: Sequence[Sequence[str]]) -> None:
        self.tracer.record(self.kernel.now, "fail.partition",
                           groups=[list(g) for g in groups])
        self.lan.partition(groups)

    def heal(self) -> None:
        if not self.lan.partitioned:
            self.tracer.record(self.kernel.now, "fail.heal_noop")
            return
        self.tracer.record(self.kernel.now, "fail.heal")
        self.lan.heal()

    def set_loss(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError("loss probability must be in [0, 1)")
        self.tracer.record(self.kernel.now, "fail.loss",
                           probability=probability)
        self.lan.loss_probability = probability

    def set_duplication(self, probability: float) -> None:
        if not 0.0 <= probability < 1.0:
            raise ValueError("duplication probability must be in [0, 1)")
        self.tracer.record(self.kernel.now, "fail.duplicate",
                           probability=probability)
        self.lan.duplicate_probability = probability

    # -------------------------------------------------------- schedule

    def crash_at(self, time: float, site_name: str) -> None:
        self._at(time, self.crash, site_name)

    def restart_at(self, time: float, site_name: str) -> None:
        self._at(time, self.restart, site_name)

    def partition_at(self, time: float, groups: Sequence[Sequence[str]]) -> None:
        self._at(time, self.partition, groups)

    def heal_at(self, time: float) -> None:
        self._at(time, self.heal)

    def set_loss_at(self, time: float, probability: float) -> None:
        self._at(time, self.set_loss, probability)

    def set_duplication_at(self, time: float, probability: float) -> None:
        self._at(time, self.set_duplication, probability)

    def _at(self, time: float, fn: Callable[..., None], *args: Any) -> None:
        delay = time - self.kernel.now
        if delay < 0:
            raise ValueError(f"cannot schedule in the past (t={time}, now={self.kernel.now})")
        self.kernel.schedule(delay, fn, *args)
