"""Systematic mode: crash every site at every message boundary.

Random schedules sample the fault space; systematic mode sweeps the part
of it that matters most for commit protocols — the instants at which a
protocol datagram arrives.  A fault-free *golden run* of the scenario is
executed first with a :class:`BoundaryMonitor` installed as the
:attr:`Kernel.monitor`; the monitor records the virtual time of every
:meth:`Lan._arrive` dispatch.  Each such boundary then spawns crash
schedules: for every site, one crash *at* the boundary (the kernel fires
same-time events in schedule order, and injector events are scheduled at
setup, so the crash lands *before* the delivery) and one just *after* it
(the site dies having processed the message but before anything later).
Every crash is paired with a restart so recovery runs too.

This is the deterministic analogue of the paper's failure analysis
(§3.2, §5): it reaches exactly the "crashed after the vote but before
the commit record" windows that the protocol arguments reason about.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.chaos.schedule import FaultEvent, FaultSchedule
from repro.net.lan import Lan

# Post-boundary crashes land this far after the arrival: past every
# same-instant callback, well before the next protocol step (~5 ms).
_EPSILON_MS = 0.01
_RESTART_AFTER_MS = 5_000.0


class BoundaryMonitor:
    """Kernel monitor that records every message-arrival instant."""

    def __init__(self) -> None:
        self.arrivals: List[Tuple[float, str]] = []   # (time, dst site)

    def on_schedule(self, seq: int) -> None:
        pass

    def before_fire(self, time, seq, fn, args) -> None:
        if getattr(fn, "__func__", None) is Lan._arrive:
            # args = (src, dst, payload, deliver)
            self.arrivals.append((round(time, 3), args[1]))  # lint: bounded(reset per exploration run)


def golden_boundaries(spec) -> List[float]:
    """Fault-free run of ``spec``; return its message-arrival times.

    Runs long enough to cover the whole commit protocol plus retries,
    then dedupes same-instant arrivals: a crash kills the whole site, so
    one boundary per instant is enough.
    """
    from repro.chaos.scenario import build_system, start_workload

    system = build_system(spec)
    monitor = BoundaryMonitor()
    system.kernel.monitor = monitor
    start_workload(system, spec)
    system.run_for(1_000.0)
    system.kernel.monitor = None
    return sorted({time for time, _dst in monitor.arrivals})


def systematic_schedules(spec) -> List[FaultSchedule]:
    """Crash schedules for every (site, boundary, before/after) triple,
    in boundary order."""
    out: List[FaultSchedule] = []
    for boundary in golden_boundaries(spec):
        for site in spec.sites:
            for offset, phase in ((0.0, "pre"), (_EPSILON_MS, "post")):
                crash_t = round(boundary + offset, 3)
                out.append(FaultSchedule(
                    events=(
                        FaultEvent(crash_t, "crash", site=site),
                        FaultEvent(round(crash_t + _RESTART_AFTER_MS, 3),
                                   "restart", site=site),
                    ),
                    label=f"systematic/{site}@{boundary:g}/{phase}"))
    return out
