"""Discrete-event simulation substrate.

Every other subsystem in :mod:`repro` — the Mach-like IPC layer, the LAN,
the write-ahead log, the Camelot processes — runs on top of this small
deterministic discrete-event kernel.  Simulated "processes" are plain
Python generators that yield *commands* (sleep, wait on an event, acquire
a lock, ...); the kernel advances virtual time and resumes them.

The public surface:

- :class:`~repro.sim.kernel.Kernel` — the event loop and clock.
- :class:`~repro.sim.process.Process` — a running generator.
- :class:`~repro.sim.process.Sleep`,
  :class:`~repro.sim.process.SleepUntil` and
  :class:`~repro.sim.events.SimEvent` — the three things a process may
  yield: a delay, an instant, or a one-shot triggerable event to wait on.
- resources: :class:`~repro.sim.resources.SimLock`,
  :class:`~repro.sim.resources.Semaphore`,
  :class:`~repro.sim.resources.Channel`.
- :class:`~repro.sim.rng.RngStreams` — named deterministic RNG streams.
- :class:`~repro.sim.tracing.Tracer` — structured event trace + counters.
"""

from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.process import Process, ProcessKilled, Sleep, SleepUntil
from repro.sim.resources import Channel, Semaphore, SimLock
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer

__all__ = [
    "Channel",
    "Kernel",
    "Process",
    "ProcessKilled",
    "RngStreams",
    "Semaphore",
    "SimEvent",
    "SimLock",
    "SimulationError",
    "Sleep",
    "SleepUntil",
    "Tracer",
]
