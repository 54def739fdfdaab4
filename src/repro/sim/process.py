"""Generator-based simulated processes.

A process body is a generator that yields one of three *commands*:

- ``Sleep(dt)`` — suspend for ``dt`` virtual time units.
- ``SleepUntil(t)`` — suspend until the clock reads exactly ``t``.
- a :class:`~repro.sim.events.SimEvent` — suspend until it triggers;
  the trigger value becomes the result of the ``yield``.

Sub-routines compose with ``yield from``.  A process finishes when its
generator returns; the return value is published on :attr:`Process.done`.
Exceptions escaping the generator are re-raised out of the kernel loop so
bugs fail tests loudly instead of silently killing a process.

Processes can be killed (:meth:`Process.kill`), which throws
:class:`ProcessKilled` into the generator — used by site-crash injection.
"""

from __future__ import annotations

from typing import Any, Generator, Optional

from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel, SimulationError, Timer

ProcessBody = Generator[Any, Any, Any]


class ProcessKilled(BaseException):
    """Thrown into a process generator by :meth:`Process.kill`.

    Derived from ``BaseException`` so ordinary ``except Exception``
    handlers inside process bodies do not accidentally swallow a crash.
    """


class Sleep:
    """Command: suspend the process for ``duration`` time units."""

    __slots__ = ("duration",)

    def __init__(self, duration: float):
        if duration < 0:
            raise SimulationError(f"negative sleep {duration!r}")
        self.duration = duration


class SleepUntil:
    """Command: suspend the process until the clock reads ``time``."""

    __slots__ = ("time",)

    def __init__(self, time: float):
        self.time = time


class Process:
    """A running simulated process.

    Attributes
    ----------
    done:
        A :class:`SimEvent` triggered with the generator's return value
        when the process finishes normally, or ``None`` if killed.
    name:
        Diagnostic label shown in traces and reprs.
    """

    __slots__ = ("kernel", "name", "done", "_gen", "_alive", "_pending_timer", "_killed")

    def __init__(self, kernel: Kernel, body: ProcessBody, name: str = "proc"):
        self.kernel = kernel
        self.name = name
        self.done = SimEvent(kernel, name=f"{name}.done")
        self._gen = body
        self._alive = True
        self._killed = False
        self._pending_timer: Optional[Timer] = None
        kernel.post_soon(self._resume, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self._alive else "done"
        return f"<Process {self.name} {state}>"

    @property
    def alive(self) -> bool:
        """True until the generator returns or the process is killed."""
        return self._alive

    def kill(self) -> None:
        """Terminate the process now; its ``done`` event fires with None."""
        if not self._alive:
            return
        self._killed = True
        self._alive = False
        if self._pending_timer is not None:
            self._pending_timer.cancel()
            self._pending_timer = None
        gen = self._gen
        if getattr(gen, "gi_running", False):
            # Killed from within our own execution (e.g. the body crashed
            # its own site): we cannot throw into a running frame.  The
            # current step finishes; _resume refuses to continue
            # a dead process, and the generator is closed next turn.
            self.kernel.post_soon(self._close_gen)
            self.done.trigger(None)
            return
        try:
            gen.throw(ProcessKilled())
        except (ProcessKilled, StopIteration):
            pass
        finally:
            gen.close()
        self.done.trigger(None)

    def _close_gen(self) -> None:
        if not getattr(self._gen, "gi_running", False):
            self._gen.close()

    def _resume(self, value: Any) -> None:
        """One step: send ``value`` in, arm the wake-up it yields."""
        if not self._alive:
            return
        self._pending_timer = None
        try:
            command = self._gen.send(value)
        except StopIteration as stop:
            if self._killed:
                return  # done already triggered by kill()
            self._alive = False
            self.done.trigger(stop.value)
            return
        if not self._alive:
            return  # killed from within this very step
        if isinstance(command, Sleep):
            self._pending_timer = self.kernel.schedule(command.duration, self._resume, None)
        elif isinstance(command, SimEvent):
            # A callback registered before a kill cannot resurrect us:
            # _resume refuses a dead process.
            command.add_callback(self._resume)
        elif isinstance(command, SleepUntil):
            self._pending_timer = self.kernel.schedule_at(command.time, self._resume, None)
        else:
            raise SimulationError(
                f"process {self.name!r} yielded {command!r}; expected "
                "Sleep, SleepUntil or SimEvent"
            )
