"""One-shot triggerable events for process synchronisation.

A :class:`SimEvent` starts untriggered; processes that ``yield ev``
suspend until someone calls :meth:`SimEvent.trigger`.  The trigger value
is delivered as the result of the ``yield``.  Triggering is scheduled via
the kernel (not delivered inline), so waiters always resume in a fresh
event-loop turn — the same discipline asyncio uses to avoid reentrancy
surprises.  The one exception is :meth:`SimEvent.hand_off`, for a
kernel callback that *is* a fresh turn and has nothing left to do in it
(the IPC fabric's two delivery callbacks, and a datagram arriving at a
TranMan): there the second turn advanced no clock and modelled no cost,
and was one kernel event in seven of an open-loop run.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Tuple

from repro.sim.kernel import Kernel, SimulationError


class SimEvent:
    """A one-shot event carrying an optional value.

    Waiting on an already-triggered event completes immediately (next
    kernel turn) with the stored value.  Triggering twice is an error
    unless ``ignore_retrigger`` was set — protocol timers sometimes race
    with completion and want the second trigger to be a no-op.
    """

    __slots__ = ("_kernel", "_callbacks", "triggered", "value", "name", "_ignore_retrigger")

    def __init__(self, kernel: Kernel, name: str = "", ignore_retrigger: bool = False):
        self._kernel = kernel
        self._callbacks: list[Callable[[Any], None]] = []
        self.triggered = False
        self.value: Any = None
        self.name = name
        self._ignore_retrigger = ignore_retrigger

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "triggered" if self.triggered else "pending"
        return f"<SimEvent {self.name or hex(id(self))} {state}>"

    def add_callback(self, fn: Callable[[Any], None]) -> None:
        """Register ``fn(value)`` to run when (or if already) triggered."""
        if self.triggered:
            self._kernel.post_soon(fn, self.value)
        else:
            self._callbacks.append(fn)  # lint: bounded(event-scoped lifetime)

    def trigger(self, value: Any = None) -> None:
        """Fire the event, waking all current and future waiters."""
        if self.triggered:
            if self._ignore_retrigger:
                return
            raise SimulationError(f"event {self.name!r} triggered twice")
        self.triggered = True
        self.value = value
        callbacks, self._callbacks = self._callbacks, []
        for fn in callbacks:
            self._kernel.post_soon(fn, value)

    def hand_off(self, value: Any = None) -> None:
        """:meth:`trigger` for a top-level kernel callback whose last act
        this is: current waiters run now, in the caller's turn.

        The fresh turn ``trigger`` buys exists so that a waiter never
        runs inside another process's step; a kernel callback that does
        nothing afterwards *is* a fresh turn, and the second one would
        advance no clock and model no cost.  Never call this from a
        process step or with work still to do.  The three callers:
        ``IpcFabric._deliver`` and ``_trigger_reply``, and a datagram's
        arrival (``TransactionManager._take_datagram``).
        """
        callbacks, self._callbacks = self._callbacks, []
        self.trigger(value)  # state and the retrigger rule; nobody left to post
        for fn in callbacks:
            fn(value)


def all_of(kernel: Kernel, events: list[SimEvent], name: str = "all_of") -> SimEvent:
    """Return an event that triggers once every event in ``events`` has.

    The combined value is the list of individual values, in input order.
    An empty list triggers immediately.
    """
    combined = SimEvent(kernel, name=name)
    remaining = len(events)
    values: list[Any] = [None] * len(events)
    if remaining == 0:
        combined.trigger([])
        return combined

    def make_cb(index: int) -> Callable[[Any], None]:
        def cb(value: Any) -> None:
            nonlocal remaining
            values[index] = value
            remaining -= 1
            if remaining == 0:
                combined.trigger(values)

        return cb

    for i, ev in enumerate(events):
        ev.add_callback(make_cb(i))
    return combined


def wait_with_deadline(kernel: Kernel, event: SimEvent, timeout: float,
                       name: str = "deadline"
                       ) -> Generator[SimEvent, Any, Tuple[bool, Any]]:
    """Wait (``yield from``) for ``event`` at most ``timeout`` from now.

    Returns ``(True, value)`` when the event triggered first and
    ``(False, None)`` when the deadline did; at one instant the event
    wins iff it was triggered before the deadline timer fired.  The
    timer is cancelled on the way out — the event won, or the waiter
    was killed — so no wait leaves one armed behind it.
    """
    first = SimEvent(kernel, name=name, ignore_retrigger=True)
    # The expiry takes a turn of its own, as the event's callback does:
    # whichever was triggered first is the one ``first`` hears first.
    timer = kernel.schedule(timeout, kernel.post_soon,
                            first.trigger, (False, None))
    event.add_callback(lambda value: first.trigger((True, value)))
    try:
        return (yield first)
    finally:
        timer.cancel()
