"""Synchronisation resources for simulated processes.

All of these are *cooperative* (they exist in virtual time, not real
threads) and FIFO-fair, which keeps simulations deterministic.

Usage from a process body::

    yield from lock.acquire(owner="me")
    ...critical section...
    lock.release()

    item = yield from channel.get()
    channel.put(item)
"""

from __future__ import annotations

from collections import deque
from typing import Any, Deque, Generator, Optional

from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel, SimulationError


class SimLock:
    """A purely exclusive FIFO lock (the paper's C-Threads mutex).

    Like C-Threads' spin lock, it is *not* reentrant: a holder that
    re-acquires deadlocks (here: raises, because a simulated self-deadlock
    would otherwise just hang the event loop silently).
    """

    def __init__(self, kernel: Kernel, name: str = "lock"):
        self._kernel = kernel
        self.name = name
        self._holder: Optional[Any] = None
        self._waiters: Deque[tuple[SimEvent, Any]] = deque()

    def acquire(self, owner: Any = None) -> Generator[Any, Any, None]:
        """Process-body coroutine: block until the lock is ours."""
        if owner is not None and self._holder is owner:
            raise SimulationError(
                f"self-deadlock: {owner!r} re-acquiring lock {self.name!r}"
            )
        if self._holder is None and not self._waiters:
            self._holder = owner if owner is not None else object()
            return
        ev = SimEvent(self._kernel, name=self.name)
        self._waiters.append((ev, owner))
        try:
            yield ev
        except BaseException:
            # Killed while waiting (site crash).  Un-register, or — if
            # the lock was already handed to us as we died — pass it on,
            # otherwise it stays held by a corpse forever.
            try:
                self._waiters.remove((ev, owner))
            except ValueError:
                if ev.triggered:
                    self.release()
            raise

    def release(self) -> None:
        if self._holder is None:
            raise SimulationError(f"release of unheld lock {self.name!r}")
        if self._waiters:
            ev, owner = self._waiters.popleft()
            self._holder = owner if owner is not None else object()
            ev.trigger(None)
        else:
            self._holder = None


class Semaphore:
    """Counting semaphore with FIFO wakeup."""

    def __init__(self, kernel: Kernel, value: int = 0, name: str = "sem"):
        if value < 0:
            raise SimulationError("semaphore initial value must be >= 0")
        self._kernel = kernel
        self.name = name
        self._value = value
        self._waiters: Deque[SimEvent] = deque()

    @property
    def value(self) -> int:
        return self._value

    def up(self) -> None:
        if self._waiters:
            self._waiters.popleft().trigger(None)
        else:
            self._value += 1

    def down(self) -> Generator[Any, Any, None]:
        if self._value > 0 and not self._waiters:
            self._value -= 1
            return
        ev = SimEvent(self._kernel, name=self.name)
        self._waiters.append(ev)
        try:
            yield ev
        except BaseException:
            # Killed while waiting (site crash).  Un-register, or — if a
            # unit was already handed to us as we died — return it, else
            # the semaphore leaks capacity permanently (a restarted
            # site's CPU would otherwise stay saturated by ghosts).
            try:
                self._waiters.remove(ev)
            except ValueError:
                if ev.triggered:
                    self.up()
            raise


class Channel:
    """An unbounded FIFO queue of items; the workhorse for message ports.

    ``put`` never blocks.  ``get`` blocks until an item is available.
    Items queued while several getters wait are handed out FIFO-to-FIFO.
    """

    def __init__(self, kernel: Kernel, name: str = "chan"):
        self._kernel = kernel
        self.name = name
        self._items: Deque[Any] = deque()
        self._getters: Deque[SimEvent] = deque()

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.append(item)

    def hand_off(self, item: Any) -> None:
        """:meth:`put` as the last act of a kernel callback: a waiting
        getter runs in this turn (:meth:`SimEvent.hand_off`).  The
        callers are ``IpcFabric._deliver``, a datagram's arrival at
        ``TransactionManager._take_datagram`` and a remote request's at
        ``NetMsgServer._deliver_request``."""
        if self._getters:
            self._getters.popleft().hand_off(item)
        else:
            self._items.append(item)

    def put_front(self, item: Any) -> None:
        """Requeue an item at the head (used for message requeueing)."""
        if self._getters:
            self._getters.popleft().trigger(item)
        else:
            self._items.appendleft(item)

    def get(self) -> Generator[Any, Any, Any]:
        if self._items:
            return self._items.popleft()
        ev = SimEvent(self._kernel, name=self.name)
        self._getters.append(ev)
        try:
            item = yield ev
        except BaseException:
            # Killed while waiting (site crash).  Un-register, or — if an
            # item was already handed to us as we died — requeue it at
            # the head so the next getter sees it in order.
            try:
                self._getters.remove(ev)
            except ValueError:
                if ev.triggered:
                    self.put_front(ev.value)
            raise
        return item

    def drain(self) -> list[Any]:
        """Remove and return all queued items (crash cleanup)."""
        items = list(self._items)
        self._items.clear()
        return items

