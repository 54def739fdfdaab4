"""The discrete-event kernel: a clock and one ``(time, seq)`` heap.

The kernel is deliberately tiny.  It knows nothing about transactions,
messages, or CPUs; it only orders callbacks in virtual time.  Richer
abstractions (generator processes, locks, channels) are layered on top in
sibling modules.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
simulation with a fixed RNG seed is exactly reproducible.

Hot path: every simulated message, CPU grant, and timer passes through
this module, so the representation matters.  The pending set is one
binary heap.  ``post`` entries are plain 4-element lists
``[time, seq, fn, args]`` (one C ``BUILD_LIST``, no subclass
constructor, nothing to cancel); ``schedule`` entries are
:class:`Timer` (a 5-element list subclass).  ``seq`` is unique, so heap
sifting is decided by C list comparison on ``(time, seq)`` and later
elements are never compared.  Both shapes keep the callback in slot 2,
and a timer cancelled or fired has ``None`` there, so one dispatch arm
(:meth:`Kernel._dispatch`) serves both.  The entry points stay four:
two shapes (a handle or none) times two ways to name the instant (a
delay, or the instant itself).

Cancelled timers stay in the heap (O(1) cancel), are dropped when they
reach the top, and are compacted in bulk once they outnumber the live
entries, so cancel-heavy workloads (every protocol machine arms a
timeout per wait and cancels it when the answer arrives or the
transaction is forgotten) cannot grow the pending set without bound.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Any, Callable, Optional

# Timer slot layout (a Timer IS a 5-element list; index names beat a
# second object per scheduled event on the allocation profile).
_TIME, _SEQ, _FN, _ARGS, _KERNEL = range(5)

_INF = float("inf")

# Compaction floor: below this many cancelled entries the scan is not
# worth it, however skewed the ratio (keeps tiny pending sets out of
# the compactor entirely).
_COMPACT_MIN_CANCELLED = 64


class SimulationError(RuntimeError):
    """Raised for kernel misuse (negative delays, running a dead kernel)."""


class Timer(list):
    """Handle returned by :meth:`Kernel.schedule`; supports cancellation.

    Doubles as the queue entry itself: the payload list
    ``[time, seq, fn, args, kernel]`` is built by the C list
    constructor, so scheduling an event costs one allocation.
    ``cancel`` is O(1) — it clears the callback slot; the entry stays
    in the heap and is dropped when it reaches the top (or compacted
    away in bulk).  Firing clears the same slot, so a late cancel (even
    from inside the timer's own callback) is a no-op.
    """

    __slots__ = ()

    @property
    def active(self) -> bool:
        """True while the callback has neither fired nor been cancelled."""
        return self[_FN] is not None

    def cancel(self) -> None:
        """Prevent the callback from firing.  Idempotent."""
        if self[_FN] is None:
            return  # already cancelled or already fired
        self[_FN] = None
        self[_KERNEL]._note_cancel()


class Kernel:
    """Event loop owning virtual time.

    Usage::

        k = Kernel()
        k.schedule(5.0, print, "fires at t=5")
        k.run()
        assert k.now == 5.0
    """

    __slots__ = ("now", "_seq", "_heap", "_running", "_cancelled",
                 "monitor")

    def __init__(self) -> None:
        # Current virtual time (milliseconds by convention in repro).  A
        # plain slot, read on nearly every hop; only the dispatch loop
        # and ``run`` write it.
        self.now = 0.0
        self._seq = 0
        self._heap: list = []       # heap of Timer | 4-list
        self._running = False
        self._cancelled = 0     # cancelled Timers still in the heap
        # Opt-in instrumentation (e.g. the repro.lint race detector).
        # When set, the monitor sees every schedule and every dispatch;
        # when None (the default) the hot path pays one predictable
        # branch per event.  Protocol: monitor.on_schedule(seq) at
        # scheduling time, monitor.before_fire(time, seq, fn, args)
        # immediately before each callback runs.  Attach before run():
        # the dispatch loop binds it once per run() call.
        self.monitor: Optional[Any] = None

    @property
    def pending(self) -> int:
        """Number of not-yet-cancelled scheduled calls (O(1) — monitoring
        loops poll this).

        Derived from what the queue already maintains (fired entries
        leave by pop, cancelled ones are counted as they cancel), so the
        per-event hot paths carry no separate live-count
        read-modify-write.
        """
        return len(self._heap) - self._cancelled

    @property
    def heap_size(self) -> int:
        """Total retained entries, including cancelled ones still
        awaiting drop (observability)."""
        return len(self._heap)

    def schedule(self, delay: float, fn: Callable[..., None], *args: Any) -> Timer:
        """Schedule ``fn(*args)`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        timer = Timer((self.now + delay, seq, fn, args, self))
        heappush(self._heap, timer)
        if self.monitor is not None:
            self.monitor.on_schedule(seq)
        return timer

    def schedule_at(self, time: float, fn: Callable[..., None], *args: Any) -> Timer:
        """:meth:`schedule` to an absolute instant.

        ``now + (time - now)`` is not always ``time`` in floats, and a
        daemon that skips the idle instants of a polling grid must wake
        *on* the grid for the skip to be unobservable.
        """
        if time < self.now:
            raise SimulationError(f"schedule_at {time!r} is in the past")
        seq = self._seq
        self._seq = seq + 1
        timer = Timer((time, seq, fn, args, self))
        heappush(self._heap, timer)
        if self.monitor is not None:
            self.monitor.on_schedule(seq)
        return timer

    def post(self, delay: float, fn: Callable[..., None], *args: Any) -> None:
        """Fire-and-forget :meth:`schedule`: no :class:`Timer` handle.

        The entry is a plain 4-element list (C ``BUILD_LIST``, no
        subclass constructor), which makes this the cheapest way to
        inject an event.  Message delivery, process wake-ups, and event
        triggers — the per-event hot path — never cancel, so they post.
        """
        if delay < 0:
            raise SimulationError(f"negative delay {delay!r}")
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, [self.now + delay, seq, fn, args])
        if self.monitor is not None:
            self.monitor.on_schedule(seq)

    def post_soon(self, fn: Callable[..., None], *args: Any) -> None:
        """:meth:`post` at the current instant (after the current event)."""
        seq = self._seq
        self._seq = seq + 1
        heappush(self._heap, [self.now, seq, fn, args])
        if self.monitor is not None:
            self.monitor.on_schedule(seq)

    def _note_cancel(self) -> None:
        """Timer bookkeeping: keep ``pending`` O(1) and retention bounded.

        Once cancelled entries exceed half the heap they are dropped in
        bulk, so retention stays within 2x the live entry count (plus
        the compaction floor) no matter how cancel-heavy the workload
        is.  The heap is filtered *in place* (slice assignment) so the
        list object bound by a running dispatch loop stays valid.
        """
        self._cancelled += 1
        heap = self._heap
        if (self._cancelled >= _COMPACT_MIN_CANCELLED
                and self._cancelled * 2 > len(heap)):
            heap[:] = [e for e in heap if e[2] is not None]
            heapify(heap)
            self._cancelled = 0

    def _dispatch(self, deadline: float, limit: int) -> int:
        """The dispatch loop: fire entries in ``(time, seq)`` order until
        the heap drains, the next live entry lies after ``deadline``
        (it stays in the heap), or ``limit`` have fired (never, when
        negative).  Returns how many fired."""
        # The heap local stays valid across compaction (in place).
        events = 0
        heap = self._heap
        now = self.now
        monitor = self.monitor
        while events != limit:
            # Zero-cost try (3.11): popping the empty heap is the rare
            # path, so the per-event emptiness check is gone.
            try:
                entry = heappop(heap)
            except IndexError:
                break
            fn = entry[2]
            if fn is None:  # cancelled Timer
                self._cancelled -= 1
                continue
            time = entry[0]
            if time > deadline:
                heappush(heap, entry)
                break
            if time < now:
                raise SimulationError("event heap time went backwards")
            self.now = now = time
            args = entry[3]
            entry[2] = None  # spent: Timer.active, and cancel() is a no-op
            if monitor is not None:
                monitor.before_fire(time, entry[1], fn, args)
            # Specialized no-arg call: CALL beats CALL_FUNCTION_EX and
            # argless callbacks (process ticks, timer pokes) are common.
            if args:
                fn(*args)
            else:
                fn()
            events += 1
        return events

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remained."""
        return self._dispatch(_INF, 1) == 1

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> None:
        """Run events until the heap drains, ``until`` passes, or the budget ends.

        ``until`` is an absolute virtual time: the clock is advanced to it
        even if the last event fires earlier, matching the usual
        "run for this long" semantics of simulation frameworks.
        """
        if self._running:
            raise SimulationError("kernel is already running (reentrant run())")
        self._running = True
        deadline = _INF if until is None else until
        try:
            fired = self._dispatch(
                deadline, -1 if max_events is None else max_events)
            if fired == max_events:
                # Budget spent: a live entry still due is a livelock.
                heap = self._heap
                while heap and heap[0][2] is None:
                    heappop(heap)
                    self._cancelled -= 1
                if heap and heap[0][0] <= deadline:
                    raise SimulationError(
                        f"exceeded max_events={max_events}; likely a livelock")
        finally:
            self._running = False
        if until is not None and self.now < until:
            self.now = until
