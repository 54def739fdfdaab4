"""Golden-transcript equivalence: the kernel vs a reference heap.

The kernel's queue must be *observationally* a single global
``(time, seq)`` heap: the fired-event transcript — every ``(time, seq)``
in order — has to be identical to what ``ReferenceKernel`` below
produces, no matter how schedule/cancel/post calls interleave, which
entry shape (``post`` 4-list or ``Timer``) carries an event, or when
bulk compaction of cancelled timers runs mid-dispatch.

``ReferenceKernel`` is deliberately naive (one heap of one entry shape,
lazy cancellation, no compaction) so the comparison pins semantics, not
implementation.

The headline test is the cancel-heavy regression: 100k timeout-class
schedule/cancel timers (the datagram-retry pattern) with live traffic
interleaved, asserted transcript-identical.
"""

from heapq import heappop, heappush

import pytest

from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams


class _RefTimer(list):
    __slots__ = ()

    def cancel(self):
        if self[4] or self[2] is None:
            return
        self[4] = True


class ReferenceKernel:
    """Single-heap kernel: the semantic baseline for event ordering."""

    def __init__(self):
        self.now = 0.0
        self._seq = 0
        self._heap = []

    def schedule(self, delay, fn, *args):
        assert delay >= 0
        seq = self._seq
        self._seq = seq + 1
        timer = _RefTimer((self.now + delay, seq, fn, args, False))
        heappush(self._heap, timer)
        return timer

    def post(self, delay, fn, *args):
        self.schedule(delay, fn, *args)

    def run(self, until=None):
        while self._heap:
            timer = self._heap[0]
            if timer[4]:
                heappop(self._heap)
                continue
            if until is not None and timer[0] > until:
                break
            heappop(self._heap)
            self.now = timer[0]
            fn, args = timer[2], timer[3]
            timer[2] = None
            fn(*args)
        if until is not None and self.now < until:
            self.now = until


def _transcript(kernel_cls, workload, **run_kw):
    """Run ``workload`` on a fresh kernel; return the fired transcript.

    The transcript records ``(time, tag)`` per fired event.  Sequence
    numbers are allocated identically by both kernels (one per
    schedule/post call, in call order), so tag identity plus firing
    order pins the full ``(time, seq)`` total order.
    """
    k = kernel_cls()
    fired = []
    workload(k, fired)
    k.run(**run_kw)
    return [(round(t, 9), tag) for t, tag in fired]


def _assert_identical(workload, **run_kw):
    golden = _transcript(ReferenceKernel, workload, **run_kw)
    actual = _transcript(Kernel, workload, **run_kw)
    assert actual == golden
    return golden


# ------------------------------------------------------------ workloads


def _cancel_heavy(deliveries):
    """The datagram-retry pattern: every delivery arms a timeout-class
    timer and cancels it (ack arrived), except a 1-in-64 straggler whose
    timeout is allowed to fire."""

    def workload(k, fired):
        rng = RngStreams(1234).stream("golden")
        count = [0]
        retries = []

        def deliver(i):
            fired.append((k.now, ("deliver", i)))
            count[0] += 1
            t = k.schedule(64.0 + rng.random() * 400.0, miss, i)
            if rng.random() < 1.0 / 64.0:
                retries.append(t)
            else:
                t.cancel()
            if count[0] < deliveries:
                k.post(rng.random() * 2.0, deliver, count[0])

        def miss(i):
            fired.append((k.now, ("miss", i)))

        k.schedule(0.0, deliver, 0)

    return workload


def test_cancel_heavy_100k_transcript_identical():
    """The regression gate: 100k schedule/cancel timeout-class timers
    produce the identical fired transcript on kernel and reference."""
    golden = _assert_identical(_cancel_heavy(100_000))
    kinds = {tag[0] for _, tag in golden}
    assert kinds == {"deliver", "miss"}  # stragglers really fired
    assert len(golden) > 100_000


class _FireLog:
    """A kernel monitor that keeps the ``(time, seq)`` of every dispatch."""

    def __init__(self):
        self.fired = []

    def on_schedule(self, seq):
        pass

    def before_fire(self, time, seq, fn, args):
        self.fired.append((time, seq))


def test_step_loop_and_run_fire_the_same_time_seq_trace():
    """``step`` is the dispatch loop run for one event: driving the
    cancel-heavy schedule one step at a time (compactions included)
    fires exactly the ``(time, seq)`` sequence one ``run`` does."""
    traces = []
    for drive in (Kernel.run, lambda k: all(iter(k.step, False))):
        k = Kernel()
        k.monitor = log = _FireLog()
        _cancel_heavy(5_000)(k, [])
        drive(k)
        assert k.pending == 0 and k.heap_size == 0
        traces.append(log.fired)
    assert traces[0] == traces[1]
    assert len(traces[0]) > 5_000
    assert traces[0] == sorted(traces[0])


def test_mixed_delay_fuzz_transcript_identical():
    """Randomized schedule/cancel/post across delays from zero to far
    future, with re-entrant scheduling from callbacks."""

    def workload(k, fired):
        rng = RngStreams(99).stream("fuzz")
        handles = []

        def fire(i):
            fired.append((k.now, i))
            r = rng.random()
            if r < 0.55:
                # Delays span message hops, timeouts and far-future
                # sweeps, with near-equal values around 64 ms and 32 s.
                delay = rng.choice(
                    [0.0, 1.5, 63.9, 64.0, 65.0, 640.0, 4_000.0,
                     32_768.0, 40_000.0, 100_000.0])
                handles.append(k.schedule(delay, fire, i + 1))
            elif r < 0.75:
                k.post(rng.random() * 300.0, fire, -i)
            if handles and r > 0.9:
                handles.pop(int(r * 1000) % len(handles)).cancel()

        for i in range(200):
            k.schedule(rng.random() * 70_000.0, fire, 1000 + i)

        def storm():
            doomed = [k.schedule(200.0 + (i % 37), fire, 10_000 + i)
                      for i in range(500)]
            for t in doomed[::2]:
                t.cancel()

        k.schedule(5.0, storm)

    _assert_identical(workload, until=500_000.0)


def test_same_instant_timer_and_post_ties_fire_in_schedule_order():
    """Events landing at one instant from different entry shapes
    (Timer vs post) still fire in scheduling order."""

    def workload(k, fired):
        def tag(x):
            fired.append((k.now, x))

        k.schedule(128.0, tag, "timer-first")
        k.post(128.0, tag, "post")              # same time, other shape
        k.schedule(128.0, tag, "timer-second")
        k.schedule(1.0, tag, "early")
        # A timer scheduled *from a callback* for the same instant.
        k.schedule(64.0, lambda: k.schedule(64.0, tag, "nested"))

    golden = _assert_identical(workload)
    assert [tag for _, tag in golden] == [
        "early", "timer-first", "post", "timer-second", "nested"]


def test_run_until_boundary_between_close_timers():
    """Stopping between closely spaced timers must not lose or reorder
    the ones still queued."""

    def workload(k, fired):
        for i in range(10):
            k.schedule(100.0 + i, fired.append, (100.0 + i, i))

    golden = _transcript(ReferenceKernel, workload, until=104.5)
    actual = _transcript(Kernel, workload, until=104.5)
    assert actual == golden
    assert len(actual) == 5

    # And the remainder fires on the next run.
    k = Kernel()
    fired = []
    workload(k, fired)
    k.run(until=104.5)
    assert k.now == 104.5
    k.run()
    assert fired == [(100.0 + i, i) for i in range(10)]


@pytest.mark.parametrize("delay", [64.0, 100.0, 5_000.0, 40_000.0])
def test_cancelled_timeout_class_timers_are_not_retained(delay):
    """Cancelled timeout-class timers are compacted away long before
    their time comes: retention stays within 2x live plus the floor."""
    k = Kernel()
    fired = []
    for i in range(1_000):
        k.schedule(delay, fired.append, i).cancel()
    assert k.pending == 0
    assert k.heap_size <= 2 * (k.pending + 64)
    survivor = k.schedule(delay, fired.append, "live")
    k.run()
    assert fired == ["live"]
    assert not survivor.active
    assert k.heap_size == 0
