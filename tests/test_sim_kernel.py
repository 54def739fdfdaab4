"""Unit tests for the discrete-event kernel."""

import pytest

from repro.sim.kernel import Kernel, SimulationError


def test_clock_starts_at_zero():
    assert Kernel().now == 0.0


def test_schedule_and_run_advances_clock():
    k = Kernel()
    fired = []
    k.schedule(5.0, fired.append, "x")
    k.run()
    assert fired == ["x"]
    assert k.now == 5.0


def test_events_fire_in_time_order():
    k = Kernel()
    order = []
    k.schedule(10.0, order.append, "late")
    k.schedule(1.0, order.append, "early")
    k.schedule(5.0, order.append, "middle")
    k.run()
    assert order == ["early", "middle", "late"]


def test_same_time_events_fire_in_scheduling_order():
    k = Kernel()
    order = []
    for i in range(5):
        k.schedule(3.0, order.append, i)
    k.run()
    assert order == [0, 1, 2, 3, 4]


def test_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Kernel().schedule(-1.0, lambda: None)


def test_run_until_stops_before_later_events():
    k = Kernel()
    fired = []
    k.schedule(5.0, fired.append, "a")
    k.schedule(50.0, fired.append, "b")
    k.run(until=10.0)
    assert fired == ["a"]
    assert k.now == 10.0
    k.run()
    assert fired == ["a", "b"]


def test_run_until_advances_clock_even_with_no_events():
    k = Kernel()
    k.run(until=123.0)
    assert k.now == 123.0


def test_step_returns_false_when_empty():
    assert Kernel().step() is False


def test_timer_cancellation():
    k = Kernel()
    fired = []
    timer = k.schedule(5.0, fired.append, "x")
    assert timer.active
    timer.cancel()
    assert not timer.active
    k.run()
    assert fired == []


def test_cancel_is_idempotent():
    k = Kernel()
    timer = k.schedule(5.0, lambda: None)
    timer.cancel()
    timer.cancel()
    k.run()


def test_timer_inactive_after_firing():
    k = Kernel()
    timer = k.schedule(1.0, lambda: None)
    k.run()
    assert not timer.active


def test_pending_counts_uncancelled():
    k = Kernel()
    t1 = k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None)
    assert k.pending == 2
    t1.cancel()
    assert k.pending == 1


def test_events_scheduled_during_run_execute():
    k = Kernel()
    result = []

    def first():
        k.schedule(5.0, result.append, "second")

    k.schedule(1.0, first)
    k.run()
    assert result == ["second"]
    assert k.now == 6.0


def test_max_events_guards_livelock():
    k = Kernel()

    def loop():
        k.schedule(0.0, loop)

    k.schedule(0.0, loop)
    with pytest.raises(SimulationError, match="max_events"):
        k.run(max_events=100)


def test_pending_is_live_counter():
    # `pending` is O(1) (a maintained counter, polled by monitoring
    # loops); it must track schedule/cancel/fire exactly.
    k = Kernel()
    timers = [k.schedule(float(i + 1), lambda: None) for i in range(10)]
    assert k.pending == 10
    timers[0].cancel()
    timers[0].cancel()  # idempotent: must not double-decrement
    assert k.pending == 9
    k.step()  # fires t=2 (t=1 was cancelled)
    assert k.pending == 8
    k.run()
    assert k.pending == 0


def test_cancel_after_fire_does_not_corrupt_pending():
    k = Kernel()
    timer = k.schedule(1.0, lambda: None)
    k.schedule(2.0, lambda: None)
    k.run()
    assert k.pending == 0
    timer.cancel()  # late cancel of an already-fired timer: no-op
    assert k.pending == 0


def test_cancel_from_inside_own_callback_is_a_no_op():
    # Firing clears the same slot cancelling does: a callback that
    # cancels its own (already popped) timer must not be counted as a
    # cancelled entry still in the heap.
    k = Kernel()
    handle = []
    handle.append(k.schedule(1.0, lambda: handle[0].cancel()))
    k.schedule(2.0, lambda: None)
    k.step()
    assert not handle[0].active
    assert (k.pending, k.heap_size) == (1, 1)
    k.run()
    assert (k.pending, k.heap_size) == (0, 0)


def test_cancelled_then_compacted_timers_stay_cancelled():
    # More than 64 cancelled and more than half the heap: the compactor
    # drops them; handles held by callers must read the same afterwards.
    k = Kernel()
    fired = []
    live = [k.schedule(10.0 + i, fired.append, i) for i in range(10)]
    doomed = [k.schedule(5.0, fired.append, "doomed") for _ in range(100)]
    for timer in doomed[:63]:
        timer.cancel()
    assert (k.pending, k.heap_size) == (47, 110)    # below the floor
    for timer in doomed[63:]:
        timer.cancel()
    # The 64th cancel compacted (64 * 2 > 110); the 36 after it sit
    # below the floor again.
    assert (k.pending, k.heap_size) == (10, 46)
    assert not any(t.active for t in doomed) and all(t.active for t in live)
    for timer in doomed:
        timer.cancel()                              # idempotent after it
    assert (k.pending, k.heap_size) == (10, 46)
    k.run()
    assert fired == list(range(10))


def test_stopped_run_leaves_the_unfired_entry_in_the_heap():
    # Neither the deadline push-back nor the event budget may consume
    # the entry they stop at, whichever shape it has.
    for arm in (Kernel.schedule, Kernel.post):
        k = Kernel()
        fired = []
        arm(k, 1.0, fired.append, "a")
        arm(k, 5.0, fired.append, "b")
        k.schedule(3.0, fired.append, "never").cancel()
        k.run(until=4.0)
        assert fired == ["a"] and k.pending == 1
        with pytest.raises(SimulationError, match="max_events=0"):
            k.run(max_events=0)
        assert fired == ["a"] and k.pending == 1
        k.run(max_events=1)     # exactly the budget: not a livelock
        assert fired == ["a", "b"] and (k.pending, k.heap_size) == (0, 0)


def test_max_events_ignores_entries_past_the_deadline():
    k = Kernel()
    fired = []
    k.schedule(1.0, fired.append, "a")
    k.schedule(9.0, fired.append, "later")
    k.run(until=5.0, max_events=1)
    assert fired == ["a"] and k.now == 5.0 and k.pending == 1


def test_cancel_heavy_workload_keeps_heap_bounded():
    # Regression: cancelled entries used to accumulate unboundedly (the
    # datagram retry layer cancels a timer per delivered message).  The
    # kernel compacts once cancelled entries exceed half the heap, so
    # the heap stays within 2x the live count plus the compaction floor.
    # Doomed delays: the far-future spread the regression was first
    # seen with, then timeout-class delays (a short retry, the 5 s
    # lock wait, past the 30 s orphan sweep).
    for doomed_delay in (50_000.0, 64.0, 5_000.0, 40_000.0):
        k = Kernel()
        live = [k.schedule(100_000.0 + i, lambda: None) for i in range(50)]
        for i in range(10_000):
            k.schedule(doomed_delay + i, lambda: None).cancel()
        assert k.pending == 50
        assert k.heap_size <= 2 * (k.pending + 64)
        for timer in live:
            timer.cancel()
        assert k.pending == 0
        assert k.heap_size <= 128


def test_compaction_during_run_preserves_order():
    # Cancelling en masse from inside a callback triggers compaction
    # mid-run; the surviving events must still fire in (time, seq) order.
    k = Kernel()
    fired = []
    doomed = [k.schedule(50.0 + i, fired.append, f"doomed{i}")
              for i in range(200)]
    for i in range(5):
        k.schedule(300.0 + i, fired.append, f"live{i}")

    def cancel_all():
        for timer in doomed:
            timer.cancel()

    k.schedule(10.0, cancel_all)
    k.run()
    assert fired == [f"live{i}" for i in range(5)]
    assert k.now == 304.0


def test_post_is_fire_and_forget():
    k = Kernel()
    order = []
    k.post(5.0, order.append, "b")
    k.post(1.0, order.append, "a")
    k.post_soon(order.append, "now")
    assert k.pending == 3
    k.run()
    assert order == ["now", "a", "b"]
    assert k.pending == 0


def test_post_and_schedule_share_ordering():
    # post() and schedule() entries interleave in one heap; ties still
    # break by scheduling order.
    k = Kernel()
    order = []
    k.schedule(3.0, order.append, 1)
    k.post(3.0, order.append, 2)
    k.schedule(3.0, order.append, 3)
    k.run()
    assert order == [1, 2, 3]


def test_post_negative_delay_rejected():
    with pytest.raises(SimulationError):
        Kernel().post(-0.5, lambda: None)


def test_reentrant_run_rejected():
    k = Kernel()

    def inner():
        k.run()

    k.schedule(0.0, inner)
    with pytest.raises(SimulationError, match="reentrant"):
        k.run()


def test_cancel_storm_with_posts_keeps_pending_exact():
    """Fire-and-forget audit regression (PR 2): post()/post_soon()
    entries interleaved with a cancel-heavy Timer storm must never
    leave the O(1) ``pending`` counter stale — not when compaction
    rebuilds the heap around them, not when cancellation happens from
    inside a callback at the same instant as posted events.

    post() entries carry no kernel backref (slot _KERNEL is None) and
    can never be cancelled; the audit of the PR-1 call sites (IPC, LAN,
    WAL watches, event triggers, process resume) confirmed each one
    either never needs cancellation or guards liveness at fire time
    instead.  This test pins the counter bookkeeping that audit relies
    on.
    """
    k = Kernel()
    fired = []
    # Enough doomed timers to cross the compaction floor (64) several
    # times while posts sit interleaved in the same heap.
    doomed = [k.schedule(50.0 + (i % 7), fired.append, ("doomed", i))
              for i in range(300)]
    for i in range(50):
        k.post(50.0 + (i % 7), fired.append, ("post", i))
        k.post_soon(fired.append, ("soon", i))
    survivors = [k.schedule(60.0, fired.append, ("live", i))
                 for i in range(3)]
    assert k.pending == 300 + 100 + 3

    def cancel_all():
        for t in doomed:
            t.cancel()
        # Compaction has rebuilt the heap: every not-yet-fired post and
        # survivor is still pending (the 50 post_soon events fired at
        # t=0), every doomed timer is gone from the count.
        assert k.pending == 50 + 3

    k.schedule(1.0, cancel_all)
    k.run()
    assert k.pending == 0
    assert k.heap_size == 0
    assert len([f for f in fired if f[0] == "post"]) == 50
    assert len([f for f in fired if f[0] == "soon"]) == 50
    assert len([f for f in fired if f[0] == "live"]) == 3
    assert not [f for f in fired if f[0] == "doomed"]
    assert all(t.active is False for t in doomed + survivors)


def test_monitor_hook_sees_every_event_without_reordering():
    """Kernel.monitor (the race-detector hook) must observe every
    schedule and every dispatch while leaving event order untouched."""

    class Recorder:
        def __init__(self):
            self.scheduled = []
            self.fired = []

        def on_schedule(self, seq):
            self.scheduled.append(seq)

        def before_fire(self, time, seq, fn, args):
            self.fired.append((time, seq))

    def workload(k, order):
        k.schedule(2.0, order.append, "s2")
        k.post(1.0, order.append, "p1")
        k.post_soon(order.append, "now")
        doomed = k.schedule(5.0, order.append, "never")
        k.schedule(3.0, doomed.cancel)

    plain = Kernel()
    plain_order = []
    workload(plain, plain_order)
    plain.run()

    k = Kernel()
    mon = Recorder()
    k.monitor = mon
    monitored_order = []
    workload(k, monitored_order)
    k.run()

    assert monitored_order == plain_order == ["now", "p1", "s2"]
    assert len(mon.scheduled) == 5          # every schedule/post/post_soon
    assert len(mon.fired) == 4              # cancelled timer never fires
    times = [t for t, _ in mon.fired]
    assert times == sorted(times)
