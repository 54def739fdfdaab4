"""Unit tests for SimEvent and combinators."""

import pytest

from repro.sim.events import SimEvent, all_of, wait_with_deadline
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.process import Process


def test_trigger_wakes_callback_with_value():
    k = Kernel()
    ev = SimEvent(k)
    seen = []
    ev.add_callback(seen.append)
    ev.trigger(42)
    k.run()
    assert seen == [42]


def test_callback_after_trigger_still_fires():
    k = Kernel()
    ev = SimEvent(k)
    ev.trigger("v")
    seen = []
    ev.add_callback(seen.append)
    k.run()
    assert seen == ["v"]


def test_double_trigger_raises():
    k = Kernel()
    ev = SimEvent(k, name="e")
    ev.trigger()
    with pytest.raises(SimulationError):
        ev.trigger()


def test_ignore_retrigger_mode():
    k = Kernel()
    ev = SimEvent(k, ignore_retrigger=True)
    ev.trigger(1)
    ev.trigger(2)  # silently ignored
    assert ev.value == 1


def test_callbacks_deferred_to_next_turn():
    """Triggering never runs callbacks inline (asyncio discipline)."""
    k = Kernel()
    ev = SimEvent(k)
    seen = []
    ev.add_callback(seen.append)
    ev.trigger("x")
    assert seen == []  # not yet
    k.run()
    assert seen == ["x"]


def test_hand_off_runs_waiters_in_the_callers_turn():
    """The one exception: a kernel callback's last act may wake its
    waiter inline; the retrigger rules are ``trigger``'s."""
    k = Kernel()
    ev = SimEvent(k)
    seen = []
    ev.add_callback(seen.append)
    k.schedule(3.0, ev.hand_off, "x")
    k.run(max_events=1)
    assert seen == ["x"] and ev.triggered and ev.value == "x"
    with pytest.raises(SimulationError):
        ev.hand_off("y")
    SimEvent(k, ignore_retrigger=True).hand_off(1)


def test_all_of_waits_for_every_event():
    k = Kernel()
    evs = [SimEvent(k) for _ in range(3)]
    combined = all_of(k, evs)
    evs[1].trigger("b")
    evs[0].trigger("a")
    k.run()
    assert not combined.triggered
    evs[2].trigger("c")
    k.run()
    assert combined.triggered
    assert combined.value == ["a", "b", "c"]


def test_all_of_empty_triggers_immediately():
    k = Kernel()
    combined = all_of(k, [])
    assert combined.triggered
    assert combined.value == []


# ------------------------------------------------------ deadline wait


def _waiter(k, event, timeout, out):
    def body():
        out.append((yield from wait_with_deadline(k, event, timeout)))
        out.append(k.now)
    return Process(k, body())


def test_deadline_wait_event_wins_and_disarms_the_timer_at_once():
    k = Kernel()
    ev, out = SimEvent(k), []
    before = k.pending
    _waiter(k, ev, 5_000.0, out)
    k.schedule(3.0, ev.trigger, "reply")
    k.run(until=4.0)
    assert out == [(True, "reply"), 3.0]
    # Nothing is left armed for the other 4,997 ms.
    assert k.pending == before
    k.run()
    assert k.now == 4.0


def test_deadline_wait_timeout_wins():
    k = Kernel()
    ev, out = SimEvent(k), []
    _waiter(k, ev, 25.0, out)
    k.run()
    assert out == [(False, None), 25.0]
    ev.trigger("too late")      # nobody is listening; not an error
    k.run()
    assert out == [(False, None), 25.0]


@pytest.mark.parametrize("event_first", [True, False])
def test_deadline_wait_same_instant_first_triggered_wins(event_first):
    """A timer armed earlier fires earlier in its instant: an event
    triggered by a still earlier entry of that instant beats the
    deadline, one triggered by a later entry loses to it."""
    k = Kernel()
    ev, out = SimEvent(k), []
    if event_first:
        k.schedule(25.0, ev.trigger, "granted")
    _waiter(k, ev, 25.0, out)       # arms its timer in its first step
    if not event_first:
        k.post_soon(k.schedule, 25.0, ev.trigger, "granted")
    k.run()
    assert out == [(True, "granted") if event_first else (False, None), 25.0]
    assert k.pending == 0


def test_deadline_wait_killed_waiter_leaves_no_armed_timer():
    k = Kernel()
    out = []
    proc = _waiter(k, SimEvent(k), 5_000.0, out)
    k.run(until=1.0)
    assert k.pending == 1
    proc.kill()
    assert k.pending == 0 and out == []
