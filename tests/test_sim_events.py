"""Unit tests for SimEvent and combinators."""

import pytest

from repro.sim.events import SimEvent, all_of, any_of, timeout_event
from repro.sim.kernel import Kernel, SimulationError


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


def test_any_of_returns_winner_index_and_value():
    k = Kernel()
    evs = [SimEvent(k) for _ in range(3)]
    combined = any_of(k, evs)
    evs[2].trigger("winner")
    k.run()
    assert combined.value == (2, "winner")


def test_any_of_ignores_later_triggers():
    k = Kernel()
    evs = [SimEvent(k), SimEvent(k)]
    combined = any_of(k, evs)
    evs[0].trigger("first")
    evs[1].trigger("second")
    k.run()
    assert combined.value == (0, "first")


def test_any_of_requires_events():
    with pytest.raises(SimulationError):
        any_of(Kernel(), [])


def test_timeout_event_fires_at_deadline():
    k = Kernel()
    ev = timeout_event(k, 25.0)
    k.run()
    assert ev.triggered
    assert k.now == 25.0
