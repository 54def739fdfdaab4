"""Unit tests for generator-based simulated processes."""

import pytest

from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.process import Process, ProcessKilled, Sleep, SleepUntil

from tests.conftest import run_proc


def test_sleep_advances_virtual_time():
    k = Kernel()

    def body():
        yield Sleep(10.0)
        yield Sleep(5.0)
        return k.now

    assert run_proc(k, body()) == 15.0


def test_return_value_published_on_done():
    k = Kernel()

    def body():
        yield Sleep(1.0)
        return "result"

    proc = Process(k, body())
    k.run()
    assert proc.done.triggered
    assert proc.done.value == "result"
    assert not proc.alive


def test_wait_on_event_receives_value():
    k = Kernel()
    ev = SimEvent(k)

    def body():
        value = yield ev
        return value

    proc = Process(k, body())
    k.schedule(5.0, ev.trigger, "hello")
    k.run()
    assert proc.done.value == "hello"


def test_bare_event_yield_is_wait_shorthand():
    # The event is the command (there is no wrapper to be shorthand
    # for); here it has triggered before the process first runs.
    k = Kernel()
    ev = SimEvent(k)

    def body():
        value = yield ev
        return value

    proc = Process(k, body())
    ev.trigger(7)
    k.run()
    assert proc.done.value == 7


def test_yield_from_subroutine():
    k = Kernel()

    def helper():
        yield Sleep(3.0)
        return 10

    def body():
        a = yield from helper()
        b = yield from helper()
        return a + b

    assert run_proc(k, body()) == 20
    assert k.now == 6.0


def test_invalid_yield_raises():
    k = Kernel()

    def body():
        yield 42

    Process(k, body())
    with pytest.raises(SimulationError, match="yielded"):
        k.run()


def test_exception_propagates_out_of_run():
    k = Kernel()

    def body():
        yield Sleep(1.0)
        raise ValueError("boom")

    Process(k, body())
    with pytest.raises(ValueError, match="boom"):
        k.run()


def test_kill_stops_process():
    k = Kernel()
    progress = []

    def body():
        progress.append("start")
        yield Sleep(10.0)
        progress.append("end")

    proc = Process(k, body())
    k.schedule(5.0, proc.kill)
    k.run()
    assert progress == ["start"]
    assert not proc.alive
    assert proc.done.value is None


def test_killed_process_sees_processkilled():
    k = Kernel()
    cleaned = []

    def body():
        try:
            yield Sleep(10.0)
        except ProcessKilled:
            cleaned.append(True)
            raise

    proc = Process(k, body())
    k.schedule(1.0, proc.kill)
    k.run()
    assert cleaned == [True]


def test_processkilled_not_caught_by_except_exception():
    k = Kernel()
    caught = []

    def body():
        try:
            yield Sleep(10.0)
        except Exception:  # noqa: BLE001 - the point of the test
            caught.append("wrong")

    proc = Process(k, body())
    k.schedule(1.0, proc.kill)
    k.run()
    assert caught == []


def test_event_cannot_resurrect_killed_process():
    k = Kernel()
    ev = SimEvent(k)
    progress = []

    def body():
        yield ev
        progress.append("resumed")

    proc = Process(k, body())
    proc.kill()
    ev.trigger("late")
    k.run()
    assert progress == []


def test_process_killed_while_waiting_is_not_resumed_by_the_event():
    """The event's callback is the process's own ``_resume``, registered
    before the kill; it must find the process dead and do nothing."""
    k = Kernel()
    ev = SimEvent(k)
    progress = []

    def body():
        progress.append("waiting")
        yield ev
        progress.append("resumed")

    proc = Process(k, body())
    k.run()
    assert progress == ["waiting"] and proc.alive
    proc.kill()
    ev.trigger("late")
    k.run()
    assert progress == ["waiting"]
    assert proc.done.value is None


def test_kill_is_idempotent():
    k = Kernel()

    def body():
        yield Sleep(1.0)

    proc = Process(k, body())
    proc.kill()
    proc.kill()
    k.run()
    assert not proc.alive


def test_negative_sleep_rejected():
    with pytest.raises(SimulationError):
        Sleep(-0.5)


def test_sleep_until_wakes_on_the_instant_a_relative_sleep_misses():
    """``now + (t - now)`` is not ``t`` here, which is why a daemon that
    must wake on a grid instant cannot get there with ``Sleep``."""
    start, target = 8.3, 41.90573
    assert start + (target - start) != target
    woke = []

    def body(command):
        yield Sleep(start)
        yield command(k.now)
        woke.append(k.now)

    for command in (lambda now: Sleep(target - now),
                    lambda now: SleepUntil(target)):
        k = Kernel()
        run_proc(k, body(command))
    assert woke[0] != target and woke[1] == target


def test_sleep_until_the_past_is_rejected():
    k = Kernel()

    def body():
        yield Sleep(5.0)
        yield SleepUntil(4.0)

    with pytest.raises(SimulationError):
        run_proc(k, body())
