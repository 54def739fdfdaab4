"""Unit tests for simulated locks, semaphores, channels, conditions."""

import pytest

from repro.mach.ports import Port
from repro.sim.kernel import Kernel, SimulationError
from repro.sim.process import Process, Sleep
from repro.sim.resources import Channel, Semaphore, SimLock

from tests.conftest import run_proc


# ------------------------------------------------------------- SimLock


def test_lock_mutual_exclusion():
    k = Kernel()
    lock = SimLock(k)
    timeline = []

    def worker(name, hold):
        yield from lock.acquire(owner=name)
        timeline.append((name, "in", k.now))
        yield Sleep(hold)
        timeline.append((name, "out", k.now))
        lock.release()

    Process(k, worker("a", 10.0))
    Process(k, worker("b", 5.0))
    k.run()
    # b enters only after a leaves.
    assert timeline == [("a", "in", 0.0), ("a", "out", 10.0),
                        ("b", "in", 10.0), ("b", "out", 15.0)]


def test_lock_fifo_order():
    k = Kernel()
    lock = SimLock(k)
    order = []

    def worker(name):
        yield from lock.acquire(owner=name)
        order.append(name)
        yield Sleep(1.0)
        lock.release()

    for name in ("w1", "w2", "w3"):
        Process(k, worker(name))
    k.run()
    assert order == ["w1", "w2", "w3"]


def test_lock_self_deadlock_detected():
    k = Kernel()
    lock = SimLock(k, name="l")

    def body():
        yield from lock.acquire(owner="me")
        yield from lock.acquire(owner="me")

    Process(k, body())
    with pytest.raises(SimulationError, match="self-deadlock"):
        k.run()


def test_release_unheld_lock_raises():
    k = Kernel()
    with pytest.raises(SimulationError):
        SimLock(k).release()


# ----------------------------------------------------------- Semaphore


def test_semaphore_counts():
    k = Kernel()
    sem = Semaphore(k, value=2)
    entered = []

    def worker(name):
        yield from sem.down()
        entered.append((name, k.now))
        yield Sleep(10.0)
        sem.up()

    for name in ("a", "b", "c"):
        Process(k, worker(name))
    k.run()
    times = dict(entered)
    assert times["a"] == 0.0 and times["b"] == 0.0
    assert times["c"] == 10.0


def test_semaphore_up_wakes_waiter_directly():
    k = Kernel()
    sem = Semaphore(k, value=0)
    woke = []

    def waiter():
        yield from sem.down()
        woke.append(k.now)

    Process(k, waiter())
    k.schedule(5.0, sem.up)
    k.run()
    assert woke == [5.0]
    assert sem.value == 0


def test_semaphore_negative_initial_rejected():
    with pytest.raises(SimulationError):
        Semaphore(Kernel(), value=-1)


# ------------------------------------------------------------- Channel


def test_channel_fifo():
    k = Kernel()
    chan = Channel(k)
    chan.put(1)
    chan.put(2)

    def body():
        a = yield from chan.get()
        b = yield from chan.get()
        return (a, b)

    assert run_proc(k, body()) == (1, 2)


def test_channel_get_blocks_until_put():
    k = Kernel()
    chan = Channel(k)

    def body():
        item = yield from chan.get()
        return (item, k.now)

    proc = Process(k, body())
    k.schedule(8.0, chan.put, "x")
    k.run()
    assert proc.done.value == ("x", 8.0)


def test_channel_multiple_getters_fifo():
    k = Kernel()
    chan = Channel(k)
    got = []

    def getter(name):
        item = yield from chan.get()
        got.append((name, item))

    Process(k, getter("g1"))
    Process(k, getter("g2"))
    k.schedule(1.0, chan.put, "first")
    k.schedule(2.0, chan.put, "second")
    k.run()
    assert got == [("g1", "first"), ("g2", "second")]


def test_channel_put_front():
    k = Kernel()
    chan = Channel(k)
    chan.put("b")
    chan.put_front("a")
    assert chan.drain() == ["a", "b"]


def test_channel_drain():
    k = Kernel()
    chan = Channel(k)
    chan.put(1)
    chan.put(2)
    assert chan.drain() == [1, 2]
    assert len(chan) == 0


# ------------------------------------------------------ kill while waiting
#
# A site crash kills processes wherever they block.  Each wait below
# un-registers a killed waiter, or passes on what was handed to it as it
# died; without that, the next waiter starves.


def _receiver(port, got):
    msg = yield from port.receive()
    got.append(msg)


def test_process_killed_in_port_receive_leaves_no_ghost_getter():
    k = Kernel()
    port = Port(k, "a", name="p")
    got = []
    victim = Process(k, _receiver(port, got))
    k.run()
    victim.kill()
    Process(k, _receiver(port, got))
    k.run()
    port.enqueue("m")
    k.run()
    assert got == ["m"]


def test_item_handed_to_a_dying_receiver_is_requeued_at_the_head():
    k = Kernel()
    port = Port(k, "a", name="p")
    got = []
    victim = Process(k, _receiver(port, got))
    k.run()

    def deliver_then_crash():
        port.enqueue("first")       # handed to the victim's wait...
        victim.kill()               # ...which dies before it resumes
        port.enqueue("second")

    k.post(1.0, deliver_then_crash)
    k.run()
    assert got == [] and len(port.queue) == 2
    Process(k, _receiver(port, got))
    k.run()
    assert got == ["first"]


def test_semaphore_unit_handed_to_a_killed_waiter_comes_back():
    k = Kernel()
    sem = Semaphore(k, value=0)
    got = []

    def waiter(name):
        yield from sem.down()
        got.append(name)

    victim = Process(k, waiter("victim"))
    k.run()

    def up_then_crash():
        sem.up()          # the unit goes to the victim's wait...
        victim.kill()     # ...which dies before it resumes

    k.post(1.0, up_then_crash)
    k.run()
    assert got == [] and sem.value == 1
    Process(k, waiter("next"))
    k.run()
    assert got == ["next"] and sem.value == 0


def test_channel_put_front_hands_a_waiting_getter_the_item():
    k = Kernel()
    chan = Channel(k)

    def getter():
        return (yield from chan.get())

    proc = Process(k, getter())
    k.run()
    chan.put_front("a")   # the getter is waiting: it takes the item
    k.run()
    assert proc.done.value == "a" and chan.drain() == []
