"""Unit tests for the C-Threads-style pool."""

import pytest

from repro.mach.message import Message
from repro.mach.ports import Port
from repro.mach.threads import CThreadsPool
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep


# ---------------------------------------------------------------- pool


def _pool(kernel, port, handler, size):
    return CThreadsPool(kernel, port, handler, size=size, name="pool")


def test_pool_drains_port():
    k = Kernel()
    port = Port(k, "a")
    handled = []

    def handler(msg):
        handled.append(msg.kind)
        yield Sleep(1.0)

    _pool(k, port, handler, size=2)
    for i in range(4):
        port.queue.put(Message(kind=f"m{i}"))
    k.run()
    assert sorted(handled) == ["m0", "m1", "m2", "m3"]


def test_single_thread_serializes():
    k = Kernel()
    port = Port(k, "a")
    spans = []

    def handler(msg):
        start = k.now
        yield Sleep(10.0)
        spans.append((start, k.now))

    _pool(k, port, handler, size=1)
    port.queue.put(Message(kind="a"))
    port.queue.put(Message(kind="b"))
    k.run()
    assert spans == [(0.0, 10.0), (10.0, 20.0)]


def test_many_threads_run_in_parallel():
    k = Kernel()
    port = Port(k, "a")
    done_at = []

    def handler(msg):
        yield Sleep(10.0)
        done_at.append(k.now)

    _pool(k, port, handler, size=4)
    for _ in range(4):
        port.queue.put(Message(kind="x"))
    k.run()
    assert done_at == [10.0] * 4


def test_pool_grow_never_shrinks():
    k = Kernel()
    port = Port(k, "a")

    def handler(msg):
        yield Sleep(1.0)

    pool = _pool(k, port, handler, size=1)
    pool.grow()
    assert pool.size == 2


def test_pool_requires_at_least_one_thread():
    k = Kernel()
    with pytest.raises(ValueError):
        _pool(k, Port(k, "a"), lambda m: iter(()), size=0)


def test_pool_busy_and_handled_counters():
    k = Kernel()
    port = Port(k, "a")

    def handler(msg):
        yield Sleep(5.0)

    pool = _pool(k, port, handler, size=2)
    port.queue.put(Message(kind="x"))
    k.run()
    assert pool.handled == 1
    assert pool.busy == 0

