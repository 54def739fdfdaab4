"""Unit tests for the per-site CPU scheduler."""

import pytest

from repro.mach.scheduler import CpuScheduler
from repro.sim.kernel import Kernel
from repro.sim.process import Process


def test_zero_cost_is_free():
    k = Kernel()
    cpu = CpuScheduler(k, num_cpus=1, context_switch_ms=1.0)

    def body():
        yield from cpu.run(0.0)
        return k.now

    proc = Process(k, body())
    k.run()
    assert proc.done.value == 0.0
    assert cpu.dispatches == 0


def test_burst_includes_context_switch():
    k = Kernel()
    cpu = CpuScheduler(k, num_cpus=1, context_switch_ms=0.5)

    def body():
        yield from cpu.run(10.0)
        return k.now

    proc = Process(k, body())
    k.run()
    assert proc.done.value == 10.5


def test_queueing_when_all_cpus_busy():
    k = Kernel()
    cpu = CpuScheduler(k, num_cpus=2, context_switch_ms=0.0)
    finished = []

    def body(name):
        yield from cpu.run(10.0)
        finished.append((name, k.now))

    for name in ("a", "b", "c"):
        Process(k, body(name))
    k.run()
    times = dict(finished)
    assert times["a"] == 10.0 and times["b"] == 10.0
    assert times["c"] == 20.0


def test_utilization():
    k = Kernel()
    cpu = CpuScheduler(k, num_cpus=2, context_switch_ms=0.0)

    def body():
        yield from cpu.run(10.0)

    Process(k, body())
    k.run()
    assert cpu.utilization(10.0) == pytest.approx(0.5)


def test_requires_a_cpu():
    with pytest.raises(ValueError):
        CpuScheduler(Kernel(), num_cpus=0)


def test_burst_killed_on_a_free_cpu_returns_its_slot():
    """A free CPU is taken inline, without ``Semaphore.down``; the burst's
    ``finally`` must still give the unit back when a crash kills it."""
    k = Kernel()
    cpu = CpuScheduler(k, num_cpus=1, context_switch_ms=0.0)
    slots = cpu._slots

    def body():
        yield from cpu.run(10.0)
        return k.now

    victim = Process(k, body())
    k.run(until=5.0)
    assert slots.value == 0 and cpu.queue_depth == 0
    victim.kill()
    assert slots.value == 1
    later = Process(k, body())
    k.run()
    assert later.done.value == 15.0
