"""Unit tests for the failure injector and site crash semantics."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.sim.process import Sleep


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))


def _faults(system):
    """The injector's actions, in order, as its ``fail.*`` instants."""
    return [span.kind[len("fail."):] for span in system.tracer.instants
            if span.kind.startswith("fail.")]


def test_crash_kills_site_processes(system):
    site = system.runtime("a").site
    assert site.alive and site.processes
    system.failures.crash(site.name)
    assert not site.alive
    assert site.processes == []


def test_crash_is_idempotent(system):
    system.failures.crash("a")
    system.runtime("a").site.crash()  # second crash: no-op
    assert system.runtime("a").site.crash_count == 1


def test_scheduled_crash_and_restart(system):
    system.failures.crash_at(100.0, "a")
    system.failures.restart_at(200.0, "a")
    system.run_for(150.0)
    assert not system.runtime("a").site.alive
    system.run_for(100.0)
    assert system.runtime("a").site.alive


def test_cannot_schedule_in_the_past(system):
    system.run_for(100.0)
    with pytest.raises(ValueError):
        system.failures.crash_at(50.0, "a")


def test_unknown_site_rejected(system):
    with pytest.raises(KeyError):
        system.failures.crash("nope")


def test_partition_and_heal_scheduling(system):
    system.failures.partition_at(10.0, [["a"], ["b"]])
    system.failures.heal_at(20.0)
    system.run_for(15.0)
    assert not system.lan.reachable("a", "b")
    system.run_for(10.0)
    assert system.lan.reachable("a", "b")


def test_loss_probability_setting(system):
    system.failures.set_loss(0.3)
    assert system.lan.loss_probability == 0.3
    with pytest.raises(ValueError):
        system.failures.set_loss(1.5)


def test_failure_log_records_actions(system):
    system.failures.crash("a")
    system.failures.heal()   # nothing partitioned: validated no-op
    kinds = _faults(system)
    assert kinds == ["crash", "heal_noop"]


def test_crash_of_dead_site_is_noop(system):
    system.failures.crash("a")
    system.failures.crash("a")
    kinds = _faults(system)
    assert kinds == ["crash", "crash_noop"]
    assert system.runtime("a").site.crash_count == 1
    assert system.tracer.counters.get("fail.crash_noop") == 1


def test_restart_of_live_site_is_noop(system):
    old_port = system.runtime("a").tranman.port
    system.failures.restart("a")
    kinds = _faults(system)
    assert kinds == ["restart_noop"]
    # A live site's ports must be untouched by the no-op.
    assert system.runtime("a").tranman.port is old_port


def test_heal_noop_real_noop_sequence(system):
    system.failures.heal()
    system.failures.partition([["a"], ["b"]])
    system.failures.heal()
    system.failures.heal()
    kinds = _faults(system)
    assert kinds == ["heal_noop", "partition", "heal", "heal_noop"]
    assert system.lan.reachable("a", "b")


def test_set_loss_is_traced(system):
    system.failures.set_loss(0.25)
    assert system.tracer.counters.get("fail.loss") == 1
    assert _faults(system)[-1] == "loss"
    assert system.tracer.instants[-1].detail == {"probability": 0.25}


def test_restart_of_unknown_site_rejected(system):
    with pytest.raises(KeyError):
        system.failures.restart("nope")


def test_dead_site_cannot_spawn(system):
    site = system.runtime("a").site
    site.crash()

    def body():
        yield Sleep(1.0)
        return "ran"

    proc = site.spawn(body(), "zombie")
    system.run_for(10.0)
    assert not proc.alive
    assert proc.done.value is None


def test_self_crash_from_within_process(system):
    """A process that crashes its own site dies cleanly (no throw into a
    running generator)."""
    site = system.runtime("a").site
    progress = []

    def suicidal():
        progress.append("before")
        site.crash()
        progress.append("after-crash-call")
        yield Sleep(10.0)
        progress.append("never")

    site.spawn(suicidal(), "suicidal")
    system.run_for(100.0)
    assert progress == ["before", "after-crash-call"]
    assert not site.alive


def test_restart_runs_recovery_and_new_ports(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.commit(tid)

    system.run_process(workload())
    old_port = system.runtime("a").tranman.port
    system.crash_site("a")
    runtime = system.restart_site("a")
    assert runtime.tranman.port is not old_port
    assert old_port.dead
    system.run_for(1_000.0)
    assert system.server("server0@a").peek("x") == 1


def test_duplication_probability_must_be_below_one(system):
    with pytest.raises(ValueError):
        system.failures.set_duplication(1.0)
