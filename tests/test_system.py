"""Unit tests for the system assembly layer."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.sim.events import SimEvent
from repro.sim.kernel import SimulationError
from repro.sim.process import Sleep


def test_sites_and_servers_built_from_config():
    system = CamelotSystem(SystemConfig(sites={"a": 2, "b": 1}))
    assert system.site_names() == ["a", "b"]
    assert sorted(system.runtime("a").servers) == \
        ["server0@a", "server1@a"]
    assert system.default_services() == ["server0@a", "server0@b"]


def test_server_lookup_by_service_name():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    server = system.server("server0@b")
    assert server.name == "server0@b"
    assert server.site.name == "b"


def test_initial_objects_installed():
    system = CamelotSystem(SystemConfig(sites={"a": 1}),
                           initial_objects={"server0@a": {"x": 42}})
    assert system.server("server0@a").peek("x") == 42


def test_run_for_advances_clock():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    system.run_for(123.0)
    assert system.kernel.now == 123.0


def test_run_process_returns_value_and_times_out():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))

    def quick():
        yield Sleep(5.0)
        return "done"

    assert system.run_process(quick()) == "done"

    def forever():
        while True:
            yield Sleep(1_000.0)

    with pytest.raises(TimeoutError):
        system.run_process(forever(), timeout_ms=2_000.0)


def test_run_process_stops_at_a_drained_heap():
    """A workload waiting on an event nothing will trigger, on a system
    with nothing left to run (its one site crashed): ``run_process``
    stops where the heap drains, not at the deadline it can never
    reach, and reports a deadlock, not a timeout."""
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    system.crash_site("a")

    def stuck():
        yield SimEvent(system.kernel)

    with pytest.raises(SimulationError,
                       match=r"heap drained at 0\.0ms"):
        system.run_process(stuck(), timeout_ms=60_000.0)
    assert system.kernel.now == 0.0 and system.kernel.pending == 0


def test_identical_seeds_identical_runs():
    def latency(seed):
        system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1},
                                            seed=seed))
        app = system.application("a")

        def workload():
            tid = yield from app.begin()
            yield from app.write(tid, "server0@b", "x", 1)
            yield from app.commit(tid)

        system.run_process(workload())
        return app.latencies_ms()[0]

    assert latency(7) == latency(7)
    assert latency(7) != latency(8)


def test_directory_reregistered_after_restart():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    old = system.directory.lookup("server0@a")[1]
    system.crash_site("a")
    system.restart_site("a")
    new = system.directory.lookup("server0@a")[1]
    assert new is not old
    assert not new.dead


def test_tranman_accessor():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    assert system.tranman("a") is system.runtime("a").tranman


def test_config_threads_and_flags_propagate():
    system = CamelotSystem(SystemConfig(sites={"a": 1}, tranman_threads=3,
                                        group_commit=True,
                                        use_multicast=True))
    assert system.tranman("a").pool.size == 3
    assert system.runtime("a").diskman.batcher.enabled
    assert system.tranman("a").use_multicast
