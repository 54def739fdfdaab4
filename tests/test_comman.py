"""Unit/integration tests for the communication manager."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.mach.message import Message


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))


def test_remote_rpc_latency_is_paper_28_5_plus_service(system):
    """The full interposed path: 28.5 ms of transport/ComMan plus the
    server's lock acquisition."""
    comman = system.runtime("a").comman

    def probe():
        samples = []
        for _ in range(20):
            t0 = system.kernel.now
            msg = Message(kind="peek", body={"object": "x"})
            yield from comman.call_service("server0@b", msg)
            samples.append(system.kernel.now - t0)
        return sum(samples) / len(samples)

    mean = system.run_process(probe())
    # peek skips locking; 28.5 + server CPU + network jitter mean.
    assert 28.0 <= mean <= 33.0


def test_local_call_bypasses_comman(system):
    comman = system.runtime("a").comman

    def probe():
        t0 = system.kernel.now
        msg = Message(kind="peek", body={"object": "x"})
        yield from comman.call_service("server0@a", msg)
        return system.kernel.now - t0

    elapsed = system.run_process(probe())
    assert elapsed <= 5.0
    assert comman.calls == 0  # remote-call counter untouched


def test_request_spying_records_destination_site(system):
    comman = system.runtime("a").comman

    def probe():
        tm = system.tranman("a")
        tid = tm.tid_gen.new_top_level()
        tm.families.begin(tid)
        msg = Message(kind="operation",
                      body={"tid": tid, "op": "read", "object": "x"},
                      trans={"tid": tid})
        yield from comman.call_service("server0@b", msg)
        return tid

    tid = system.run_process(probe())
    assert "b" in system.tranman("a").known_sites(tid)


def test_response_spying_merges_transitive_sites(system):
    """a -> b, where b's site list for the tid already includes c: the
    response back to a carries {b, c}."""
    big = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))
    app = big.application("a")

    def workload():
        tid = yield from app.begin()
        # Seed b's TranMan with knowledge of c, as if a server at b had
        # called onward to c.
        big.tranman("b").note_remote_site(tid, "c")
        yield from app.write(tid, "server0@b", "x", 1)
        return tid

    tid = big.run_process(workload())
    assert big.tranman("a").known_sites(tid) >= {"b", "c"}


def test_timeout_returns_none(system):
    system.crash_site("b")
    comman = system.runtime("a").comman

    def probe():
        msg = Message(kind="peek", body={"object": "x"})
        reply = yield from comman.call_service("server0@b", msg,
                                               timeout=200.0)
        return reply

    assert system.run_process(probe()) is None


def test_unknown_service_raises(system):
    comman = system.runtime("a").comman

    def probe():
        with pytest.raises(KeyError):
            yield from comman.call_service("nowhere", Message(kind="x"))
        return True

    assert system.run_process(probe())
