"""Unit tests for the application layer (records, latencies, errors)."""

import pytest

from repro import (
    CamelotSystem,
    Outcome,
    ProtocolKind,
    SystemConfig,
    TID,
    TransactionAborted,
)
from repro.servers.application import TxnRecord


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1}))


def test_txn_record_tracks_latency_and_ops(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.read(tid, "server0@a", "x")
        yield from app.commit(tid)

    system.run_process(workload())
    record = app.history[0]
    assert record.operations == 2
    assert record.outcome is Outcome.COMMITTED
    assert record.latency_ms is not None and record.latency_ms > 0
    assert record.commit_latency_ms is not None
    assert record.commit_latency_ms < record.latency_ms


def test_latency_lists(system):
    app = system.application("a")

    def workload():
        for _ in range(3):
            tid = yield from app.begin()
            yield from app.write(tid, "server0@a", "x", 1)
            yield from app.commit(tid)

    system.run_process(workload())
    assert len(app.latencies_ms()) == 3
    assert len(app.commit_latencies_ms()) == 3
    assert app.committed_count() == 3


def test_abort_records_aborted_outcome(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.abort(tid)

    system.run_process(workload())
    assert app.history[0].outcome is Outcome.ABORTED
    assert app.committed_count() == 0


def test_operation_timeout_aborts_and_raises():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        system.crash_site("b")
        with pytest.raises(TransactionAborted):
            yield from app.write(tid, "server0@b", "x", 1, timeout=300.0)
        return tid

    tid = system.run_process(workload())
    # The transaction was aborted as a side effect (the paper's rule).
    assert system.tranman("a").tombstones.get(str(tid)) is Outcome.ABORTED


def test_abort_of_unknown_txn_raises(system):
    app = system.application("a")

    def workload():
        with pytest.raises(TransactionAborted):
            yield from app.abort(TID("T77@a"))
        return True

    assert system.run_process(workload())


def test_minimal_transaction_helper(system):
    app = system.application("a")

    def workload():
        record = yield from app.minimal_transaction(["server0@a"])
        return record

    record = system.run_process(workload())
    assert record.outcome is Outcome.COMMITTED
    assert record.operations == 1


def test_protocol_default_from_begin(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin(protocol=ProtocolKind.NON_BLOCKING)
        yield from app.write(tid, "server0@a", "x", 1)
        # commit() without an explicit protocol uses the begin default.
        outcome = yield from app.commit(tid)
        return (tid, outcome)

    tid, outcome = system.run_process(workload())
    assert outcome is Outcome.COMMITTED


def test_unfinished_record_has_no_latency():
    record = TxnRecord(tid=TID("T1@a"), began_at=1.0, commit_called_at=2.0)
    assert record.latency_ms is None and record.commit_latency_ms is None


def test_streaming_mode_forgets_an_aborted_transaction(system):
    app = system.application("a")
    app.keep_history = False

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.abort(tid)

    system.run_process(workload())
    assert app.aborted == 1 and not app._records and not app.history
