"""Unit tests for the data server (driven via its message interface)."""

import pytest

from repro import CamelotSystem, SystemConfig, TID
from repro.core.outcomes import Vote
from repro.mach.message import Message


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1}))


@pytest.fixture
def server(system):
    return system.server("server0@a")


def call(system, port, kind, **body):
    """One request; a ``tid`` travels as a :class:`TID`, the message
    contract inside a site (tests spell it as its string)."""
    if "tid" in body:
        body["tid"] = TID.parse(body["tid"])

    def body_gen():
        reply = yield from system.fabric.call(port, Message(kind=kind,
                                                            body=body),
                                              sender_site="a")
        return reply

    return system.run_process(body_gen(), timeout_ms=30_000.0)


def test_write_then_peek(system, server):
    reply = call(system, server.port, "operation",
                 tid="T1@a", op="write", object="x", value=5)
    assert reply.kind == "op_ok" and reply.body["value"] == 5
    assert server.peek("x") == 5


def test_read_returns_current_value(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=9)
    reply = call(system, server.port, "operation", tid="T1@a", op="read",
                 object="x")
    assert reply.body["value"] == 9


def test_unknown_op_raises(system, server):
    with pytest.raises(ValueError, match="unknown operation"):
        call(system, server.port, "operation", tid="T1@a", op="increment",
             object="x")


def test_first_op_joins_transaction(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=1)
    system.run_for(100.0)
    desc = system.tranman("a").families.descriptor(TID("T1@a"))
    assert desc is not None
    assert "server0@a" in desc.joined_servers


def test_join_sent_once_per_transaction(system, server):
    before = system.tracer.snapshot()
    for i in range(3):
        call(system, server.port, "operation", tid="T1@a", op="write",
             object=f"o{i}", value=i)
    delta = system.tracer.delta(before, system.tracer.snapshot())
    assert delta.get("server.join", 0) == 1


def test_update_logs_old_and_new_values(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=1)
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=2)
    records = system.runtime("a").diskman.wal.buffered_records()
    updates = [r for r in records if r.kind.value == "update"]
    assert [(u.payload["old"], u.payload["new"]) for u in updates] == \
        [(None, 1), (1, 2)]


def test_prepare_votes_yes_with_writes(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=1)
    reply = call(system, server.port, "prepare", tid="T1@a")
    assert reply.body["vote"] == Vote.YES.value
    assert reply.body["max_lsn"] >= 1


def test_prepare_votes_read_only_without_writes(system, server):
    call(system, server.port, "operation", tid="T1@a", op="read",
         object="x")
    reply = call(system, server.port, "prepare", tid="T1@a")
    assert reply.body["vote"] == Vote.READ_ONLY.value


def test_prepare_covers_family_writes(system, server):
    child = str(TID("T1@a").child(1))
    call(system, server.port, "operation", tid=child, op="write",
         object="x", value=1)
    reply = call(system, server.port, "prepare", tid="T1@a")
    assert reply.body["vote"] == Vote.YES.value


def test_abort_restores_old_values_in_order(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=1)
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=2)
    call(system, server.port, "abort", tid="T1@a")
    assert server.peek("x") is None


def test_abort_subtree_keeps_ancestor_writes(system, server):
    root, child = "T1@a", str(TID("T1@a").child(1))
    call(system, server.port, "operation", tid=root, op="write",
         object="x", value=1)
    call(system, server.port, "operation", tid=child, op="write",
         object="x", value=2)
    call(system, server.port, "abort", tid=child)
    assert server.peek("x") == 1


def test_drop_locks_releases_family(system, server):
    call(system, server.port, "operation", tid="T1@a", op="write",
         object="x", value=1)
    assert server.locks.locked_objects() == ["x"]
    call(system, server.port, "drop_locks", tid="T1@a")
    assert server.locks.locked_objects() == []
    assert server.peek("x") == 1  # values survive a commit


def test_load_state_replaces_values(server):
    server.load_state({"a": 1, "b": 2})
    assert server.peek("a") == 1 and server.peek("b") == 2
