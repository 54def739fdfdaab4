"""Integration: distributed two-phase commit through the whole stack."""

import pytest

from repro import (
    CamelotSystem,
    Outcome,
    SystemConfig,
    TransactionAborted,
    TwoPhaseVariant,
)
from repro.sim.process import Sleep


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))


def distributed_txn(system, app, services, op="write",
                    variant=TwoPhaseVariant.OPTIMIZED):
    def workload():
        tid = yield from app.begin()
        for i, service in enumerate(services):
            if op == "write":
                yield from app.write(tid, service, "x", i)
            else:
                yield from app.read(tid, service, "x")
        outcome = yield from app.commit(tid, variant=variant)
        return (tid, outcome)

    return system.run_process(workload(), timeout_ms=120_000.0)


def test_two_site_commit_applies_everywhere(system):
    app = system.application("a")
    tid, outcome = distributed_txn(system, app,
                                   ["server0@a", "server0@b"])
    assert outcome is Outcome.COMMITTED
    assert system.server("server0@a").peek("x") == 0
    assert system.server("server0@b").peek("x") == 1


def test_comman_spying_discovers_subordinates(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@b", "x", 1)
        yield from app.write(tid, "server0@c", "x", 1)
        return tid

    tid = system.run_process(workload())
    known = system.tranman("a").known_sites(tid)
    assert known == {"b", "c"}


def test_optimized_2pc_log_forces_and_datagrams(system):
    """The headline §3.2 counts: 2 forces and 3 protocol datagrams for a
    1-subordinate optimized update commit."""
    app = system.application("a")
    before = system.tracer.snapshot()
    distributed_txn(system, app, ["server0@a", "server0@b"])
    delta = system.tracer.delta(before, system.tracer.snapshot())
    assert delta.get("diskman.force", 0) == 2
    assert delta.get("tranman.datagram", 0) == 3  # prepare, vote, commit


def test_unoptimized_adds_subordinate_force_and_ack_datagram(system):
    app = system.application("a")
    before = system.tracer.snapshot()
    distributed_txn(system, app, ["server0@a", "server0@b"],
                    variant=TwoPhaseVariant.UNOPTIMIZED)
    system.run_for(1_000.0)  # let the ack land
    delta = system.tracer.delta(before, system.tracer.snapshot())
    assert delta.get("diskman.force", 0) == 3  # + sub commit force
    assert delta.get("tranman.datagram", 0) == 4  # + immediate ack


def test_optimized_ack_is_piggybacked_eventually(system):
    """The delayed ack still arrives (via the piggyback sweep) and the
    coordinator then writes its end record and forgets."""
    app = system.application("a")
    tid, __ = distributed_txn(system, app, ["server0@a", "server0@b"])
    system.run_for(3_000.0)
    tm_a = system.tranman("a")
    assert tid not in tm_a.machines
    assert system.tracer.count("tranman.piggyback") >= 1
    end_records = [r for r in system.stores.for_site("a").records()
                   if r.kind.value == "end"]
    assert len(end_records) == 1


def test_subordinate_drops_locks_before_commit_record_durable(system):
    """The §3.2 reordering, observed end to end: at the subordinate the
    locks drop at commit-notice time while the commit record is still
    volatile."""
    app = system.application("a")
    tid, __ = distributed_txn(system, app, ["server0@a", "server0@b"])
    # Give the commit notice time to reach b, but stop well before the
    # lazy-flush sweep (~35 ms) makes the commit record durable.
    system.run_for(18.0)
    server_b = system.server("server0@b")
    assert server_b.locks.locked_objects() == []
    wal_b = system.runtime("b").diskman.wal
    buffered = [r.kind.value for r in wal_b.buffered_records()]
    assert "commit" in buffered  # lazy, not yet durable


def test_read_only_transaction_no_forces_two_datagrams(system):
    app = system.application("a")
    before = system.tracer.snapshot()
    __, outcome = distributed_txn(system, app,
                                  ["server0@a", "server0@b"], op="read")
    assert outcome is Outcome.COMMITTED
    delta = system.tracer.delta(before, system.tracer.snapshot())
    assert delta.get("diskman.force", 0) == 0
    assert delta.get("tranman.datagram", 0) == 2  # prepare, read vote


def test_mixed_read_write_sites(system):
    """Read-only subordinate is omitted from phase two."""
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 7)   # update: local
        yield from app.read(tid, "server0@b", "x")       # read-only sub
        yield from app.write(tid, "server0@c", "x", 9)   # update sub
        outcome = yield from app.commit(tid)
        return outcome

    before = system.tracer.snapshot()
    assert system.run_process(workload()) is Outcome.COMMITTED
    delta = system.tracer.delta(before, system.tracer.snapshot())
    # prepares to b and c + votes + commit notice only to c.
    assert delta.get("tranman.datagram", 0) == 5
    assert system.server("server0@c").peek("x") == 9


def test_subordinate_no_vote_aborts_everywhere(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.write(tid, "server0@b", "x", 2)
        system.server("server0@b").refuse_next_prepare.add(tid.top_level)
        outcome = yield from app.commit(tid)
        return outcome

    assert system.run_process(workload()) is Outcome.ABORTED
    system.run_for(2_000.0)
    assert system.server("server0@a").peek("x") is None
    assert system.server("server0@b").peek("x") is None


def test_three_subordinates_commit(system):
    big = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1, "d": 1}))
    app = big.application("a")
    services = big.default_services()
    tid, outcome = distributed_txn(big, app, services)
    assert outcome is Outcome.COMMITTED
    for service in services:
        assert big.server(service).peek("x") is not None


def test_multicast_mode_still_correct(three_sites_multicast=None):
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1},
                                        use_multicast=True))
    app = system.application("a")
    tid, outcome = distributed_txn(system, app, system.default_services())
    assert outcome is Outcome.COMMITTED
    assert system.tracer.count("tranman.multicast") >= 2  # prepare+commit


def test_atomicity_all_sites_agree(system):
    """After any committed distributed transaction every participant's
    tombstone agrees."""
    app = system.application("a")
    tid, outcome = distributed_txn(system, app, system.default_services())
    system.run_for(3_000.0)
    outcomes = set()
    for name in system.site_names():
        tomb = system.tranman(name).tombstones.get(str(tid))
        if tomb is not None:
            outcomes.add(tomb)
    assert outcomes == {Outcome.COMMITTED}


def test_decided_bookkeeping_is_kept_for_one_retention_window(system):
    """A run three retention horizons long (orphan + protocol timeout):
    each TranMan keeps tombstones and read-only votes for the last
    window's transactions only, and drops the early ones."""
    app = system.application("a")
    horizon = system.cost.orphan_timeout + system.cost.protocol_timeout
    done = []

    def workload():
        for i in range(int(3 * horizon / 1_000.0)):
            tid = yield from app.begin()
            yield from app.write(tid, "server0@a", "x", i)
            yield from app.write(tid, "server0@b", "x", i)
            yield from app.read(tid, "server0@c", "x")
            yield from app.commit(tid)
            done.append((system.kernel.now, str(tid)))
            yield Sleep(1_000.0)

    system.run_process(workload(), timeout_ms=4 * horizon)
    end = done[-1][0]
    recent = {tid for t, tid in done if t > end - horizon + 1_000.0}
    window = {tid for t, tid in done if t >= end - horizon - 1_000.0}
    first, last = done[0][1], done[-1][1]
    for site in ("a", "b"):
        tombstones = set(system.tranman(site).tombstones)
        assert recent <= tombstones <= window, site
        assert first not in tombstones and last in tombstones
    read_only = system.tranman("c").read_only_votes
    assert recent <= read_only <= window
    assert first not in read_only and last in read_only
    assert len(window) < len(done) / 2


@pytest.mark.parametrize("when", ["voting", "decided"])
def test_abort_racing_a_running_commit(system, when):
    """An abort-transaction call that lands while the family's commit
    machine runs: before the decision it aborts the machine, and the
    commit reports the abort; after the decision the abort loses."""
    app, tm = system.application("a"), system.tranman("a")
    seen = {}

    def committer():
        tid = seen["tid"] = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.write(tid, "server0@b", "x", 1)
        try:
            seen["commit"] = yield from app.commit(tid)
        except TransactionAborted as exc:
            seen["commit"] = exc.reason

    def aborter():
        while True:
            machine = tm.machines.get(seen.get("tid"))
            if machine is not None and \
                    (machine.outcome is None) == (when == "voting"):
                break
            yield Sleep(0.1)
        try:
            seen["abort"] = yield from app.abort(seen["tid"])
        except TransactionAborted as exc:
            seen["abort"] = exc.reason

    system.spawn(committer(), "committer")
    system.spawn(aborter(), "aborter")
    system.run_for(60_000.0)
    if when == "voting":
        assert (seen["commit"], seen["abort"]) == (Outcome.ABORTED,
                                                   Outcome.ABORTED)
        assert (app.committed_count(), app.aborted) == (0, 1)
        assert system.server("server0@b").peek("x") is None
    else:
        assert (seen["commit"], seen["abort"]) == (Outcome.COMMITTED,
                                                   "already decided")
        assert (app.committed_count(), app.aborted) == (1, 0)
        assert system.server("server0@b").peek("x") == 1
