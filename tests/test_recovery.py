"""Recovery: pure log analysis plus crash/restart integration."""


from repro import CamelotSystem, Outcome, ProtocolKind, SystemConfig, TID
from repro.core.quorum import QuorumSpec
from repro.log.records import (
    abort_pledge_record,
    abort_record,
    commit_record,
    coordinator_commit_record,
    end_record,
    paxos_acceptor_record,
    paxos_decision_record,
    paxos_prepare_record,
    prepare_record,
    replication_record,
    update_record,
)
from repro.servers.recovery import analyze, build_machines


def with_lsns(records):
    for i, rec in enumerate(records, start=1):
        rec.lsn = i
    return records


# --------------------------------------------------------- analyze()


def test_committed_updates_redone():
    records = with_lsns([
        update_record("T1@a", "a", "s0", "x", None, 5),
        update_record("T1@a", "a", "s0", "y", None, 6),
        coordinator_commit_record("T1@a", "a", []),
    ])
    plan = analyze("a", records)
    assert plan.redo_values == {"s0": {"x": 5, "y": 6}}
    assert plan.tombstones == {"T1@a": Outcome.COMMITTED}
    assert plan.in_doubt == []


def test_unresolved_updates_not_redone_but_pending():
    records = with_lsns([
        update_record("T1@a", "b", "s0", "x", None, 5),
        prepare_record("T1@a", "b", "a"),
    ])
    plan = analyze("b", records)
    assert plan.redo_values == {}
    assert plan.pending_redo == {"T1@a": [("s0", "x", 5)]}
    assert len(plan.in_doubt) == 1
    assert plan.in_doubt[0].protocol == "two_phase"
    assert plan.in_doubt[0].coordinator == "a"


def test_active_transaction_without_prepare_is_aborted():
    """Updates but no prepare record: crash aborted it (presumed abort);
    nothing is redone and nothing is in doubt."""
    records = with_lsns([
        update_record("T1@a", "a", "s0", "x", None, 5),
    ])
    plan = analyze("a", records)
    assert plan.redo_values == {}
    assert plan.in_doubt == []
    assert plan.pending_redo == {}


def test_aborted_subtree_updates_excluded_from_redo():
    child = str(TID("T1@a").child(1))
    records = with_lsns([
        update_record("T1@a", "a", "s0", "x", None, 1),
        update_record(child, "a", "s0", "y", None, 2),
        abort_record(child, "a"),
        coordinator_commit_record("T1@a", "a", []),
    ])
    plan = analyze("a", records)
    assert plan.redo_values == {"s0": {"x": 1}}


def test_last_committed_write_wins():
    records = with_lsns([
        update_record("T1@a", "a", "s0", "x", None, 1),
        coordinator_commit_record("T1@a", "a", []),
        update_record("T2@a", "a", "s0", "x", 1, 2),
        commit_record("T2@a", "a"),
    ])
    plan = analyze("a", records)
    assert plan.redo_values == {"s0": {"x": 2}}


def test_nb_in_doubt_carries_quorum_and_replication():
    quorum = QuorumSpec.majority(3)
    records = with_lsns([
        prepare_record("T1@a", "b", "a", sites=["a", "b", "c"],
                       quorum_sizes=quorum.to_dict()),
        replication_record("T1@a", "b", {"coordinator": "a"}),
    ])
    plan = analyze("b", records)
    entry = plan.in_doubt[0]
    assert entry.protocol == "non_blocking"
    assert entry.replicated
    assert entry.decision_data == {"coordinator": "a"}
    assert entry.quorum["commit_quorum"] == 2


def test_pledge_recovered():
    records = with_lsns([
        prepare_record("T1@a", "b", "a", sites=["a", "b"],
                       quorum_sizes=QuorumSpec.majority(2).to_dict()),
        abort_pledge_record("T1@a", "b"),
    ])
    plan = analyze("b", records)
    assert plan.pledges == {"T1@a"}
    assert plan.in_doubt[0].pledged


def test_coordinator_commit_without_end_is_unacked():
    records = with_lsns([
        coordinator_commit_record("T1@a", "a", ["b", "c"]),
    ])
    plan = analyze("a", records)
    assert len(plan.unacked_commits) == 1
    assert plan.unacked_commits[0].pending_subordinates == ["b", "c"]


def test_end_record_closes_everything():
    records = with_lsns([
        prepare_record("T1@a", "b", "a"),
        commit_record("T1@a", "b"),
        end_record("T1@a", "b"),
    ])
    plan = analyze("b", records)
    assert plan.in_doubt == [] and plan.unacked_commits == []


def test_build_machines_for_2pc_in_doubt():
    records = with_lsns([
        update_record("T1@a", "b", "s0", "x", None, 5),
        prepare_record("T1@a", "b", "a"),
    ])
    plan = analyze("b", records)
    machines = build_machines(plan, "b")
    assert len(machines) == 1
    machine, effects = machines[0]
    assert type(machine).__name__ == "TwoPhaseSubordinate"
    assert effects  # resume inquiry


def test_build_machines_for_nb_in_doubt_spawns_takeover():
    quorum = QuorumSpec.majority(3)
    records = with_lsns([
        prepare_record("T1@a", "b", "a", sites=["a", "b", "c"],
                       quorum_sizes=quorum.to_dict()),
    ])
    plan = analyze("b", records)
    machines = build_machines(plan, "b")
    names = sorted(type(m).__name__ for m, _ in machines)
    assert names == ["NbSubordinate", "NbTakeover"]


# ------------------------------------------------------- paxos commit


def test_paxos_in_doubt_rebuilds_participant_with_acceptor_state():
    records = with_lsns([
        paxos_prepare_record("T1@a", "b", "a", ["a", "b", "c"],
                             ["a", "b", "c"]),
        paxos_acceptor_record("T1@a", "b", 0,
                              [["b", 0, "yes"], ["c", 0, "yes"]],
                              leader="a", sites=["a", "b", "c"],
                              acceptors=["a", "b", "c"]),
    ])
    plan = analyze("b", records)
    entry = plan.in_doubt[0]
    assert entry.protocol == "paxos_commit"
    assert entry.coordinator == "a"
    assert entry.acceptors == ["a", "b", "c"]
    assert entry.prepared
    machines = build_machines(plan, "b")
    assert len(machines) == 1
    machine, effects = machines[0]
    assert type(machine).__name__ == "PcParticipant"
    assert machine.vote is not None                 # prepared: re-votes
    assert machine.acceptor.accepted["c"] == (0, "yes")
    assert effects                                  # resume_inquiry


def test_paxos_acceptor_record_alone_rebuilds_silent_acceptor():
    """No prepare record: the RM never voted (or voted read-only), and
    recovery must not invent a vote — ballot-0 proposer uniqueness.
    The rebuilt participant owes acceptor duties only."""
    records = with_lsns([
        paxos_acceptor_record("T1@a", "c", 4, [["b", 0, "yes"]],
                              leader="a", sites=["a", "b", "c"],
                              acceptors=["a", "b", "c"]),
    ])
    plan = analyze("c", records)
    entry = plan.in_doubt[0]
    assert entry.protocol == "paxos_commit"
    assert not entry.prepared
    machines = build_machines(plan, "c")
    machine, _ = machines[0]
    assert type(machine).__name__ == "PcParticipant"
    assert machine.vote is None
    assert machine.acceptor.promised == 4


def test_paxos_decision_without_end_rebuilds_notifying_leader():
    records = with_lsns([
        paxos_decision_record("T1@a", "a", ["b", "c"], ["a", "b", "c"]),
    ])
    plan = analyze("a", records)
    assert plan.tombstones == {"T1@a": Outcome.COMMITTED}
    unacked = plan.unacked_commits[0]
    assert unacked.protocol == "paxos_commit"
    assert unacked.acceptors == ["a", "b", "c"]
    machines = build_machines(plan, "a")
    machine, effects = machines[0]
    assert type(machine).__name__ == "PcLeader"
    assert machine.unacked == ("b", "c")
    assert effects                                  # resume_notifications


def test_paxos_decision_at_non_acceptor_site_resumes_candidate():
    """A winning candidate need not be an acceptor (with >= 4 sites the
    acceptor set is the odd prefix): its forced decision record must
    rebuild a notifying candidate, not a PcLeader — whose constructor
    rejects a site outside the acceptor set and would crash recovery."""
    records = with_lsns([
        paxos_decision_record("T1@a", "d", ["a", "b"], ["a", "b", "c"]),
    ])
    plan = analyze("d", records)
    unacked = plan.unacked_commits[0]
    assert unacked.protocol == "paxos_commit"
    machines = build_machines(plan, "d")
    machine, effects = machines[0]
    assert type(machine).__name__ == "PcCandidate"
    assert machine.outcome is Outcome.COMMITTED
    assert machine.unacked == ("a", "b")
    assert effects                                  # notify phase resumes


def test_paxos_end_record_closes_everything():
    records = with_lsns([
        paxos_prepare_record("T1@a", "b", "a", ["a", "b"], ["a"]),
        commit_record("T1@a", "b"),
        end_record("T1@a", "b"),
    ])
    plan = analyze("b", records)
    assert plan.in_doubt == [] and plan.unacked_commits == []


# -------------------------------------------------- crash + restart


def committed_then_crash(system):
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 7)
        yield from app.write(tid, "server0@a", "y", 8)
        outcome = yield from app.commit(tid)
        return outcome

    assert system.run_process(workload()) is Outcome.COMMITTED


def test_committed_values_survive_crash_restart():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    committed_then_crash(system)
    system.crash_site("a")
    system.restart_site("a")
    system.run_for(1_000.0)
    assert system.server("server0@a").peek("x") == 7
    assert system.server("server0@a").peek("y") == 8


def test_uncommitted_transaction_lost_on_crash():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    app = system.application("a")

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 99)
        # No commit: crash happens mid-transaction.

    system.run_process(workload())
    system.crash_site("a")
    system.restart_site("a")
    system.run_for(1_000.0)
    assert system.server("server0@a").peek("x") is None


def test_tombstones_rebuilt_from_log():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    committed_then_crash(system)
    system.run_for(500.0)  # lazy records flushed
    system.crash_site("a")
    system.restart_site("a")
    tm = system.tranman("a")
    assert any(o is Outcome.COMMITTED for o in tm.tombstones.values())


def test_subordinate_crash_after_prepare_resolves_in_doubt_commit():
    """Sub crashes prepared; coordinator committed meanwhile.  On
    restart, recovery inquires, learns committed, and redoes the
    in-doubt updates."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    app = system.application("a")
    state = {}

    def workload():
        tid = yield from app.begin()
        state["tid"] = str(tid)
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.write(tid, "server0@b", "x", 2)
        outcome = yield from app.commit(tid)
        state["outcome"] = outcome

    system.spawn(workload(), name="txn")
    # b votes ~t=95; its lazy commit record will not be durable yet when
    # it crashes right after the coordinator decided.
    system.failures.crash_at(118.0, "b")
    system.failures.restart_at(3_000.0, "b")
    system.run_for(60_000.0)
    if state.get("outcome") is Outcome.COMMITTED:
        assert system.server("server0@b").peek("x") == 2
        assert system.tranman("b").tombstones.get(
            state["tid"]) is Outcome.COMMITTED


def test_nb_site_crash_restart_rejoins_via_takeover():
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))
    app = system.application("a")
    state = {}

    def workload():
        tid = yield from app.begin(protocol=ProtocolKind.NON_BLOCKING)
        state["tid"] = str(tid)
        for s in system.default_services():
            yield from app.write(tid, s, "x", 3)
        outcome = yield from app.commit(tid,
                                        protocol=ProtocolKind.NON_BLOCKING)
        state["outcome"] = outcome

    system.spawn(workload(), name="txn")
    system.failures.crash_at(165.0, "b")
    system.failures.restart_at(5_000.0, "b")
    system.run_for(80_000.0)
    tid = state["tid"]
    outcomes = {s: system.tranman(s).tombstones.get(tid)
                for s in ("a", "b", "c")}
    assert len(set(outcomes.values())) == 1
    assert None not in outcomes.values()
    if outcomes["b"] is Outcome.COMMITTED:
        assert system.server("server0@b").peek("x") == 3


def test_wal_protocol_enforced_after_restart():
    """The page image on disk never runs ahead of the log, even across
    crash/restart cycles (the disk manager asserts this internally)."""
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    for round_no in range(3):
        app = system.application("a", name=f"app{round_no}")

        def workload():
            tid = yield from app.begin()
            yield from app.write(tid, "server0@a", "x", round_no)
            yield from app.commit(tid)

        system.run_process(workload())
        system.run_for(1_500.0)  # pageout cycles run
        system.crash_site("a")
        system.restart_site("a")
    system.run_for(2_000.0)
    assert system.server("server0@a").peek("x") == 2
