"""Integration: crashes and partitions against both commit protocols.

These are the scenarios the non-blocking protocol exists for (paper
§3.3): any *single* site crash or partition leaves the surviving sites
able to decide, where two-phase commit blocks.
"""

from repro import CamelotSystem, Outcome, ProtocolKind, SystemConfig


def build():
    return CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))


def start_txn(system, protocol):
    """Spawn a 3-site write transaction from site a; returns state dict."""
    app = system.application("a")
    state = {}

    def workload():
        tid = yield from app.begin(protocol=protocol)
        state["tid"] = str(tid)
        for s in system.default_services():
            yield from app.write(tid, s, "x", 9)
        outcome = yield from app.commit(tid, protocol=protocol)
        state["outcome"] = outcome

    system.spawn(workload(), name="txn")
    return state


def survivor_outcomes(system, state, sites=("b", "c")):
    tid = state.get("tid")
    return {s: system.tranman(s).tombstones.get(tid) for s in sites}


def locks_held(system, site):
    return bool(system.server(f"server0@{site}").locks.locked_objects())


# The 3-site write txn's phases (RT-PC profile, measured): ops done
# ~100ms; 2PC prepares arrive ~115, votes ~135, commit ~150.
# NB: coordinator prepare force ~115, prepares ~130, votes ~150,
# replicate ~175, commit point ~195, notify ~200.


# ------------------------------------------------------------- 2PC


def test_2pc_coordinator_crash_in_window_blocks_subordinates():
    system = build()
    state = start_txn(system, ProtocolKind.TWO_PHASE)
    system.failures.crash_at(138.0, "a")
    system.run_for(30_000.0)
    # Subordinates prepared, coordinator dead, no outcome anywhere:
    # blocked — locks held, inquiries unanswered.
    assert survivor_outcomes(system, state) == {"b": None, "c": None}
    assert locks_held(system, "b") and locks_held(system, "c")
    assert system.tracer.count("2pc.blocked_inquiry") > 2


def test_2pc_blocked_subordinates_resolve_on_recovery_presumed_abort():
    system = build()
    state = start_txn(system, ProtocolKind.TWO_PHASE)
    system.failures.crash_at(138.0, "a")
    system.failures.restart_at(5_000.0, "a")
    system.run_for(30_000.0)
    # The recovered coordinator has no commit record: presumed abort.
    outcomes = survivor_outcomes(system, state)
    assert set(outcomes.values()) == {Outcome.ABORTED}
    assert not locks_held(system, "b")
    assert system.server("server0@b").peek("x") is None


def test_2pc_coordinator_crash_after_commit_record_notifies_on_recovery():
    system = build()
    state = start_txn(system, ProtocolKind.TWO_PHASE)
    # Crash between the commit-record force and the notices requires
    # surgical timing; approximate by crashing just after commit returns
    # but before acks, then losing the notices via a partition.
    system.failures.partition_at(148.0, [["a"], ["b", "c"]])
    system.failures.crash_at(190.0, "a")
    system.failures.heal_at(200.0)
    system.failures.restart_at(2_000.0, "a")
    system.run_for(40_000.0)
    if state.get("outcome") is Outcome.COMMITTED:
        # Recovery must push the outcome to the blocked subordinates.
        outcomes = survivor_outcomes(system, state)
        assert set(outcomes.values()) == {Outcome.COMMITTED}
        assert system.server("server0@b").peek("x") == 9


def test_2pc_subordinate_crash_before_vote_aborts():
    system = build()
    state = start_txn(system, ProtocolKind.TWO_PHASE)
    system.failures.crash_at(88.0, "b")
    system.run_for(60_000.0)
    assert state.get("outcome") is Outcome.ABORTED
    assert system.tranman("c").tombstones.get(state["tid"]) in (
        Outcome.ABORTED, None)
    assert not locks_held(system, "c")


def test_2pc_message_loss_retries_still_commit():
    system = build()
    system.lan.loss_probability = 0.15
    app = system.application("a")
    committed = 0

    def workload():
        nonlocal committed
        for _ in range(5):
            try:
                tid = yield from app.begin()
                for s in system.default_services():
                    yield from app.write(tid, s, "x", 1, timeout=10_000.0)
                outcome = yield from app.commit(tid)
                if outcome is Outcome.COMMITTED:
                    committed += 1
            except Exception:
                continue

    system.spawn(workload(), name="lossy")
    system.run_for(120_000.0)
    assert committed >= 3  # retries push most through


# ------------------------------------------------------------ NB


def test_nb_coordinator_crash_pre_replication_survivors_abort():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(155.0, "a")
    system.run_for(40_000.0)
    outcomes = survivor_outcomes(system, state)
    assert set(outcomes.values()) == {Outcome.ABORTED}
    assert not locks_held(system, "b") and not locks_held(system, "c")
    assert system.tracer.count("tranman.takeover") >= 1


def test_nb_coordinator_crash_post_replication_survivors_commit():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(193.0, "a")
    system.run_for(40_000.0)
    outcomes = survivor_outcomes(system, state)
    assert set(outcomes.values()) == {Outcome.COMMITTED}
    assert system.server("server0@b").peek("x") == 9
    assert system.server("server0@c").peek("x") == 9


def test_nb_survivors_agree_for_any_single_crash_time():
    """Sweep the crash instant across the whole protocol window: the
    survivors always decide, and always agree."""
    for crash_at in (120.0, 150.0, 170.0, 185.0, 200.0):
        system = build()
        state = start_txn(system, ProtocolKind.NON_BLOCKING)
        system.failures.crash_at(crash_at, "a")
        system.run_for(40_000.0)
        outcomes = set(survivor_outcomes(system, state).values())
        assert len(outcomes) == 1, f"crash@{crash_at}: split {outcomes}"
        assert outcomes != {None}, f"crash@{crash_at}: blocked"
        assert not locks_held(system, "b"), f"crash@{crash_at}"


def test_nb_partitioned_coordinator_majority_side_decides():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.partition_at(160.0, [["a"], ["b", "c"]])
    system.run_for(40_000.0)
    outcomes = set(survivor_outcomes(system, state).values())
    assert len(outcomes) == 1 and outcomes != {None}
    # The isolated coordinator must not have decided the opposite way.
    coord_tomb = system.tranman("a").tombstones.get(state["tid"])
    if coord_tomb is not None:
        assert {coord_tomb} == outcomes


def test_nb_partition_heals_coordinator_learns_outcome():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.partition_at(160.0, [["a"], ["b", "c"]])
    system.failures.heal_at(15_000.0)
    system.run_for(60_000.0)
    tid = state["tid"]
    all_outcomes = {s: system.tranman(s).tombstones.get(tid)
                    for s in ("a", "b", "c")}
    assert len(set(all_outcomes.values())) == 1
    assert None not in all_outcomes.values()


def test_nb_two_failures_may_block_but_never_split():
    """With two of three sites dead, the survivor cannot form any quorum
    — it blocks (as it provably must) but never guesses."""
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(155.0, "a")
    system.failures.crash_at(156.0, "c")
    system.run_for(40_000.0)
    assert system.tranman("b").tombstones.get(state["tid"]) is None
    assert system.tracer.count("nb.blocked") >= 1


def test_nb_blocked_survivor_resolves_when_peer_restarts():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(155.0, "a")
    system.failures.crash_at(156.0, "c")
    system.failures.restart_at(10_000.0, "c")
    system.run_for(80_000.0)
    # With c back (prepared in its log), b+c can form the abort quorum.
    outcomes = survivor_outcomes(system, state)
    assert set(outcomes.values()) == {Outcome.ABORTED}


def test_nb_simultaneous_takeovers_agree():
    """Both survivors time out at nearly the same instant and both
    become coordinators — 'having several simultaneous coordinators is
    possible, but is not a problem'."""
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(193.0, "a")  # post-replication
    system.run_for(40_000.0)
    assert system.tracer.count("tranman.takeover") >= 2
    decided = [m for m in
               (system.tracer.of_kind("nb.takeover_decided") or [])]
    outcomes = {e.detail.get("outcome") for e in decided}
    assert outcomes == {"committed"}
    survivors = survivor_outcomes(system, state)
    assert set(survivors.values()) == {Outcome.COMMITTED}


def test_nb_subordinate_crash_mid_protocol_rest_decide():
    system = build()
    state = start_txn(system, ProtocolKind.NON_BLOCKING)
    system.failures.crash_at(160.0, "b")
    system.run_for(60_000.0)
    # a and c must agree (Qc=2 is reachable without b).
    tid = state["tid"]
    outcomes = {system.tranman(s).tombstones.get(tid) for s in ("a", "c")}
    assert len(outcomes) == 1 and outcomes != {None}

def test_2pc_subordinate_crash_in_delayed_commit_window_recovers_commit():
    """Delayed commit's exposure: b gets the commit notice ~150ms, does
    its local commit, but writes the commit record *lazily*.  Crash in
    that window — locally committed, record not yet durable — and
    recovery must re-learn COMMITTED from the coordinator by inquiry,
    never by a heuristic guess."""
    system = build()
    state = start_txn(system, ProtocolKind.TWO_PHASE)
    system.run_for(168.0)
    # Prove we are inside the window: prepare durable, commit buffered.
    wal = system.runtime("b").diskman.wal
    durable = [r.kind.name for r in wal.durable_records()]
    assert "PREPARE" in durable and "COMMIT" not in durable
    assert "COMMIT" in [r.kind.name for r in wal.buffered_records()]
    system.failures.crash("b")
    system.failures.restart_at(5_000.0, "b")
    system.run_for(60_000.0)
    assert state.get("outcome") is Outcome.COMMITTED
    tid = state["tid"]
    assert system.tranman("b").tombstones.get(tid) is Outcome.COMMITTED
    assert system.server("server0@b").peek("x") == 9
    assert not locks_held(system, "b")
    assert system.tracer.count("2pc.heuristic_resolve") == 0
    assert system.tracer.count("2pc.heuristic_damage") == 0


def test_a_crash_mid_prepare_kills_the_vote_request_and_aborts():
    """A subordinate site crashes while its TranMan waits on its data
    server's prepare vote: the vote request dies with the site (the kill
    is not an error to turn into a NO vote, so b never finishes its
    local prepare) and the coordinator aborts."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    app = system.application("a")
    seen = {}

    def workload():
        tid = yield from app.begin()
        yield from app.write(tid, "server0@a", "x", 1)
        yield from app.write(tid, "server0@b", "x", 1)
        seen["outcome"] = yield from app.commit(tid)

    system.spawn(workload())

    def asked_at_b():
        # The TranMan's ``prepare`` IPC to server0@b has been sent: it is
        # in flight, or queued at the server's port.
        return any(e.kind == "ipc.inline" and e.site == "b"
                   and e.detail["kind_of"] == "prepare"
                   for e in system.tracer.instants)

    for _ in range(100_000):
        if asked_at_b():
            break
        system.kernel.step()
    else:
        raise AssertionError("b never asked its server for a vote")
    system.crash_site("b")
    system.run_for(120_000.0)
    assert seen["outcome"] is Outcome.ABORTED
    assert not [e for e in system.tracer.of_kind("tranman.local_prepared")
                if e.site == "b"]
