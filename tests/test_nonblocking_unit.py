"""Sans-IO unit tests for the non-blocking commitment protocol."""

import pytest

from repro.core.edge import PledgeAck
from repro.core.messages import (
    NbAbortJoin,
    NbAbortJoinAck,
    NbOutcome,
    NbOutcomeAck,
    NbPrepare,
    NbReplicate,
    NbReplicateAck,
    NbStateReport,
    NbStateRequest,
    NbVote,
)
from repro.core.nonblocking import (
    NB_OUTCOME_TIMER,
    NB_PREPARE_FORCE,
    NB_REPL_TIMER,
    NB_TAKEOVER_TIMER,
    NB_VOTE_TIMER,
    NbCoordinator,
    NbCoordinatorState,
    NbProtocolViolation,
    NbSubState,
    NbSubordinate,
    NbTakeover,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
SITES3 = ["a", "b", "c"]
Q3 = QuorumSpec.majority(3)


def coordinator(subs=("b", "c"), **kw):
    return MachineHost(NbCoordinator(TID1, "a", list(subs), **kw)).start()


def subordinate(site="b", sites=None, quorum=None, **kw):
    return MachineHost(NbSubordinate(TID1, site, "a", sites or SITES3,
                                     quorum or Q3, **kw)).start()


def takeover(site="b", own_status="prepared", sites=None, quorum=None,
             decision=None, **kw):
    return MachineHost(NbTakeover(TID1, site, sites or SITES3,
                                  quorum or Q3, own_status=own_status,
                                  own_decision_data=decision, **kw)).start()


def decision_data():
    return {
        "tid": str(TID1), "coordinator": "a", "sites": SITES3,
        "quorum": Q3.to_dict(),
        "votes": {"a": "yes", "b": "yes", "c": "yes"},
        "replication_targets": SITES3,
    }


# ------------------------------------------------------- happy path


def test_coordinator_prepares_before_sending_prepares():
    """Change 5: local prepare + own prepare force precede the prepare
    message."""
    host = coordinator()
    assert len(host.local_prepares) == 1
    assert host.sent == []
    host.local_prepared(Vote.YES)
    assert host.forced_kinds() == ["prepare"]
    assert host.sent == []  # still nothing on the wire
    host.complete_force()
    assert host.sent_kinds() == ["NbPrepare", "NbPrepare"]


def test_prepare_message_carries_sites_and_quorum():
    """Change 1."""
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    msg = host.sent[0][1]
    assert msg.sites == ("a", "b", "c")
    assert msg.quorum == Q3


def test_full_commit_path_counts_forces():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    # Replication phase: own replication record forced before sending.
    assert host.forced_kinds() == ["prepare", "replication"]
    host.complete_force()
    assert host.sent_kinds().count("NbReplicate") == 2
    # One ack completes the commit quorum (own record + 1 = Qc = 2).
    host.deliver(NbReplicateAck(tid=TID1, sender="b", ok=True))
    assert host.machine.state is NbCoordinatorState.NOTIFYING
    assert host.completions == [Outcome.COMMITTED]
    assert host.local_commits == [TID1]
    # The coordinator's own commit record is lazy: exactly 2 forces.
    assert host.written_kinds() == ["commit"]
    assert len(host.forced) == 2
    # Forgetting waits for every outcome ack (change 4).
    assert host.forgotten == []
    host.deliver(NbOutcomeAck(tid=TID1, sender="b"))
    host.deliver(NbOutcomeAck(tid=TID1, sender="c"))
    assert host.forgotten == [TID1]
    assert host.written_kinds() == ["commit", "end"]


def test_subordinate_two_forces_on_path():
    host = subordinate()
    host.local_prepared(Vote.YES)
    assert host.forced_kinds() == ["prepare"]
    host.complete_force()
    assert host.sent_kinds() == ["NbVote"]
    host.deliver(NbReplicate(tid=TID1, sender="a",
                             decision_data=decision_data()))
    assert host.forced_kinds() == ["prepare", "replication"]
    host.complete_force()
    acks = [m for _, m in host.sent if isinstance(m, NbReplicateAck)]
    assert acks and acks[0].ok
    host.deliver(NbOutcome(tid=TID1, sender="a", outcome=Outcome.COMMITTED))
    assert host.local_commits == [TID1]
    assert host.written_kinds() == ["commit"]  # lazy
    assert host.forgotten == [TID1]


def test_yes_vote_leaves_only_after_the_prepare_force():
    """A YES vote promises the prepare record is durable: the vote is not
    among the effects that ask for the force, only among those of its
    completion."""
    host = subordinate()
    host.local_prepared(Vote.YES)
    assert host.forced_kinds() == ["prepare"]
    assert host.pending_forces == [NB_PREPARE_FORCE]
    assert host.sent == []
    host.complete_force(NB_PREPARE_FORCE)
    assert [(d, type(m).__name__, m.vote) for d, m in host.sent] == \
        [("a", "NbVote", Vote.YES)]


def test_subordinate_prepare_record_carries_sites_and_quorum():
    host = subordinate()
    host.local_prepared(Vote.YES)
    record = host.forced[0]
    assert record.payload["sites"] == SITES3
    assert record.payload["quorum_sizes"]["commit_quorum"] == 2


# ------------------------------------------------------- read-only


def test_fully_read_only_no_forces_no_replication():
    host = coordinator()
    host.local_prepared(Vote.READ_ONLY)
    assert host.forced == []  # read-only coordinator skips its force
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.READ_ONLY))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.READ_ONLY))
    assert host.forced == [] and host.written == []
    assert host.completions == [Outcome.COMMITTED]
    assert host.forgotten == [TID1]


def test_read_only_subordinate_drops_out():
    host = subordinate()
    host.local_prepared(Vote.READ_ONLY)
    assert host.forced == []
    assert host.local_commits == [TID1]
    assert host.forgotten == [TID1]


def test_read_only_sites_drafted_as_quorum_helpers_when_needed():
    """1 update site of 3 cannot form Qc=2: a helper is drafted."""
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.READ_ONLY))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.READ_ONLY))
    host.complete_force()  # own replication record
    # One read-only site must be drafted to reach the quorum.
    replicates = [d for d, m in host.sent if isinstance(m, NbReplicate)]
    assert len(replicates) == 1


def test_read_only_coordinator_replicates_only_at_its_subordinates():
    """A coordinator that only read holds no replication record: two
    YES votes form Qc=2 by themselves, so replication starts from the
    last vote with nothing forced here, and their acks commit."""
    host = coordinator()
    host.local_prepared(Vote.READ_ONLY)
    assert host.sent_kinds() == ["NbPrepare", "NbPrepare"]
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    assert host.machine.state is NbCoordinatorState.REPLICATING
    assert host.forced == []
    assert [d for d, m in host.sent if isinstance(m, NbReplicate)] == \
        ["b", "c"]
    host.deliver(NbReplicateAck(tid=TID1, sender="b", ok=True))
    assert host.completions == []
    host.deliver(NbReplicateAck(tid=TID1, sender="c", ok=True))
    assert host.completions == [Outcome.COMMITTED]


def test_commit_weighted_coordinator_commits_on_its_own_replication():
    """Under the commit-weighted policy (Qc=1) the coordinator's own
    replication record is a commit quorum: its force is the commit
    point, and the outcome follows the replicate messages out."""
    host = coordinator(quorum=QuorumSpec.commit_weighted(3))
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()                       # own replication record
    assert host.machine.state is NbCoordinatorState.NOTIFYING
    assert host.completions == [Outcome.COMMITTED]
    assert host.sent_kinds()[-4:] == ["NbReplicate", "NbReplicate",
                                      "NbOutcome", "NbOutcome"]


def test_helper_machine_from_replicate_message():
    msg = NbReplicate(tid=TID1, sender="x", decision_data=decision_data())
    machine = NbSubordinate.helper(TID1, "c", msg)
    host = MachineHost(machine)
    host.deliver(msg)
    assert host.forced_kinds() == ["replication"]
    host.complete_force()
    acks = [m for _, m in host.sent if isinstance(m, NbReplicateAck)]
    assert acks[0].ok


# ----------------------------------------------------------- aborts


def test_no_vote_aborts_unilaterally_pre_replication():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.NO))
    assert host.completions == [Outcome.ABORTED]
    assert host.written_kinds() == ["abort"]
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert [m.outcome for m in outcomes] == [Outcome.ABORTED]  # to "c" only


def test_unilateral_abort_after_replication_is_violation():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()  # replication begins
    with pytest.raises(NbProtocolViolation):
        host.execute(host.machine.abort_now())


def test_vote_timeout_retries_then_aborts():
    host = coordinator()
    host.machine.max_prepare_retries = 1
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.fire_timer(NB_VOTE_TIMER)
    assert host.sent_kinds().count("NbPrepare") == 4  # 2 + 2 retries
    host.fire_timer(NB_VOTE_TIMER)
    assert host.completions == [Outcome.ABORTED]


def test_pledged_site_votes_no_to_late_prepare():
    host = MachineHost(NbSubordinate(TID1, "b", "a", SITES3, Q3,
                                     already_pledged=True)).start()
    votes = [m for _, m in host.sent if isinstance(m, NbVote)]
    assert votes[0].vote is Vote.NO
    assert host.local_prepares == []


# ---------------------------------------- quorum membership exclusivity


def test_replicated_site_refuses_abort_join():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbReplicate(tid=TID1, sender="a",
                             decision_data=decision_data()))
    host.complete_force()
    host.deliver(NbAbortJoin(tid=TID1, sender="c"))
    acks = [m for _, m in host.sent if isinstance(m, NbAbortJoinAck)]
    assert acks and not acks[0].ok


def test_pledged_site_refuses_replication():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbAbortJoin(tid=TID1, sender="c"))
    assert host.forced_kinds() == ["prepare", "abort_pledge"]
    host.complete_force()
    host.deliver(NbReplicate(tid=TID1, sender="a",
                             decision_data=decision_data()))
    acks = [m for _, m in host.sent if isinstance(m, NbReplicateAck)]
    assert acks and not acks[0].ok


def test_pledge_is_forced_before_acknowledged():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbAbortJoin(tid=TID1, sender="c"))
    assert not any(isinstance(m, NbAbortJoinAck) for _, m in host.sent)
    host.complete_force()
    acks = [m for _, m in host.sent if isinstance(m, NbAbortJoinAck)]
    assert acks and acks[0].ok


def test_commit_outcome_at_pledged_site_is_adopted():
    """A lone pledge keeps this site out of the commit quorum; it cannot
    veto a commit that formed from the other sites.  Quorum intersection
    rules out a decided abort coexisting, so the outcome is adopted."""
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbAbortJoin(tid=TID1, sender="c"))
    host.complete_force()
    host.deliver(NbOutcome(tid=TID1, sender="x",
                           outcome=Outcome.COMMITTED))
    assert host.machine.outcome is Outcome.COMMITTED
    assert host.machine.state is NbSubState.DONE
    assert host.local_commits == [TID1]


# -------------------------------------------------- subordinate timeout


def test_prepared_subordinate_times_out_into_takeover():
    """Change 2: subordinates do not wait forever."""
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.fire_timer(NB_OUTCOME_TIMER)
    assert host.takeover_requests == [TID1]
    assert host.machine.state is NbSubState.PREPARED  # still waiting


def test_state_report_statuses():
    host = subordinate()
    host.local_prepared(Vote.YES)
    assert host.machine.status_report()[0] == "no_state"
    host.complete_force()
    assert host.machine.status_report()[0] == "prepared"
    host.deliver(NbReplicate(tid=TID1, sender="a",
                             decision_data=decision_data()))
    host.complete_force()
    status, data = host.machine.status_report()
    assert status == "replicated"
    assert data["votes"]["b"] == "yes"


def test_state_request_answered_with_round():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbStateRequest(tid=TID1, sender="c", round=7))
    reports = [m for _, m in host.sent if isinstance(m, NbStateReport)]
    assert reports[0].status == "prepared"
    assert reports[0].round == 7


# ----------------------------------------------------------- takeover


def test_takeover_adopts_known_outcome():
    host = takeover()
    assert host.sent_kinds().count("NbStateRequest") == 2
    host.deliver(NbStateReport(tid=TID1, sender="c", status="committed"))
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert outcomes and all(m.outcome is Outcome.COMMITTED for m in outcomes)


def test_takeover_completes_commit_quorum_by_promotion():
    host = takeover(own_status="replicated", decision=decision_data())
    # One more replicated site appears: quorum reached instantly.
    host.deliver(NbStateReport(tid=TID1, sender="c", status="replicated",
                               decision_data=decision_data()))
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert outcomes and outcomes[0].outcome is Outcome.COMMITTED


def test_takeover_promotes_prepared_sites():
    host = takeover(own_status="replicated", decision=decision_data())
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    host.fire_timer(NB_TAKEOVER_TIMER)  # poll round ends: evaluate
    promotions = [m for _, m in host.sent if isinstance(m, NbReplicate)]
    assert [d for d, m in host.sent if isinstance(m, NbReplicate)] == ["c"]
    host.deliver(NbReplicateAck(tid=TID1, sender="c", ok=True))
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert outcomes and outcomes[0].outcome is Outcome.COMMITTED


def test_takeover_cannot_commit_without_replication_witness():
    """No replication record anywhere => all votes might not have been
    YES => only abort is reachable."""
    host = takeover(own_status="prepared")
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    host.fire_timer(NB_TAKEOVER_TIMER)
    assert not any(isinstance(m, NbReplicate) for _, m in host.sent)
    joins = [d for d, m in host.sent if isinstance(m, NbAbortJoin)]
    assert joins == ["c"]
    # Own pledge is forced locally.
    assert host.forced_kinds() == ["abort_pledge"]


def test_takeover_abort_quorum_completes():
    host = takeover(own_status="prepared")
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    host.fire_timer(NB_TAKEOVER_TIMER)
    host.complete_force()  # own pledge durable: 1 of Qa=2
    host.deliver(NbAbortJoinAck(tid=TID1, sender="c", ok=True))
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert outcomes and outcomes[0].outcome is Outcome.ABORTED


def test_takeover_blocked_with_insufficient_reach():
    """Two failures: a single prepared survivor can form no quorum."""
    host = takeover(own_status="prepared")
    host.fire_timer(NB_TAKEOVER_TIMER)  # nobody answered
    assert not any(isinstance(m, (NbReplicate, NbAbortJoin, NbOutcome))
                   for _, m in host.sent)
    assert NB_TAKEOVER_TIMER in host.timers  # retries later
    assert any(t.kind == "nb.blocked" for t in host.traces)


def test_takeover_refused_promotion_marks_pledged():
    host = takeover(own_status="replicated", decision=decision_data())
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    host.fire_timer(NB_TAKEOVER_TIMER)
    host.deliver(NbReplicateAck(tid=TID1, sender="c", ok=False))
    assert "c" in host.machine.pledged


def test_takeover_stands_down_on_peer_outcome():
    host = takeover(own_status="prepared")
    host.deliver(NbOutcome(tid=TID1, sender="c", outcome=Outcome.ABORTED))
    acks = [m for _, m in host.sent if isinstance(m, NbOutcomeAck)]
    assert acks
    assert host.machine.outcome is Outcome.ABORTED


def test_conflicting_peer_outcomes_raise():
    host = takeover(own_status="replicated", decision=decision_data())
    host.deliver(NbStateReport(tid=TID1, sender="c", status="replicated"))
    with pytest.raises(NbProtocolViolation):
        host.deliver(NbOutcome(tid=TID1, sender="c",
                               outcome=Outcome.ABORTED))


def test_recovered_committed_coordinator_renotifies():
    host = takeover(site="a", own_status="committed")
    outcomes = [m for _, m in host.sent if isinstance(m, NbOutcome)]
    assert len(outcomes) == 2  # b and c
    host.deliver(NbOutcomeAck(tid=TID1, sender="b"))
    host.deliver(NbOutcomeAck(tid=TID1, sender="c"))
    assert host.forgotten == [TID1]


def test_coordinator_replication_timeout_resends():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()
    before = host.sent_kinds().count("NbReplicate")
    host.fire_timer(NB_REPL_TIMER)
    assert host.sent_kinds().count("NbReplicate") == before + 2


def test_coordinator_accepts_takeover_abort_post_replication():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()
    host.deliver(NbOutcome(tid=TID1, sender="b", outcome=Outcome.ABORTED))
    assert host.completions == [Outcome.ABORTED]
    assert host.local_aborts == [TID1]


def test_already_pledged_coordinator_aborts_before_preparing():
    """A coordinator whose site granted a stateless abort pledge earlier
    (e.g. to a takeover for a transaction it then recovered) must treat
    its own YES as NO: the pledge bars this site from the commit quorum,
    and commitment starting here could put it in both."""
    host = coordinator(already_pledged=True)
    host.local_prepared(Vote.YES)
    assert host.machine.local_vote is Vote.NO
    assert host.local_aborts == [TID1]
    assert "prepare" not in host.forced_kinds()
    assert not any(isinstance(m, NbPrepare) for _, m in host.sent)


def test_coordinator_local_no_vote_aborts():
    host = coordinator()
    host.local_prepared(Vote.NO)
    assert host.completions == [Outcome.ABORTED]
    assert [d for d, m in host.sent if isinstance(m, NbOutcome)] == ["b", "c"]


def test_coordinator_quorum_must_fit_its_sites():
    with pytest.raises(ValueError):
        NbCoordinator(TID1, "a", ["b"], quorum=Q3)


def test_coordinator_before_its_vote_reports_no_state():
    host = coordinator()
    host.deliver(NbStateRequest(tid=TID1, sender="b", round=2))
    (report,) = [m for _, m in host.sent if isinstance(m, NbStateReport)]
    assert (report.status, report.round) == ("no_state", 2)


def test_takeover_resuming_a_logged_abort_renotifies():
    host = takeover(own_status="aborted")
    outcomes = [(d, m.outcome) for d, m in host.sent
                if isinstance(m, NbOutcome)]
    assert outcomes == [("a", Outcome.ABORTED), ("c", Outcome.ABORTED)]


def test_takeover_counts_reported_pledges_toward_abort():
    host = takeover(own_status="abort_pledged")
    host.deliver(NbStateReport(tid=TID1, sender="c", status="abort_pledged"))
    assert host.machine.outcome is None       # a report still missing
    host.deliver(NbStateReport(tid=TID1, sender="a", status="prepared"))
    assert host.machine.outcome is Outcome.ABORTED
    assert host.forced == []                  # both pledges were there


def test_takeover_own_promotion_short_of_the_quorum_waits():
    quorum = QuorumSpec(n_sites=3, commit_quorum=3, abort_quorum=1)
    host = takeover(quorum=quorum)
    host.deliver(NbStateReport(tid=TID1, sender="a", status="replicated",
                               decision_data=decision_data()))
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    assert host.forced_kinds() == ["replication"]
    host.complete_force()
    assert host.machine.outcome is None and host.sent_kinds()[-1] == \
        "NbReplicate"


def test_takeover_commits_on_its_own_promotion_force():
    """Prepared here, replicated at a: promoting itself completes Qc=2,
    so the forced replication record decides the commit."""
    host = takeover()
    host.deliver(NbStateReport(tid=TID1, sender="a", status="replicated",
                               decision_data=decision_data()))
    host.deliver(NbStateReport(tid=TID1, sender="c", status="prepared"))
    assert host.forced_kinds() == ["replication"]
    host.complete_force()
    assert host.machine.outcome is Outcome.COMMITTED
    assert host.sent_kinds()[-2:] == ["NbOutcome", "NbOutcome"]


def test_stateless_pledge_answers_every_waiter_once_forced():
    """The edge's one-shot pledge machine: force, then ack each
    NbAbortJoin that waited on the force."""
    forced = []
    host = MachineHost(PledgeAck(TID1, "b", forced=forced.append)).start()
    assert host.forced_kinds() == ["abort_pledge"]
    host.machine.waiters += ["a", "c"]
    host.complete_force()
    assert forced == [str(TID1)]
    assert [(d, type(m).__name__, m.ok) for d, m in host.sent] == [
        ("a", "NbAbortJoinAck", True), ("c", "NbAbortJoinAck", True)]


def test_coordinator_adopts_a_takeover_commit_post_replication():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()
    host.deliver(NbOutcome(tid=TID1, sender="b", outcome=Outcome.COMMITTED))
    assert host.completions == [Outcome.COMMITTED]
    assert host.local_commits == [TID1] and host.forgotten == [TID1]
    assert host.written_kinds() == ["commit"]


def test_takeover_commits_on_refused_pledges_at_the_next_evaluation():
    """Pledge refusals are replication evidence: once they make a
    commit quorum, the next round's evaluation commits."""
    host = takeover()
    host.deliver(NbStateReport(tid=TID1, sender="a", status="prepared"))
    host.deliver(NbStateReport(tid=TID1, sender="c", status="no_state"))
    assert host.forced_kinds() == ["abort_pledge"]      # pledging
    for site in ("a", "c"):
        host.deliver(NbAbortJoinAck(tid=TID1, sender=site, ok=False))
    assert host.machine.outcome is None
    host.fire_timer(NB_TAKEOVER_TIMER)                  # a new round
    host.fire_timer(NB_TAKEOVER_TIMER)                  # nobody answered
    assert host.machine.outcome is Outcome.COMMITTED
