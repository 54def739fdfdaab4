"""Unit tests for the Paxos Commit machines, hand-cranked sans-IO.

The load-bearing shape is F=0: with the leader as sole acceptor the
protocol must trace optimized 2PC exactly — one forced prepare at the
subordinate, one forced decision at the leader, three protocol
datagrams, the final ack piggybacked lazily.  F=1 adds the acceptor
round (durable ballot-0 acceptances, phase-2b reports).  Every handler
must also shrug off duplicate delivery: the chaos duplication mode
replays arbitrary datagrams, so each duplicate case here mirrors a
schedule the sweeps actually generate.
"""

import pytest

from repro.core.messages import (
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcPhase2b,
    PcPrepare,
    PcVote,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.paxoscommit import (
    PC_ACCEPT_FORCE,
    PC_COMMIT_DURABLE,
    PC_DECIDE_FORCE,
    PC_NOTIFY_TIMER,
    PC_OUTCOME_TIMER,
    PC_PREPARE_FORCE,
    PC_VOTE_TIMER,
    PcLeader,
    PcLeaderState,
    PcParticipant,
    PcProtocolViolation,
    PcSubState,
)
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
Q1 = QuorumSpec.paxos(1)
Q3 = QuorumSpec.paxos(3)
SITES2 = ["a", "b"]
SITES3 = ["a", "b", "c"]


def f0_leader():
    """F=0: leader a, subordinate b, leader is the sole acceptor."""
    return MachineHost(PcLeader(TID1, "a", ["b"], ["a"], Q1)).start()


def f0_participant():
    return MachineHost(PcParticipant(TID1, "b", "a", SITES2, ["a"],
                                     Q1)).start()


def f1_leader():
    """F=1: three sites, all acceptors."""
    return MachineHost(PcLeader(TID1, "a", ["b", "c"], SITES3, Q3)).start()


def vote_from(sender, vote=Vote.YES, acceptors=("a",), sites=SITES2):
    return PcVote(TID1, sender, vote=vote, leader="a",
                  sites=tuple(sites), acceptors=tuple(acceptors))


# --------------------------------------------------- F=0: the 2PC shape


def test_f0_leader_happy_path_is_2pc_shaped():
    host = f0_leader()
    assert len(host.local_prepares) == 1
    assert host.sent_kinds() == ["PcPrepare"]
    assert PC_VOTE_TIMER in host.timers

    host.local_prepared(Vote.YES)
    # Own instance chosen immediately (sole acceptor); still waiting on b.
    assert host.forced == [] and host.machine.state is PcLeaderState.COLLECTING

    host.deliver(vote_from("b"))
    # The single force of the whole leader lifetime: the decision record.
    assert host.pending_forces == [PC_DECIDE_FORCE]
    assert host.forced_kinds() == ["coord_commit"]
    assert PC_VOTE_TIMER not in host.timers

    host.complete_force(PC_DECIDE_FORCE)
    assert host.messages_to("b") and \
        isinstance(host.messages_to("b")[-1], PcOutcome)
    assert host.local_commits == [TID1]
    assert host.completions == [Outcome.COMMITTED]
    assert PC_NOTIFY_TIMER in host.timers

    host.deliver(PcOutcomeAck(TID1, "b"))
    assert host.written_kinds() == ["end"]
    assert host.forgotten == [TID1]
    # Totals: 1 force, 2 datagrams sent (prepare, outcome).
    assert len(host.forced) == 1 and len(host.sent) == 2


def test_f0_participant_happy_path_is_2pc_shaped():
    host = f0_participant()
    assert len(host.local_prepares) == 1

    host.local_prepared(Vote.YES)
    assert host.pending_forces == [PC_PREPARE_FORCE]
    assert host.forced_kinds() == ["prepare"]
    assert host.sent == []          # vote only after the force

    host.complete_force(PC_PREPARE_FORCE)
    [(dst, msg)] = host.sent
    assert dst == "a" and isinstance(msg, PcVote)
    assert msg.vote is Vote.YES
    assert PC_OUTCOME_TIMER in host.timers

    host.deliver(PcOutcome(TID1, "a", outcome=Outcome.COMMITTED))
    assert host.local_commits == [TID1]
    assert host.written_kinds() == ["commit"]          # lazy, not forced
    assert host.pending_durable == [PC_COMMIT_DURABLE]

    host.complete_durable(PC_COMMIT_DURABLE)
    [(dst, ack)] = host.lazy_sent                       # piggybacked ack
    assert dst == "a" and isinstance(ack, PcOutcomeAck)
    assert host.forgotten == [TID1]
    # Totals: 1 force, 1 eager datagram — with the leader's side that is
    # the optimized-2PC bill of 2 forces / 3 datagrams.
    assert len(host.forced) == 1 and len(host.sent) == 1


def test_f0_leader_aborts_on_explicit_no_vote():
    host = f0_leader()
    host.local_prepared(Vote.YES)
    host.deliver(vote_from("b", vote=Vote.NO))
    assert host.local_aborts == [TID1]
    assert host.written_kinds() == ["abort"]            # never forced
    assert host.completions == [Outcome.ABORTED]
    assert host.forgotten == [TID1]
    # b voted NO: it knows, no outcome datagram owed.
    assert host.sent_kinds() == ["PcPrepare"]


def test_f0_participant_no_vote_drops_out_presumed_abort():
    host = f0_participant()
    host.local_prepared(Vote.NO)
    assert [type(m).__name__ for _, m in host.sent] == ["PcVote"]
    assert host.forced == []                             # nothing durable
    assert host.local_aborts == [TID1]
    assert host.written_kinds() == ["abort"]
    assert host.forgotten == [TID1]


def test_f0_fully_read_only_commits_with_no_durable_state():
    host = f0_leader()
    host.local_prepared(Vote.READ_ONLY)
    host.deliver(vote_from("b", vote=Vote.READ_ONLY))
    assert host.forced == [] and host.written == []
    assert host.local_commits == [TID1]
    assert host.completions == [Outcome.COMMITTED]
    assert host.forgotten == [TID1]


def test_f0_vote_timeout_aborts_like_2pc():
    host = MachineHost(PcLeader(TID1, "a", ["b"], ["a"], Q1)).start()
    host.machine.max_vote_retries = 0
    host.local_prepared(Vote.YES)
    host.fire_timer(PC_VOTE_TIMER)
    # Sole acceptor: no acceptance can exist elsewhere, timeout abort is
    # as safe as 2PC's.
    assert host.completions == [Outcome.ABORTED]
    assert host.takeover_requests == []


# ------------------------------------------------- F=1: the acceptor round


def test_f1_leader_forces_prepare_before_voting():
    host = f1_leader()
    host.local_prepared(Vote.YES)
    # With remote acceptors the leader's own ballot-0 acceptance must be
    # durable before its vote fans out (the vote IS the phase-2a).
    assert host.pending_forces == [PC_PREPARE_FORCE]
    assert not any(isinstance(m, PcVote) for _, m in host.sent)
    host.complete_force(PC_PREPARE_FORCE)
    votes = [d for d, m in host.sent if isinstance(m, PcVote)]
    assert sorted(votes) == ["b", "c"]


def test_f1_leader_decides_only_on_acceptor_quorum_per_instance():
    host = f1_leader()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)

    # Co-location: a vote from acceptor site b is also b's phase-2b for
    # its own instance, and our embedded acceptor accepts it (forced).
    host.deliver(vote_from("b", acceptors=SITES3, sites=SITES3))
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    while PC_ACCEPT_FORCE in host.pending_forces:
        host.complete_force(PC_ACCEPT_FORCE)
    # Tally: a@{a}, b@{a,b}, c@{a,c} — instance a still below quorum 2.
    assert PC_DECIDE_FORCE not in host.pending_forces

    # b's acceptor reports its durable acceptance of a's instance.
    host.deliver(PcPhase2b(TID1, "b", ballot=0,
                           votes=(("a", Vote.YES.value),)))
    assert host.pending_forces == [PC_DECIDE_FORCE]
    host.complete_force(PC_DECIDE_FORCE)
    outcomes = [d for d, m in host.sent if isinstance(m, PcOutcome)]
    assert sorted(outcomes) == ["b", "c"]


def test_f1_vote_timeout_starts_election_not_unilateral_abort():
    host = MachineHost(PcLeader(TID1, "a", ["b", "c"], SITES3, Q3)).start()
    host.machine.max_vote_retries = 0
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.fire_timer(PC_VOTE_TIMER)
    # A candidate may already be assembling a commit from durable
    # ballot-0 acceptances; only an election may decide.
    assert host.takeover_requests == [TID1]
    assert host.completions == []
    # The election owns the retry loop now: re-arming the vote timer
    # would emit StartTakeover on every firing forever.
    assert PC_VOTE_TIMER not in host.timers


def test_f1_participant_acceptor_forces_before_phase2b_reply():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.sent.clear()

    # c's vote reaches b's co-located acceptor.
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    assert host.pending_forces == [PC_ACCEPT_FORCE]
    assert host.sent == []                   # reply held until durable
    host.complete_force(PC_ACCEPT_FORCE)
    [(dst, reply)] = host.sent
    assert dst == "a" and isinstance(reply, PcPhase2b)
    assert reply.votes == (("c", Vote.YES.value),)


def test_participant_outcome_timeout_requests_takeover():
    host = f0_participant()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.fire_timer(PC_OUTCOME_TIMER)
    assert host.takeover_requests == [TID1]
    assert PC_OUTCOME_TIMER in host.timers               # re-armed


# ------------------------------------------------------ duplicate delivery


def test_duplicate_vote_at_f0_leader_is_idempotent():
    host = f0_leader()
    host.local_prepared(Vote.YES)
    host.deliver(vote_from("b"))
    host.deliver(vote_from("b"))                         # wire duplicate
    assert host.forced_kinds() == ["coord_commit"]       # exactly one
    host.complete_force(PC_DECIDE_FORCE)
    before = len(host.sent)
    # Post-decision duplicate: answered with the outcome, nothing else.
    host.deliver(vote_from("b"))
    assert isinstance(host.sent[-1][1], PcOutcome)
    assert len(host.sent) == before + 1
    assert host.completions == [Outcome.COMMITTED]


def test_duplicate_outcome_at_participant_is_idempotent():
    host = f0_participant()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    outcome = PcOutcome(TID1, "a", outcome=Outcome.COMMITTED)
    host.deliver(outcome)
    # Second copy while the commit record is still in flight: silent —
    # the ack promises durability, so we let the notifier retry.
    host.deliver(outcome)
    assert host.local_commits == [TID1]
    assert host.written_kinds() == ["commit"]
    host.complete_durable(PC_COMMIT_DURABLE)
    assert host.forgotten == [TID1]
    # Copies after durability are the tombstone layer's problem (the
    # machine is forgotten); at the machine they stay inert.
    sends = len(host.sent)
    host.deliver(outcome)
    assert host.local_commits == [TID1]
    assert len(host.sent) == sends


def test_duplicate_ack_at_leader_writes_one_end_record():
    host = f0_leader()
    host.local_prepared(Vote.YES)
    host.deliver(vote_from("b"))
    host.complete_force(PC_DECIDE_FORCE)
    host.deliver(PcOutcomeAck(TID1, "b"))
    host.deliver(PcOutcomeAck(TID1, "b"))
    assert host.written_kinds() == ["end"]
    assert host.forgotten == [TID1]


def test_duplicate_prepare_at_prepared_participant_revotes():
    host = f0_participant()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.deliver(PcPrepare(TID1, "a", sites=tuple(SITES2),
                           acceptors=("a",)))
    votes = [m for _, m in host.sent if isinstance(m, PcVote)]
    assert len(votes) == 2                               # original + re-vote
    assert len(host.forced) == 1                         # no second force


def test_duplicate_vote_at_acceptor_resends_phase2b_without_force():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    host.complete_force(PC_ACCEPT_FORCE)
    forces = len(host.forced)
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    assert len(host.forced) == forces                    # durable already
    assert isinstance(host.sent[-1][1], PcPhase2b)       # just resent


def test_duplicate_p1a_resends_promise_without_force():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    p1a = PcP1a(TID1, "c", ballot=6, leader="c",
                sites=tuple(SITES3), acceptors=tuple(SITES3))
    host.deliver(p1a)
    assert host.pending_forces == [PC_ACCEPT_FORCE]
    assert not any(isinstance(m, PcPhase2b) or hasattr(m, "promised")
                   for _, m in host.sent[-1:])
    host.complete_force(PC_ACCEPT_FORCE)
    replies = [m for _, m in host.sent if hasattr(m, "promised")]
    assert len(replies) == 1 and replies[0].promised == 6
    forces = len(host.forced)
    host.deliver(p1a)                                    # duplicate
    assert len(host.forced) == forces
    replies = [m for _, m in host.sent if hasattr(m, "promised")]
    assert len(replies) == 2                             # resent, no force


def test_stale_lower_ballot_p1a_nacked_from_durable_state():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.deliver(PcP1a(TID1, "c", ballot=6, leader="c",
                       sites=tuple(SITES3), acceptors=tuple(SITES3)))
    host.complete_force(PC_ACCEPT_FORCE)
    forces = len(host.forced)
    host.deliver(PcP1a(TID1, "b2", ballot=2, leader="b2",
                       sites=tuple(SITES3), acceptors=tuple(SITES3)))
    # Nack straight from durable state: promised=6 in the reply, no force.
    assert len(host.forced) == forces
    nack = host.sent[-1][1]
    assert nack.promised == 6


# --------------------------------- review regressions: durability races


def test_ro_acceptor_participant_forces_before_voting():
    """An acceptor site's READ_ONLY vote doubles as its durable ballot-0
    phase-2b at the leader, but forces no prepare record — so the
    acceptor record must land before the vote may go out."""
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.READ_ONLY)
    assert host.local_commits == [TID1]              # read locks dropped
    assert host.pending_forces == [PC_ACCEPT_FORCE]
    assert host.sent == []                           # vote held
    assert host.machine.state is PcSubState.ACCEPTING
    host.complete_force(PC_ACCEPT_FORCE)
    votes = [(d, m) for d, m in host.sent if isinstance(m, PcVote)]
    assert sorted(d for d, _ in votes) == ["a", "c"]
    assert all(m.vote is Vote.READ_ONLY for _, m in votes)


def test_ro_acceptor_revote_waits_for_the_inflight_force():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.READ_ONLY)
    host.deliver(PcPrepare(TID1, "a", sites=tuple(SITES3),
                           acceptors=tuple(SITES3)))
    assert host.sent == []           # re-vote rides the pending force too
    host.complete_force(PC_ACCEPT_FORCE)
    votes = [m for _, m in host.sent if isinstance(m, PcVote)]
    assert len(votes) == 4                    # 2 originals + 2 re-votes


def test_ro_leader_forces_before_tallying_own_instance():
    """The leader's own READ_ONLY vote is its acceptor's ballot-0
    phase-2b: it may neither count toward the instance quorum nor fan
    out to remote acceptors until the acceptor record is durable —
    otherwise a crash-restart could retract a counted acceptance and a
    later candidate could choose abort after commit was decided."""
    host = f1_leader()
    host.local_prepared(Vote.READ_ONLY)
    assert host.pending_forces == [PC_ACCEPT_FORCE]
    assert host.sent_kinds() == ["PcPrepare", "PcPrepare"]   # no votes yet
    assert host.machine.tally == {}                          # no phantom
    host.complete_force(PC_ACCEPT_FORCE)
    votes = [d for d, m in host.sent if isinstance(m, PcVote)]
    assert sorted(votes) == ["b", "c"]
    assert host.machine.tally == {"a": {"a"}}


def test_duplicate_p1a_during_inflight_force_defers_reply():
    """With the duplication fault a second P1a can arrive while the
    first copy's PC_ACCEPT_FORCE is still in flight; replying from
    in-memory state would hand a candidate a promise a crash can still
    retract, breaking quorum intersection."""
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.sent.clear()
    p1a = PcP1a(TID1, "c", ballot=6, leader="c",
                sites=tuple(SITES3), acceptors=tuple(SITES3))
    host.deliver(p1a)
    host.deliver(p1a)              # duplicate while the force is pending
    assert host.sent == []                        # both replies held
    assert host.pending_forces == [PC_ACCEPT_FORCE]   # and just one force
    host.complete_force(PC_ACCEPT_FORCE)
    replies = [m for _, m in host.sent if hasattr(m, "promised")]
    assert len(replies) == 2 and all(r.promised == 6 for r in replies)


def test_duplicate_vote_during_inflight_force_defers_2b_resend():
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.sent.clear()
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    assert host.sent == []                        # resend held as well
    host.complete_force(PC_ACCEPT_FORCE)
    replies = [m for _, m in host.sent if isinstance(m, PcPhase2b)]
    assert len(replies) == 2


def test_interleaved_forces_release_batches_in_order():
    """Each durability batch is released by its *own* force completion:
    an earlier force landing must not flush replies whose record is
    still on its way to the platter."""
    host = MachineHost(PcParticipant(TID1, "b", "a", SITES3, SITES3,
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.sent.clear()
    host.deliver(vote_from("c", acceptors=SITES3, sites=SITES3))
    host.deliver(PcP1a(TID1, "c", ballot=6, leader="c",
                       sites=tuple(SITES3), acceptors=tuple(SITES3)))
    assert host.pending_forces == [PC_ACCEPT_FORCE, PC_ACCEPT_FORCE]
    host.complete_force(PC_ACCEPT_FORCE)
    assert [type(m).__name__ for _, m in host.sent] == ["PcPhase2b"]
    host.complete_force(PC_ACCEPT_FORCE)
    assert [type(m).__name__ for _, m in host.sent] == ["PcPhase2b",
                                                        "PcP1b"]


def test_recovered_ro_acceptor_restores_durable_read_only_vote():
    """prepared=False with a durable ballot-0 self-acceptance of
    READ_ONLY is a forced read-only vote: restore it so retried
    prepares can be re-answered (it cannot invent a YES)."""
    sub = PcParticipant.recovered(
        TID1, "b", "a", SITES3, SITES3, prepared=False,
        accepted=[["b", 0, Vote.READ_ONLY.value]])
    assert sub.state is PcSubState.ACCEPTING
    assert sub.vote is Vote.READ_ONLY


# ----------------------------------------------------------- misc safety


def test_leader_must_be_an_acceptor():
    with pytest.raises(PcProtocolViolation, match="acceptor set"):
        PcLeader(TID1, "a", ["b"], ["b"], Q1)


def test_machines_refuse_double_start():
    leader = f0_leader()
    with pytest.raises(PcProtocolViolation, match="twice"):
        leader.machine.start()
    sub = f0_participant()
    with pytest.raises(PcProtocolViolation, match="twice"):
        sub.machine.start()


def test_conflicting_ballot0_values_raise():
    host = f1_leader()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.deliver(PcPhase2b(TID1, "b", ballot=0,
                           votes=(("c", Vote.YES.value),)))
    with pytest.raises(PcProtocolViolation, match="two ballot-0 values"):
        host.deliver(PcPhase2b(TID1, "b", ballot=0,
                               votes=(("c", Vote.READ_ONLY.value),)))


def test_leader_adopts_candidate_outcome():
    host = f1_leader()
    host.local_prepared(Vote.YES)
    host.complete_force(PC_PREPARE_FORCE)
    host.deliver(PcOutcome(TID1, "b", outcome=Outcome.ABORTED))
    assert host.local_aborts == [TID1]
    assert host.completions == [Outcome.ABORTED]
    assert isinstance(host.sent[-1][1], PcOutcomeAck)
    assert host.forgotten == [TID1]


# ----------------------------------------------------------- recovery API


def test_recovered_participant_resumes_inquiry():
    sub = PcParticipant.recovered(
        TID1, "b", "a", SITES3, SITES3, promised=4,
        accepted=[["b", 0, Vote.YES.value], ["c", 0, Vote.YES.value]])
    assert sub.state is PcSubState.PREPARED
    assert sub.vote is Vote.YES
    assert sub.acceptor is not None
    assert sub.acceptor.promised == 4
    assert sub.acceptor.accepted["c"] == (0, Vote.YES.value)
    host = MachineHost(sub)
    host.execute(sub.resume_inquiry())
    votes = [d for d, m in host.sent if isinstance(m, PcVote)]
    assert sorted(votes) == ["a", "c"]
    assert PC_OUTCOME_TIMER in host.timers


def test_recovered_acceptor_only_participant_stays_silent():
    """No prepare record: the RM never voted, and recovery must not
    invent one (ballot-0 proposer uniqueness) — acceptor duties only."""
    sub = PcParticipant.recovered(TID1, "b", "a", SITES3, SITES3,
                                  prepared=False)
    assert sub.state is PcSubState.ACCEPTING
    assert sub.vote is None
    host = MachineHost(sub)
    host.execute(sub.resume_inquiry())
    assert not any(isinstance(m, PcVote) for _, m in host.sent)
    assert PC_OUTCOME_TIMER in host.timers


def test_recovered_leader_resumes_notifications():
    leader = PcLeader.recovered(TID1, "a", ["b", "c"], SITES3)
    assert leader.outcome is Outcome.COMMITTED
    host = MachineHost(leader)
    host.execute(leader.resume_notifications())
    outcomes = [d for d, m in host.sent if isinstance(m, PcOutcome)]
    assert sorted(outcomes) == ["b", "c"]
    assert host.local_commits == [TID1]
    host.deliver(PcOutcomeAck(TID1, "b"))
    host.deliver(PcOutcomeAck(TID1, "c"))
    assert host.written_kinds() == ["end"]
    assert host.forgotten == [TID1]
