"""Sans-IO unit tests for the two-phase commit state machines."""

import pytest

from repro.core.messages import (
    AbortNotice,
    CommitAck,
    CommitNotice,
    InquiryResponse,
    PrepareRequest,
    TxnInquiry,
    VoteResponse,
)
from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.tid import TID
from repro.core.twophase import (
    ACK_TIMER,
    ProtocolViolation,
    SubordinateState,
    TwoPhaseCoordinator,
    TwoPhaseSubordinate,
    OUTCOME_TIMER,
    VOTE_TIMER,
)

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")


def coordinator(subs=("b",), variant=TwoPhaseVariant.OPTIMIZED, **kw):
    return MachineHost(TwoPhaseCoordinator(TID1, "a", list(subs),
                                           variant=variant, **kw)).start()


def subordinate(variant=TwoPhaseVariant.OPTIMIZED, **kw):
    return MachineHost(TwoPhaseSubordinate(TID1, "b", "a", variant=variant,
                                           **kw)).start()


# ------------------------------------------------------- happy path


def test_coordinator_happy_path_update():
    host = coordinator()
    assert host.sent_kinds() == ["PrepareRequest"]
    assert len(host.local_prepares) == 1
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    # All votes in: coordinator forces its commit record...
    assert host.forced_kinds() == ["coord_commit"]
    assert host.completions == []  # not until the force completes
    host.complete_force()
    # ...then commits: notice to the update sub, local locks dropped,
    # the call completed — all before any ack.
    assert host.sent_kinds() == ["PrepareRequest", "CommitNotice"]
    assert host.local_commits == [TID1]
    assert host.completions == [Outcome.COMMITTED]
    assert host.forgotten == []
    # The ack lets the coordinator finally forget (lazy end record).
    host.deliver(CommitAck(tid=TID1, sender="b"))
    assert host.written_kinds() == ["end"]
    assert host.forgotten == [TID1]


def test_subordinate_happy_path_optimized():
    host = subordinate()
    assert len(host.local_prepares) == 1
    host.local_prepared(Vote.YES)
    assert host.forced_kinds() == ["prepare"]
    assert host.sent == []  # vote only after the prepare force
    host.complete_force()
    assert host.sent_kinds() == ["VoteResponse"]
    assert OUTCOME_TIMER in host.timers
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    # Optimization: locks dropped first, commit record lazy...
    assert host.local_commits == [TID1]
    assert host.written_kinds() == ["commit"]
    assert host.sent_kinds() == ["VoteResponse"]  # no ack yet!
    # ...and the ack goes out (piggybacked) once the record is durable.
    host.complete_durable()
    assert host.lazy_sent and isinstance(host.lazy_sent[0][1], CommitAck)
    assert host.forgotten == [TID1]


def test_subordinate_unoptimized_orders_force_before_locks():
    host = subordinate(variant=TwoPhaseVariant.UNOPTIMIZED)
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    # Commit record forced, locks still held.
    assert host.forced_kinds() == ["prepare", "commit"]
    assert host.local_commits == []
    host.complete_force()
    # Now locks drop and the ack is immediate (its own datagram).
    assert host.local_commits == [TID1]
    assert any(isinstance(m, CommitAck) for _, m in host.sent)
    assert host.lazy_sent == []


def test_subordinate_semi_optimized_forces_but_delays_ack():
    host = subordinate(variant=TwoPhaseVariant.SEMI_OPTIMIZED)
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    assert host.local_commits == [TID1]  # locks drop early
    assert host.forced_kinds() == ["prepare", "commit"]  # but forced
    host.complete_force()
    assert host.lazy_sent and isinstance(host.lazy_sent[0][1], CommitAck)


# ------------------------------------------------------- read-only


def test_read_only_subordinate_writes_nothing():
    host = subordinate()
    host.local_prepared(Vote.READ_ONLY)
    assert host.forced == [] and host.written == []
    assert host.local_commits == [TID1]  # read locks dropped at once
    vote = host.sent[0][1]
    assert vote.vote is Vote.READ_ONLY
    assert host.forgotten == [TID1]


def test_fully_read_only_transaction_commits_with_no_log_writes():
    host = coordinator()
    host.local_prepared(Vote.READ_ONLY)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.READ_ONLY))
    assert host.forced == [] and host.written == []
    assert host.completions == [Outcome.COMMITTED]
    assert host.forgotten == [TID1]
    # No phase two at all.
    assert host.sent_kinds() == ["PrepareRequest"]


def test_read_only_sub_omitted_from_phase_two():
    host = coordinator(subs=("b", "c"))
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.READ_ONLY))
    host.deliver(VoteResponse(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()
    notices = [d for d, m in host.sent if isinstance(m, CommitNotice)]
    assert notices == ["c"]


def test_local_only_update_single_force():
    host = coordinator(subs=())
    host.local_prepared(Vote.YES)
    assert host.forced_kinds() == ["coord_commit"]
    host.complete_force()
    assert host.completions == [Outcome.COMMITTED]
    assert host.forgotten == [TID1]


# ----------------------------------------------------------- aborts


def test_no_vote_aborts_lazily_and_forgets_at_once():
    host = coordinator(subs=("b", "c"))
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.NO))
    # Presumed abort: lazy record, no acks expected, forget immediately.
    assert host.forced == []
    assert host.written_kinds() == ["abort"]
    assert host.completions == [Outcome.ABORTED]
    assert host.forgotten == [TID1]
    # Abort notice goes to the undecided sub, not the NO voter.
    targets = [d for d, m in host.sent if isinstance(m, AbortNotice)]
    assert targets == ["c"]


def test_local_no_vote_aborts():
    host = coordinator()
    host.local_prepared(Vote.NO)
    assert host.completions == [Outcome.ABORTED]


def test_vote_timeout_retries_then_aborts():
    host = coordinator()
    host.machine.max_prepare_retries = 2
    host.local_prepared(Vote.YES)
    host.fire_timer(VOTE_TIMER)
    host.fire_timer(VOTE_TIMER)
    assert host.sent_kinds().count("PrepareRequest") == 3
    host.fire_timer(VOTE_TIMER)
    assert host.completions == [Outcome.ABORTED]


def test_subordinate_no_vote():
    host = subordinate()
    host.local_prepared(Vote.NO)
    assert host.sent[0][1].vote is Vote.NO
    assert host.local_aborts == [TID1]
    assert host.written_kinds() == ["abort"]
    assert host.forgotten == [TID1]


def test_subordinate_abort_notice_in_prepared_state():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(AbortNotice(tid=TID1, sender="a"))
    assert host.local_aborts == [TID1]
    assert host.written_kinds() == ["abort"]
    assert host.machine.outcome is Outcome.ABORTED


def test_abort_after_commit_is_protocol_violation():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    with pytest.raises(ProtocolViolation):
        host.deliver(AbortNotice(tid=TID1, sender="a"))


def test_application_abort_now():
    host = coordinator()
    host.execute(host.machine.abort_now())
    assert host.completions == [Outcome.ABORTED]


# ------------------------------------------------ retries / duplicates


def test_duplicate_vote_ignored():
    host = coordinator(subs=("b", "c"))
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    assert host.forced == []  # still waiting for c


def test_vote_from_stranger_ignored():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="zz", vote=Vote.YES))
    assert host.forced == []


def test_prepared_sub_resends_vote_on_duplicate_prepare():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(PrepareRequest(tid=TID1, sender="a"))
    assert host.sent_kinds() == ["VoteResponse", "VoteResponse"]


def test_committed_sub_reacks_duplicate_notice():
    host = subordinate(variant=TwoPhaseVariant.UNOPTIMIZED)
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    host.complete_force()
    host.deliver(CommitNotice(tid=TID1, sender="a"))
    acks = [m for _, m in host.sent if isinstance(m, CommitAck)]
    assert len(acks) == 2


def test_duplicate_ack_ignored():
    host = coordinator(subs=("b", "c"))
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(VoteResponse(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()
    host.deliver(CommitAck(tid=TID1, sender="b"))
    host.deliver(CommitAck(tid=TID1, sender="b"))
    assert host.forgotten == []  # still missing c


@pytest.mark.parametrize("ending", ["last ack", "aborted"])
def test_ack_timer_outside_committed_does_nothing(ending):
    """The ack-timer retry belongs to COMMITTED alone: a late expiry after
    the last ack (DONE) or after an abort neither resends the notice nor
    re-arms itself."""
    host = coordinator(subs=("b",))
    host.local_prepared(Vote.YES)
    if ending == "last ack":
        host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
        host.complete_force()
        host.deliver(CommitAck(tid=TID1, sender="b"))
        assert host.forgotten == [TID1]
    else:
        host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.NO))
        assert host.completions == [Outcome.ABORTED]
    assert host.machine.on_timer(ACK_TIMER) == []


# --------------------------------------------------- blocking window


def test_blocked_subordinate_inquires_until_answered():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.fire_timer(OUTCOME_TIMER)
    host.fire_timer(OUTCOME_TIMER)
    inquiries = [m for _, m in host.sent if isinstance(m, TxnInquiry)]
    assert len(inquiries) == 2
    assert host.machine.state is SubordinateState.PREPARED
    host.deliver(InquiryResponse(tid=TID1, sender="a",
                                 outcome=Outcome.ABORTED))
    assert host.machine.outcome is Outcome.ABORTED


def test_inquiry_response_committed_commits():
    host = subordinate()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(InquiryResponse(tid=TID1, sender="a",
                                 outcome=Outcome.COMMITTED))
    assert host.machine.outcome is Outcome.COMMITTED


def test_coordinator_answers_inquiry_with_outcome():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    host.complete_force()
    host.deliver(TxnInquiry(tid=TID1, sender="b"))
    answers = [m for _, m in host.sent if isinstance(m, InquiryResponse)]
    assert answers and answers[0].outcome is Outcome.COMMITTED


def test_undecided_coordinator_stays_silent_on_inquiry():
    host = coordinator()
    host.local_prepared(Vote.YES)
    host.deliver(TxnInquiry(tid=TID1, sender="b"))
    assert not any(isinstance(m, InquiryResponse) for _, m in host.sent)


# ----------------------------------------------------------- recovery


def test_recovered_coordinator_resumes_notification():
    machine = TwoPhaseCoordinator.recovered(TID1, "a", ["b", "c"])
    host = MachineHost(machine)
    host.execute(machine.resume_notifications())
    assert host.sent_kinds() == ["CommitNotice", "CommitNotice"]
    host.deliver(CommitAck(tid=TID1, sender="b"))
    host.deliver(CommitAck(tid=TID1, sender="c"))
    assert host.forgotten == [TID1]
    assert host.written_kinds() == ["end"]


def test_recovered_subordinate_resumes_inquiry():
    machine = TwoPhaseSubordinate.recovered(TID1, "b", "a")
    host = MachineHost(machine)
    host.execute(machine.resume_inquiry())
    assert host.sent_kinds() == ["TxnInquiry"]
    assert machine.state is SubordinateState.PREPARED


def test_multicast_prepare_and_commit():
    host = MachineHost(TwoPhaseCoordinator(TID1, "a", ["b", "c", "d"],
                                           use_multicast=True)).start()
    host.local_prepared(Vote.YES)
    for s in ("b", "c", "d"):
        host.deliver(VoteResponse(tid=TID1, sender=s, vote=Vote.YES))
    host.complete_force()
    # The harness expands multicast to per-destination entries.
    assert host.sent_kinds().count("PrepareRequest") == 3
    assert host.sent_kinds().count("CommitNotice") == 3
