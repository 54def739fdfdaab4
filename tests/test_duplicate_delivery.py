"""Duplicate-delivery safety across all three protocol families.

The chaos ``duplicate`` fault mode replays arbitrary datagrams a
network hop later, so every handler must be idempotent: a duplicate may
re-send a (deterministic) reply but must never force a second record,
re-apply an outcome, double-count a vote or ack, or flip machine state.
Paxos Commit's duplicate cases live in test_paxoscommit_unit.py; these
cover the two-phase and non-blocking families the same mode runs
against.
"""

from repro.core.messages import (
    CommitAck,
    CommitNotice,
    InquiryResponse,
    NbOutcome,
    NbOutcomeAck,
    NbReplicate,
    NbReplicateAck,
    NbVote,
    PrepareRequest,
    TxnInquiry,
    VoteResponse,
)
from repro.core.nonblocking import (
    NbCoordinator,
    NbSubordinate,
)
from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import (
    TwoPhaseCoordinator,
    TwoPhaseSubordinate,
)

from repro.live.scenario import conformance_cost
from repro.live.simhost import build_sim_cluster
from repro.obs.spans import SpanRecorder

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
SITES3 = ["a", "b", "c"]
Q3 = QuorumSpec.majority(3)


# ------------------------------------------------------------- two-phase


def test_2pc_coordinator_duplicate_vote_forces_once():
    host = MachineHost(TwoPhaseCoordinator(
        TID1, "a", ["b"], variant=TwoPhaseVariant.OPTIMIZED)).start()
    host.local_prepared(Vote.YES)
    vote = VoteResponse(tid=TID1, sender="b", vote=Vote.YES)
    host.deliver(vote)
    host.deliver(vote)                                   # wire duplicate
    assert host.forced_kinds() == ["coord_commit"]       # exactly one
    host.complete_force()
    notices = [m for _, m in host.sent if isinstance(m, CommitNotice)]
    assert len(notices) == 1
    assert host.completions == [Outcome.COMMITTED]


def test_2pc_coordinator_duplicate_ack_writes_one_end_record():
    host = MachineHost(TwoPhaseCoordinator(
        TID1, "a", ["b"], variant=TwoPhaseVariant.OPTIMIZED)).start()
    host.local_prepared(Vote.YES)
    host.deliver(VoteResponse(tid=TID1, sender="b", vote=Vote.YES))
    host.complete_force()
    host.deliver(CommitAck(tid=TID1, sender="b"))
    host.deliver(CommitAck(tid=TID1, sender="b"))
    assert host.written_kinds() == ["end"]
    assert host.forgotten == [TID1]


def test_2pc_subordinate_duplicate_prepare_revotes_without_force():
    host = MachineHost(TwoPhaseSubordinate(
        TID1, "b", "a", variant=TwoPhaseVariant.OPTIMIZED)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    assert host.sent_kinds() == ["VoteResponse"]
    host.deliver(PrepareRequest(tid=TID1, sender="a"))
    # The re-vote comes from durable state: no second prepare force.
    assert host.sent_kinds() == ["VoteResponse", "VoteResponse"]
    assert len(host.forced) == 1
    assert len(host.local_prepares) == 1


def test_2pc_subordinate_duplicate_commit_notice_applies_once():
    host = MachineHost(TwoPhaseSubordinate(
        TID1, "b", "a", variant=TwoPhaseVariant.OPTIMIZED)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    notice = CommitNotice(tid=TID1, sender="a")
    host.deliver(notice)
    host.deliver(notice)
    assert host.local_commits == [TID1]                  # applied once
    assert host.written_kinds() == ["commit"]            # one lazy record


# ----------------------------------------------------------- non-blocking


def _nb_coordinator_to_replicating():
    host = MachineHost(NbCoordinator(TID1, "a", ["b", "c"])).start()
    host.local_prepared(Vote.YES)
    host.complete_force()                                # prepare
    host.deliver(NbVote(tid=TID1, sender="b", vote=Vote.YES))
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    host.complete_force()                                # replication
    return host


def test_nb_coordinator_duplicate_vote_replicates_once():
    host = MachineHost(NbCoordinator(TID1, "a", ["b", "c"])).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    vote = NbVote(tid=TID1, sender="b", vote=Vote.YES)
    host.deliver(vote)
    host.deliver(vote)                                   # duplicate
    host.deliver(NbVote(tid=TID1, sender="c", vote=Vote.YES))
    # The duplicate must not have tipped the tally early or doubled the
    # replication force.
    assert host.forced_kinds() == ["prepare", "replication"]


def test_nb_coordinator_duplicate_replicate_ack_counts_once():
    host = _nb_coordinator_to_replicating()
    ack = NbReplicateAck(tid=TID1, sender="b", ok=True)
    host.deliver(ack)
    assert host.completions == [Outcome.COMMITTED]
    commits = len(host.local_commits)
    host.deliver(ack)                                    # duplicate
    assert host.completions == [Outcome.COMMITTED]
    assert len(host.local_commits) == commits


def test_nb_coordinator_duplicate_outcome_ack_ends_once():
    host = _nb_coordinator_to_replicating()
    host.deliver(NbReplicateAck(tid=TID1, sender="b", ok=True))
    host.deliver(NbOutcomeAck(tid=TID1, sender="b"))
    host.deliver(NbOutcomeAck(tid=TID1, sender="c"))
    host.deliver(NbOutcomeAck(tid=TID1, sender="c"))     # duplicate
    assert host.forgotten == [TID1]
    assert host.written_kinds().count("end") == 1


def _decision_data():
    return {
        "tid": str(TID1), "coordinator": "a", "sites": SITES3,
        "quorum": Q3.to_dict(),
        "votes": {"a": "yes", "b": "yes", "c": "yes"},
        "replication_targets": SITES3,
    }


def test_nb_subordinate_duplicate_replicate_forces_once():
    host = MachineHost(NbSubordinate(TID1, "b", "a", SITES3, Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    replicate = NbReplicate(tid=TID1, sender="a",
                            decision_data=_decision_data())
    host.deliver(replicate)
    host.complete_force()
    forces = len(host.forced)
    host.deliver(replicate)                              # duplicate
    # Already durable: re-ack from state, no second replication force.
    assert len(host.forced) == forces
    acks = [m for _, m in host.sent if isinstance(m, NbReplicateAck)]
    assert len(acks) == 2 and all(a.ok for a in acks)


def test_nb_subordinate_duplicate_outcome_applies_once():
    host = MachineHost(NbSubordinate(TID1, "b", "a", SITES3, Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    host.deliver(NbReplicate(tid=TID1, sender="a",
                             decision_data=_decision_data()))
    host.complete_force()
    outcome = NbOutcome(tid=TID1, sender="a", outcome=Outcome.COMMITTED)
    host.deliver(outcome)
    assert host.local_commits == [TID1]
    host.deliver(outcome)                                # duplicate
    assert host.local_commits == [TID1]
    assert host.written_kinds().count("commit") == 1


# ------------------------------------------------------------- live host
#
# A retransmission is the same message as the original by design, and
# exists to elicit a re-reply: the live host must hand it to
# the (idempotent) machine or edge like the TranMan does, not swallow it.


def _types_sent(transcript, pair):
    return [m["type"] for m in transcript.pair_sequences().get(pair, [])]


def test_live_host_answers_a_retransmitted_prepare_again():
    kernel, hosts, transcript = build_sim_cluster(["alpha", "beta"],
                                                  conformance_cost())
    prepare = PrepareRequest(tid=TID("T9@alpha"), sender="alpha")
    hosts["beta"].deliver("alpha", prepare)
    kernel.run(until=200.0)
    assert _types_sent(transcript, "beta->alpha") == ["VoteResponse"]
    hosts["beta"].deliver("alpha", prepare)       # the vote timer's retry
    kernel.run(until=400.0)
    assert _types_sent(transcript, "beta->alpha") == 2 * ["VoteResponse"]
    assert hosts["beta"].duplicates == 0


def test_live_host_answers_a_repeated_inquiry_again():
    kernel, hosts, transcript = build_sim_cluster(["alpha", "beta"],
                                                  conformance_cost())
    inquiry = TxnInquiry(tid=TID("T9@alpha"), sender="beta")
    for _ in range(2):                            # a blocked subordinate asks twice
        hosts["alpha"].deliver("beta", inquiry)
    kernel.run(until=200.0)
    replies = transcript.pair_sequences()["alpha->beta"]
    assert [m["type"] for m in replies] == 2 * [InquiryResponse.__name__]
    assert {m["outcome"] for m in replies} == {Outcome.ABORTED.value}


# ------------------------------------------------------ simulated TranMan
#
# The same retransmission through a whole CamelotSystem: nothing between
# the LAN and the machine may swallow it (the datagram layer has no
# duplicate window; the machines' idempotence is the duplicate detection).


def test_simulated_tranman_answers_a_retransmitted_prepare_again(two_sites):
    system = two_sites
    spans = SpanRecorder()
    system.tracer.attach_obs(spans)
    app = system.application("a")
    outcomes = []

    def workload():
        tid = yield from app.begin()
        for service in system.default_services():
            yield from app.write(tid, service, "x", 9)
        outcomes.append((yield from app.commit(tid)))

    def seen(kind, what):
        return [e for e in system.tracer.of_kind(kind)
                if e.site == "b" and e.detail["kind_of"] == what]

    def run_until(condition):
        while not condition():
            assert system.kernel.step()

    system.spawn(workload(), name="txn")
    # Cut b off once the prepare is in, so its vote is lost and the
    # coordinator's vote timer retransmits the prepare after the heal.
    run_until(lambda: seen("tranman.dgram_in", "PrepareRequest"))
    system.lan.partition([["a"], ["b"]])
    run_until(lambda: system.lan.drop_counts()["partition"])
    system.lan.heal()
    system.run_for(30_000.0)

    assert len(seen("tranman.dgram_in", "PrepareRequest")) == 2
    assert len(seen("tranman.datagram", "VoteResponse")) == 2
    forces = [s for s in spans.spans if s.kind == "log.force"]
    assert [s.detail["record_kind"] for s in forces if s.site == "b"] == [
        "prepare"]
    assert outcomes == [Outcome.COMMITTED]
