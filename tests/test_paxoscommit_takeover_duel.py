"""Dueling Paxos Commit candidates: ballot safety under contention.

The non-blocking family settles takeover races with quorum exclusivity
(change 4); Paxos Commit settles them with ballots.  Two timed-out
participants run elections concurrently; per-site-unique ballots, the
promise rule, and the chosen-before-acted-on rule are all that stand
between them and a split decision.  These tests drive the race by hand:
nack-and-backoff, value selection by highest ballot, the abort filler
for unproposed instances, and the quorum-intersection guarantee that a
ballot-0 commit is always seen by a later candidate.
"""

import pytest

from repro.core.effects import POLL
from repro.core.messages import (
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcP1b,
    PcP2a,
    PcPhase2b,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.paxoscommit import (
    ABORT_FILLER,
    PC_DECIDE_FORCE,
    PC_ELECTION_TIMER,
    PcCandidate,
    PcCandidateState,
    PcParticipant,
    PcProtocolViolation,
    ballot_for,
)
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.servers.recovery import analyze

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
SITES3 = ["a", "b", "c"]
Q3 = QuorumSpec.paxos(3)            # F=1: quorum 2 of 3

YES = Vote.YES.value
FULL_BALLOT0 = tuple((s, 0, YES) for s in SITES3)


def candidate(site):
    return MachineHost(PcCandidate(TID1, site, SITES3, SITES3, Q3)).start()


def p1b(sender, ballot, accepted=(), promised=None):
    return PcP1b(TID1, sender, ballot=ballot,
                 promised=ballot if promised is None else promised,
                 accepted=tuple(accepted))


# ----------------------------------------------------------- ballot space


def test_ballots_are_globally_unique_and_per_site_monotone():
    seen = set()
    for attempt in range(4):
        for site in SITES3:
            b = ballot_for(attempt, SITES3, site)
            assert b > 0                     # ballot 0 is the prepare round
            assert b not in seen
            seen.add(b)
    assert ballot_for(1, SITES3, "b") > ballot_for(0, SITES3, "b")


def test_candidate_polls_every_acceptor_at_its_own_ballot():
    host = candidate("b")
    polls = [(d, m) for d, m in host.sent if isinstance(m, PcP1a)]
    assert sorted(d for d, _ in polls) == SITES3
    assert {m.ballot for _, m in polls} == {ballot_for(0, SITES3, "b")}
    assert PC_ELECTION_TIMER in host.timers


# ------------------------------------------- value selection and decision


def test_quorum_intersection_recovers_ballot0_commit():
    """Any phase-1 quorum intersects the ballot-0 acceptance quorum, so
    a candidate always sees the committed vector and must re-propose it."""
    host = candidate("c")
    ballot = host.machine.ballot
    host.deliver(p1b("c", ballot, accepted=FULL_BALLOT0))
    assert host.machine.state is PcCandidateState.POLLING  # 1 < quorum
    host.deliver(p1b("a", ballot, accepted=FULL_BALLOT0))
    p2as = [m for _, m in host.sent if isinstance(m, PcP2a)]
    assert len(p2as) == 3
    assert dict(p2as[0].values) == {s: YES for s in SITES3}

    host.deliver(PcPhase2b(TID1, "a", ballot=ballot))
    assert host.machine.outcome is None       # chosen needs the quorum
    host.deliver(PcPhase2b(TID1, "c", ballot=ballot))
    # Commit decisions are forced before any outcome leaves the site.
    assert host.pending_forces == [PC_DECIDE_FORCE]
    assert host.forced_kinds() == ["coord_commit"]
    host.complete_force(PC_DECIDE_FORCE)
    outcomes = [d for d, m in host.sent if isinstance(m, PcOutcome)]
    # Own site included: the co-resident participant applies via loopback.
    assert sorted(outcomes) == SITES3


def test_unproposed_instance_gets_abort_filler_and_aborts():
    """The leader crashed before a's acceptance spread: no promise
    carries instance a, the candidate fills it with the abort value, and
    the transaction aborts without a force (presumed abort)."""
    host = candidate("b")
    ballot = host.machine.ballot
    partial = tuple((s, 0, YES) for s in ("b", "c"))
    host.deliver(p1b("b", ballot, accepted=partial))
    host.deliver(p1b("c", ballot, accepted=partial))
    values = dict(host.machine.values)
    assert values["a"] == ABORT_FILLER
    host.deliver(PcPhase2b(TID1, "b", ballot=ballot))
    host.deliver(PcPhase2b(TID1, "c", ballot=ballot))
    assert host.forced == []
    assert host.written_kinds() == ["abort"]
    outcomes = [m for _, m in host.sent if isinstance(m, PcOutcome)]
    assert {m.outcome for m in outcomes} == {Outcome.ABORTED}


def test_highest_ballot_acceptance_wins_value_selection():
    """A rival's higher-ballot abort filler supersedes the stale
    ballot-0 YES for the same instance."""
    host = candidate("c")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot, accepted=FULL_BALLOT0))
    host.deliver(p1b("b", ballot, accepted=(
        ("a", 0, YES), ("b", 2, ABORT_FILLER), ("c", 0, YES))))
    assert dict(host.machine.values)["b"] == ABORT_FILLER


def test_unchosen_vector_is_never_acted_on():
    """One 2b short of a quorum, the candidate must not decide — acting
    on an unchosen abort vector could diverge from a later candidate
    that intersects a ballot-0 commit."""
    host = candidate("b")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot))
    host.deliver(p1b("b", ballot))
    host.deliver(PcPhase2b(TID1, "a", ballot=ballot))
    assert host.machine.outcome is None
    assert host.written == [] and host.forced == []


# ------------------------------------------------------- the duel proper


def test_nacked_candidate_backs_off_past_the_rival():
    host = candidate("b")                     # ballot 2 in a 3-site ring
    rival_ballot = ballot_for(0, SITES3, "c")  # 3
    host.deliver(p1b("a", host.machine.ballot, promised=rival_ballot))
    assert host.machine.state is PcCandidateState.BACKOFF
    assert PC_ELECTION_TIMER in host.timers
    host.fire_timer(PC_ELECTION_TIMER)
    # Re-polls at a ballot strictly above the rival's.
    assert host.machine.ballot > rival_ballot
    polls = [m for _, m in host.sent if isinstance(m, PcP1a)]
    assert polls[-1].ballot == host.machine.ballot


def test_nack_during_phase2_also_backs_off():
    host = candidate("b")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot, accepted=FULL_BALLOT0))
    host.deliver(p1b("b", ballot, accepted=FULL_BALLOT0))
    assert host.machine.state is PcCandidateState.PROPOSING
    host.deliver(p1b("c", ballot, promised=ballot + 7))
    assert host.machine.state is PcCandidateState.BACKOFF


def test_poll_timeout_retries_at_a_higher_ballot():
    host = candidate("c")
    first = host.machine.ballot
    host.fire_timer(PC_ELECTION_TIMER)
    assert host.machine.ballot > first
    # Deterministic exponential backoff: the poll multiple doubled.
    assert host.timers[PC_ELECTION_TIMER] == 2 * POLL


def test_losing_candidate_adopts_rival_outcome_and_stands_down():
    host = candidate("b")
    host.deliver(PcOutcome(TID1, "c", outcome=Outcome.COMMITTED))
    assert host.machine.outcome is Outcome.COMMITTED
    assert host.machine.decided_by_peer
    assert host.machine.state is PcCandidateState.DONE
    assert host.forgotten == [TID1]
    # The co-resident participant acks; the candidate sends nothing.
    assert not any(isinstance(m, PcOutcomeAck) for _, m in host.sent)


def test_conflicting_decisions_raise_protocol_violation():
    host = candidate("c")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot, accepted=FULL_BALLOT0))
    host.deliver(p1b("c", ballot, accepted=FULL_BALLOT0))
    host.deliver(PcPhase2b(TID1, "a", ballot=ballot))
    host.deliver(PcPhase2b(TID1, "c", ballot=ballot))
    assert host.machine.outcome is Outcome.COMMITTED
    with pytest.raises(PcProtocolViolation, match="rival decided"):
        host.deliver(PcOutcome(TID1, "b", outcome=Outcome.ABORTED))


def test_stale_ballot_messages_are_ignored():
    host = candidate("b")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot - 1, accepted=FULL_BALLOT0))
    host.deliver(PcPhase2b(TID1, "a", ballot=ballot - 1))
    assert host.machine.promises == {} and host.machine.outcome is None


def test_candidate_that_collects_every_ack_leaves_no_unacked_commit():
    """Like the leader, a winning candidate closes its forced decision
    record with an END once every site has acked, so a restart of its
    site finds no commit left to re-notify."""
    host = candidate("c")
    ballot = host.machine.ballot
    host.deliver(p1b("a", ballot, accepted=FULL_BALLOT0))
    host.deliver(p1b("c", ballot, accepted=FULL_BALLOT0))
    host.deliver(PcPhase2b(TID1, "a", ballot=ballot))
    host.deliver(PcPhase2b(TID1, "c", ballot=ballot))
    host.complete_force(PC_DECIDE_FORCE)
    for site in SITES3:
        host.deliver(PcOutcomeAck(TID1, site))
    assert host.forgotten == [TID1]
    records = host.forced + host.written
    for lsn, record in enumerate(records, start=1):
        record.lsn = lsn
    assert analyze("c", records).unacked_commits == []


# ----------------------------- full election against real acceptor machines


def _recovered_acceptor(site, accepted):
    sub = PcParticipant.recovered(TID1, site, "a", SITES3, SITES3,
                                  accepted=accepted)
    return MachineHost(sub)


def _route_election(cand, acceptors):
    """Deliver candidate sends to acceptor hosts and replies back until
    the wires drain.  Forces complete eagerly (in-order durability)."""
    cursor = {"cand": 0}
    cursors = {site: 0 for site in acceptors}
    progressed = True
    while progressed:
        progressed = False
        for dst, msg in cand.sent[cursor["cand"]:]:
            cursor["cand"] += 1
            progressed = True
            if dst in acceptors:
                acceptors[dst].deliver(msg)
                while acceptors[dst].pending_forces:
                    acceptors[dst].complete_force()
        for site, host in acceptors.items():
            for dst, msg in host.sent[cursors[site]:]:
                cursors[site] += 1
                progressed = True
                if dst == cand.machine.site:
                    cand.deliver(msg)
                    while cand.pending_forces:
                        cand.complete_force()


def test_election_against_live_acceptors_commits_replicated_vector():
    """Leader a crashed after its vote reached a quorum: b and c hold
    durable ballot-0 acceptances for every instance, so candidate c's
    election must finish the commit, and both survivors apply it."""
    acceptors = {
        "b": _recovered_acceptor("b", [["a", 0, YES], ["b", 0, YES],
                                       ["c", 0, YES]]),
        "c": _recovered_acceptor("c", [["a", 0, YES], ["b", 0, YES],
                                       ["c", 0, YES]]),
    }
    cand = candidate("c")
    _route_election(cand, acceptors)
    assert cand.machine.outcome is Outcome.COMMITTED
    assert acceptors["b"].local_commits == [TID1]
    # c's own participant commits via the loopback PcOutcome too.
    assert acceptors["c"].local_commits == [TID1]


def test_election_against_live_acceptors_aborts_unreplicated_vector():
    """Leader a crashed before anything spread: each survivor holds only
    its own acceptance, instance a gets the abort filler, and the
    election aborts cleanly everywhere."""
    acceptors = {
        "b": _recovered_acceptor("b", [["b", 0, YES]]),
        "c": _recovered_acceptor("c", [["c", 0, YES]]),
    }
    cand = candidate("b")
    _route_election(cand, acceptors)
    assert cand.machine.outcome is Outcome.ABORTED
    assert acceptors["b"].local_aborts == [TID1]
    assert acceptors["c"].local_aborts == [TID1]
