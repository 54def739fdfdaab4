"""Dueling takeover coordinators: quorum exclusivity under contention.

Two takeovers race to finish one transaction from opposite intents —
one holds a replication record and promotes toward commit, the other
holds nothing and collects abort pledges.  Change 4 (no site joins both
quorums) is the only thing standing between them and a split brain;
these tests drive the race by hand through every interleaving class.
"""


from repro.core.messages import (
    NbAbortJoin,
    NbAbortJoinAck,
    NbOutcome,
    NbReplicate,
    NbReplicateAck,
    NbStateReport,
)
from repro.core.nonblocking import (
    NB_TAKEOVER_TIMER,
    NbSubState,
    NbSubordinate,
    NbTakeover,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
SITES5 = ["a", "b", "c", "d", "e"]
Q5 = QuorumSpec.majority(5)  # Qc=3, Qa=3


def decision_data():
    return {
        "tid": str(TID1), "coordinator": "a", "sites": SITES5,
        "quorum": Q5.to_dict(),
        "votes": {s: "yes" for s in SITES5},
        "replication_targets": SITES5,
    }


def prepared_sub(site):
    host = MachineHost(NbSubordinate(TID1, site, "a", SITES5, Q5)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    return host


def test_contested_site_joins_exactly_one_quorum():
    """A prepared site receives a promotion and an abort-join back to
    back; whichever force completes wins, the other is refused."""
    sub = prepared_sub("c")
    sub.deliver(NbReplicate(tid=TID1, sender="b",
                            decision_data=decision_data()))
    # The pledge request arrives while the replication force is in
    # flight: refused outright (FORCING_REPLICATION counts as joined).
    sub.deliver(NbAbortJoin(tid=TID1, sender="d"))
    join_acks = [m for _, m in sub.sent if isinstance(m, NbAbortJoinAck)]
    assert join_acks and not join_acks[0].ok
    sub.complete_force()
    repl_acks = [m for _, m in sub.sent if isinstance(m, NbReplicateAck)]
    assert repl_acks and repl_acks[0].ok
    assert sub.machine.state is NbSubState.REPLICATED


def test_contested_site_pledge_first():
    sub = prepared_sub("c")
    sub.deliver(NbAbortJoin(tid=TID1, sender="d"))
    sub.deliver(NbReplicate(tid=TID1, sender="b",
                            decision_data=decision_data()))
    repl_acks = [m for _, m in sub.sent if isinstance(m, NbReplicateAck)]
    assert repl_acks == []  # pledge force in flight: replicate ignored
    sub.complete_force()
    assert sub.machine.state is NbSubState.PLEDGED
    # A retried promotion is now firmly refused.
    sub.deliver(NbReplicate(tid=TID1, sender="b",
                            decision_data=decision_data()))
    repl_acks = [m for _, m in sub.sent if isinstance(m, NbReplicateAck)]
    assert repl_acks and not repl_acks[0].ok


def test_commit_side_wins_race_when_it_reaches_quorum_first():
    """Promoter (b, replicated) vs pledger (d, prepared): b reaches
    Qc=3 via two promotions; d can then gather at most 2 pledges of the
    needed 3 and stays undecided until it hears the outcome."""
    promoter = MachineHost(NbTakeover(
        TID1, "b", SITES5, Q5, own_status="replicated",
        own_decision_data=decision_data())).start()
    pledger = MachineHost(NbTakeover(
        TID1, "d", SITES5, Q5, own_status="prepared")).start()

    # Promoter's poll: c and e report prepared; a is unreachable.
    promoter.deliver(NbStateReport(tid=TID1, sender="c", status="prepared",
                                   round=1))
    promoter.deliver(NbStateReport(tid=TID1, sender="e", status="prepared",
                                   round=1))
    promoter.fire_timer(NB_TAKEOVER_TIMER)
    # c and e accept promotion (they had not pledged).
    promoter.deliver(NbReplicateAck(tid=TID1, sender="c", ok=True))
    assert promoter.machine.outcome is None  # 2 of 3
    promoter.deliver(NbReplicateAck(tid=TID1, sender="e", ok=True))
    assert promoter.machine.outcome is Outcome.COMMITTED

    # Pledger meanwhile polled and went for the abort quorum...
    pledger.deliver(NbStateReport(tid=TID1, sender="c", status="prepared",
                                  round=1))
    pledger.deliver(NbStateReport(tid=TID1, sender="e", status="prepared",
                                  round=1))
    pledger.fire_timer(NB_TAKEOVER_TIMER)
    pledger.complete_force()  # own pledge: 1 of 3
    # ...but c and e joined the commit quorum and refuse.
    pledger.deliver(NbAbortJoinAck(tid=TID1, sender="c", ok=False))
    pledger.deliver(NbAbortJoinAck(tid=TID1, sender="e", ok=False))
    assert pledger.machine.outcome is None  # cannot complete Qa
    # The promoter's outcome reaches it; it stands down in agreement.
    pledger.deliver(NbOutcome(tid=TID1, sender="b",
                              outcome=Outcome.COMMITTED))
    assert pledger.machine.outcome is Outcome.COMMITTED


def test_abort_side_wins_race_and_starves_commit():
    """Pledger reaches Qa=3 first; the promoter then cannot assemble
    Qc=3 (two of its targets refuse) and adopts the abort."""
    pledger = MachineHost(NbTakeover(
        TID1, "d", SITES5, Q5, own_status="prepared")).start()
    promoter = MachineHost(NbTakeover(
        TID1, "b", SITES5, Q5, own_status="replicated",
        own_decision_data=decision_data())).start()

    pledger.deliver(NbStateReport(tid=TID1, sender="c", status="prepared",
                                  round=1))
    pledger.deliver(NbStateReport(tid=TID1, sender="e", status="prepared",
                                  round=1))
    pledger.fire_timer(NB_TAKEOVER_TIMER)
    pledger.complete_force()
    pledger.deliver(NbAbortJoinAck(tid=TID1, sender="c", ok=True))
    pledger.deliver(NbAbortJoinAck(tid=TID1, sender="e", ok=True))
    assert pledger.machine.outcome is Outcome.ABORTED

    promoter.deliver(NbStateReport(tid=TID1, sender="c", status="prepared",
                                   round=1))
    promoter.deliver(NbStateReport(tid=TID1, sender="e", status="prepared",
                                   round=1))
    promoter.fire_timer(NB_TAKEOVER_TIMER)
    promoter.deliver(NbReplicateAck(tid=TID1, sender="c", ok=False))
    promoter.deliver(NbReplicateAck(tid=TID1, sender="e", ok=False))
    assert promoter.machine.outcome is None  # 1 < Qc, cannot commit
    promoter.deliver(NbOutcome(tid=TID1, sender="d",
                               outcome=Outcome.ABORTED))
    assert promoter.machine.outcome is Outcome.ABORTED


def test_both_quorums_cannot_complete_even_adversarially():
    """Brute-force the split-brain boundary: however the five sites'
    memberships are assigned (exclusively), commit and abort can never
    both be satisfiable."""
    for replicated_count in range(6):
        for pledged_count in range(6 - replicated_count):
            assert not (Q5.can_commit(replicated_count)
                        and Q5.can_abort(pledged_count))


def test_takeover_round_counter_distinguishes_polls():
    takeover = MachineHost(NbTakeover(TID1, "b", SITES5, Q5,
                                      own_status="prepared")).start()
    takeover.fire_timer(NB_TAKEOVER_TIMER)   # nothing heard: evaluates,
    takeover.fire_timer(NB_TAKEOVER_TIMER)   # blocked, then re-polls
    from repro.core.messages import NbStateRequest

    requests = [m for _, m in takeover.sent
                if isinstance(m, NbStateRequest)]
    # A fresh poll is never mistaken for a repeat of the previous one.
    rounds = {m.round for m in requests}
    assert len(rounds) >= 2


def test_stale_round_report_still_counts_durable_facts():
    """Reports are facts about durable state, not round-scoped; a late
    report from an earlier poll still advances the takeover."""
    takeover = MachineHost(NbTakeover(
        TID1, "b", SITES5, Q5, own_status="replicated",
        own_decision_data=decision_data())).start()
    takeover.deliver(NbStateReport(tid=TID1, sender="c",
                                   status="replicated",
                                   decision_data=decision_data(),
                                   round=0))  # stale round
    takeover.deliver(NbStateReport(tid=TID1, sender="d",
                                   status="replicated", round=0))
    assert takeover.machine.outcome is Outcome.COMMITTED
