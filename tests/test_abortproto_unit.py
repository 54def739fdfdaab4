"""Sans-IO unit tests for the abort protocol."""

from repro.core.abortproto import AbortInitiator, AbortParticipant
from repro.core.messages import FamilyAbort, FamilyAbortAck
from repro.core.outcomes import Outcome
from repro.core.tid import TID

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")


def initiator(known=("b", "c"), **kw):
    return MachineHost(AbortInitiator(TID1, "a", list(known), **kw)).start()


def test_initiator_aborts_locally_and_spreads():
    host = initiator()
    assert host.local_aborts == [TID1]
    assert host.written_kinds() == ["abort"]
    assert host.completions == [Outcome.ABORTED]
    targets = [d for d, m in host.sent if isinstance(m, FamilyAbort)]
    assert sorted(targets) == ["b", "c"]
    # The message carries everything we know, so receivers can forward.
    assert host.sent[0][1].known_sites == ("a", "b", "c")


def test_initiator_finishes_when_all_ack():
    host = initiator()
    host.deliver(FamilyAbortAck(tid=TID1, sender="b"))
    assert host.forgotten == []
    host.deliver(FamilyAbortAck(tid=TID1, sender="c"))
    assert host.forgotten == [TID1]


def test_initiator_with_no_known_sites_finishes_immediately():
    host = initiator(known=())
    assert host.forgotten == [TID1]


def test_initiator_merges_incoming_knowledge():
    host = initiator(known=("b",))
    host.deliver(FamilyAbort(tid=TID1, sender="b",
                             known_sites=("a", "b", "d")))
    # Acked b, and learned about (and told) d.
    acks = [d for d, m in host.sent if isinstance(m, FamilyAbortAck)]
    assert acks == ["b"]
    aborts_to = [d for d, m in host.sent if isinstance(m, FamilyAbort)]
    assert "d" in aborts_to


def test_participant_aborts_acks_and_forwards_unknown_sites():
    participant = AbortParticipant("b")
    msg = FamilyAbort(tid=TID1, sender="a", known_sites=("a", "b"))
    host = MachineHost(machine=None)
    # Eight unknown sites: a set of them iterates out of sorted order
    # under every hash seed 0-9, so the forwards' order is checked too.
    unknown = ["j", "i", "h", "g", "f", "e", "d", "c"]
    host.execute(participant.on_abort(msg, locally_known_sites=unknown))
    assert host.local_aborts == [TID1]
    acks = [d for d, m in host.sent if isinstance(m, FamilyAbortAck)]
    assert acks == ["a"]
    forwards = [d for d, m in host.sent if isinstance(m, FamilyAbort)]
    assert forwards == sorted(unknown)
    forwarded = [m for _, m in host.sent if isinstance(m, FamilyAbort)][0]
    assert set(forwarded.known_sites) == {"a", "b", *unknown}


def test_participant_does_not_forward_already_known_sites():
    participant = AbortParticipant("b")
    msg = FamilyAbort(tid=TID1, sender="a", known_sites=("a", "b", "c"))
    host = MachineHost(machine=None)
    host.execute(participant.on_abort(msg, locally_known_sites=["c"]))
    assert not any(isinstance(m, FamilyAbort) for _, m in host.sent)


def test_flooding_reaches_transitively_known_sites():
    """No single site knows everyone; the abort still reaches all.

    a knows {b}; b knows {c}; c knows {d}.  Drive the exchange by hand.
    """
    init = initiator(known=("b",))
    p_b, p_c, p_d = (AbortParticipant(s) for s in "bcd")
    local_knowledge = {"b": ["c"], "c": ["d"], "d": []}
    inboxes = {s: [] for s in "bcd"}
    for dst, m in init.sent:
        if isinstance(m, FamilyAbort):
            inboxes[dst].append(m)
    reached = set()
    participants = {"b": p_b, "c": p_c, "d": p_d}
    for _ in range(4):  # enough rounds to flood
        for site, inbox in inboxes.items():
            msgs, inboxes[site] = inbox, []
            for m in msgs:
                reached.add(site)
                host = MachineHost(machine=None)
                host.execute(participants[site].on_abort(
                    m, local_knowledge[site]))
                for dst, out in host.sent:
                    if isinstance(out, FamilyAbort) and dst in inboxes:
                        inboxes[dst].append(out)
    assert reached == {"b", "c", "d"}
