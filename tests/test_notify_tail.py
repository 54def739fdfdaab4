"""The notify tail's contract, one row per deciding machine.

Every machine that decides ends in :class:`repro.core.notify.NotifyTail`:
resend the notice to the unacked on each expiry of its notify timer,
finish at the last ack (with an END record exactly where the machine
writes one), and stand down at its ``max_notify_retries`` — or, where
that is ``None`` (2PC, the non-blocking coordinator), never.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Type

import pytest

from repro.core.abortproto import ABORT_ACK_TIMER, AbortInitiator
from repro.core.messages import (
    CommitAck,
    CommitNotice,
    FamilyAbort,
    FamilyAbortAck,
    NbOutcome,
    NbOutcomeAck,
    NbReplicateAck,
    NbVote,
    PcOutcome,
    PcOutcomeAck,
    PcP1b,
    PcPhase2b,
    PcVote,
    VoteResponse,
)
from repro.core.nonblocking import (
    NB_NOTIFY_TIMER,
    NB_TAKEOVER_TIMER,
    NbCoordinator,
    NbTakeover,
)
from repro.core.outcomes import Vote
from repro.core.paxoscommit import (
    PC_DECIDE_FORCE,
    PC_NOTIFY_TIMER,
    PcCandidate,
    PcLeader,
)
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import ACK_TIMER, TwoPhaseCoordinator

from tests.machine_harness import MachineHost

TID1 = TID("T1@a")
SITES3 = ["a", "b", "c"]


def _two_phase() -> MachineHost:
    host = MachineHost(TwoPhaseCoordinator(TID1, "a", ["b", "c"])).start()
    host.local_prepared(Vote.YES)
    for sub in ("b", "c"):
        host.deliver(VoteResponse(tid=TID1, sender=sub, vote=Vote.YES))
    host.complete_force()
    return host


def _nb_coordinator() -> MachineHost:
    host = MachineHost(NbCoordinator(TID1, "a", ["b", "c"])).start()
    host.local_prepared(Vote.YES)
    host.complete_force()                       # prepare record
    for sub in ("b", "c"):
        host.deliver(NbVote(tid=TID1, sender=sub, vote=Vote.YES))
    host.complete_force()                       # own replication record
    host.deliver(NbReplicateAck(tid=TID1, sender="b", ok=True))
    return host                                 # commit quorum {a, b}


def _nb_takeover() -> MachineHost:
    # Recovery found its own commit record: only the notify phase is left.
    return MachineHost(NbTakeover(TID1, "b", SITES3,
                                  QuorumSpec.majority(3),
                                  own_status="committed")).start()


def _pc_leader() -> MachineHost:
    host = MachineHost(PcLeader(TID1, "a", ["b", "c"], ["a"],
                                QuorumSpec.paxos(1))).start()
    host.local_prepared(Vote.YES)
    for sub in ("b", "c"):
        host.deliver(PcVote(TID1, sub, vote=Vote.YES, leader="a",
                            sites=tuple(SITES3), acceptors=("a",)))
    host.complete_force(PC_DECIDE_FORCE)
    return host


def _pc_candidate() -> MachineHost:
    host = MachineHost(PcCandidate(TID1, "c", SITES3, SITES3,
                                   QuorumSpec.paxos(3))).start()
    ballot = host.machine.ballot
    accepted = tuple((s, 0, Vote.YES.value) for s in SITES3)
    for acceptor in ("a", "c"):
        host.deliver(PcP1b(TID1, acceptor, ballot=ballot, promised=ballot,
                           accepted=accepted))
    for acceptor in ("a", "c"):
        host.deliver(PcPhase2b(TID1, acceptor, ballot=ballot))
    host.complete_force(PC_DECIDE_FORCE)
    return host


def _abort_initiator() -> MachineHost:
    return MachineHost(AbortInitiator(TID1, "a", ["b", "c"])).start()


@dataclass(frozen=True)
class Row:
    build: Callable[[], MachineHost]
    targets: tuple          # the first notice's destinations, in order
    notice: Type
    ack: Callable[[str], object]
    timer: str
    ends: bool              # writes END once every ack is in
    cap: Optional[int]      # max_notify_retries
    ends_at_cap: bool = False


ROWS = {
    "2pc": Row(_two_phase, ("b", "c"), CommitNotice,
               lambda s: CommitAck(tid=TID1, sender=s), ACK_TIMER,
               ends=True, cap=None),
    "nb": Row(_nb_coordinator, ("b", "c"), NbOutcome,
              lambda s: NbOutcomeAck(tid=TID1, sender=s), NB_NOTIFY_TIMER,
              ends=True, cap=None),
    "takeover": Row(_nb_takeover, ("a", "c"), NbOutcome,
                    lambda s: NbOutcomeAck(tid=TID1, sender=s),
                    NB_TAKEOVER_TIMER, ends=False, cap=10),
    "leader": Row(_pc_leader, ("b", "c"), PcOutcome,
                  lambda s: PcOutcomeAck(TID1, s), PC_NOTIFY_TIMER,
                  ends=True, cap=10, ends_at_cap=True),
    # Own site included: the co-resident participant acks by loopback.
    "candidate": Row(_pc_candidate, ("a", "b", "c"), PcOutcome,
                     lambda s: PcOutcomeAck(TID1, s), PC_NOTIFY_TIMER,
                     ends=True, cap=10),
    "abort": Row(_abort_initiator, ("b", "c"), FamilyAbort,
                 lambda s: FamilyAbortAck(tid=TID1, sender=s),
                 ABORT_ACK_TIMER, ends=False, cap=5),
}
CAPPED = [name for name, row in ROWS.items() if row.cap is not None]


def _notices(host: MachineHost, row: Row, since: int = 0) -> list:
    return [d for d, m in host.sent[since:] if isinstance(m, row.notice)]


def _ends(host: MachineHost) -> int:
    return host.written_kinds().count("end")


@pytest.mark.parametrize("name", ROWS)
def test_resends_only_to_the_unacked(name):
    row = ROWS[name]
    host = row.build()
    assert _notices(host, row) == list(row.targets)
    assert row.timer in host.timers
    host.deliver(row.ack(row.targets[0]))
    before = len(host.sent)
    host.fire_timer(row.timer)
    assert _notices(host, row, before) == list(row.targets[1:])
    assert row.timer in host.timers and host.forgotten == []


@pytest.mark.parametrize("name", ROWS)
def test_stops_at_the_last_ack(name):
    row = ROWS[name]
    host = row.build()
    *first, last = row.targets
    for site in first:
        host.deliver(row.ack(site))
        host.deliver(row.ack(site))             # a duplicate changes nothing
    host.deliver(row.ack("zz"))                 # nor does a stranger
    assert host.forgotten == [] and _ends(host) == 0
    host.deliver(row.ack(last))
    assert host.forgotten == [TID1]
    assert _ends(host) == (1 if row.ends else 0)
    assert row.timer not in host.timers


@pytest.mark.parametrize("name", CAPPED)
def test_stands_down_at_its_cap(name):
    row = ROWS[name]
    host = row.build()
    assert type(host.machine).max_notify_retries == row.cap
    for _ in range(row.cap):
        host.fire_timer(row.timer)
    assert host.forgotten == []
    before = len(host.sent)
    host.fire_timer(row.timer)
    assert host.forgotten == [TID1]
    assert _notices(host, row, before) == []
    assert _ends(host) == (1 if row.ends_at_cap else 0)


@pytest.mark.parametrize("name", ["2pc", "nb"])
def test_never_gives_up(name):
    row = ROWS[name]
    host = row.build()
    assert type(host.machine).max_notify_retries is None
    for _ in range(50):
        before = len(host.sent)
        host.fire_timer(row.timer)
        assert _notices(host, row, before) == list(row.targets)
    assert host.forgotten == [] and row.timer in host.timers
