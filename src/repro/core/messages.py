"""Protocol messages exchanged between transaction managers.

These ride the datagram layer (:mod:`repro.net.datagram`), never the
RPC path — TranMans talk datagrams for speed and implement their own
timeout/retry: a retransmission is the same frozen message sent again,
and the machine that receives it twice answers it twice (idempotence is
the duplicate detection; ``tests/test_duplicate_delivery.py``).

Naming follows the paper: prepare / vote / commit / abort / commit-ack
for two-phase commit; the non-blocking protocol adds the replication
phase (replicate / replicate-ack), abort-quorum joining, and the
termination protocol's state-request / state-report used by subordinates
that time out and become coordinators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID


@dataclass(frozen=True)
class ProtocolMessage:
    """Base class: every protocol message names its transaction/sender."""

    tid: TID
    sender: str


# --------------------------------------------------------------------- 2PC


@dataclass(frozen=True)
class PrepareRequest(ProtocolMessage):
    """Phase-one prepare from coordinator to a subordinate."""

    variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED


@dataclass(frozen=True)
class VoteResponse(ProtocolMessage):
    """Subordinate's vote back to the coordinator."""

    vote: Vote = Vote.YES


@dataclass(frozen=True)
class CommitNotice(ProtocolMessage):
    """Coordinator's commit decision (phase two)."""


@dataclass(frozen=True)
class AbortNotice(ProtocolMessage):
    """Coordinator's (or abort protocol's) abort notice."""


@dataclass(frozen=True)
class CommitAck(ProtocolMessage):
    """Subordinate's acknowledgement that its commit record is durable.

    Under the delayed-commit optimization this is what lets the
    coordinator finally forget the transaction.
    """


@dataclass(frozen=True)
class TxnInquiry(ProtocolMessage):
    """A blocked/recovering subordinate asks the coordinator for the
    outcome.  Presumed abort: a coordinator with no state answers
    aborted."""


@dataclass(frozen=True)
class InquiryResponse(ProtocolMessage):
    outcome: Outcome = Outcome.IN_DOUBT


# ------------------------------------------------------------ non-blocking


@dataclass(frozen=True)
class NbPrepare(ProtocolMessage):
    """Non-blocking prepare: carries the full site list and quorum sizes
    (paper §3.3, change 1)."""

    sites: Tuple[str, ...] = ()
    quorum: Optional[QuorumSpec] = None


@dataclass(frozen=True)
class NbVote(ProtocolMessage):
    vote: Vote = Vote.YES


@dataclass(frozen=True)
class NbReplicate(ProtocolMessage):
    """Replication-phase request: force this decision data, then ack.

    Also used by takeover coordinators to *promote* prepared sites into
    the commit quorum — identical semantics, different sender.
    """

    decision_data: Dict[str, Any] = field(default_factory=dict)


@dataclass(frozen=True)
class NbReplicateAck(ProtocolMessage):
    """ok=True: replication record durable (sender joined the commit
    quorum).  ok=False: refused — the sender already pledged abort."""

    ok: bool = True


@dataclass(frozen=True)
class NbAbortJoin(ProtocolMessage):
    """Request to join the abort quorum: pledge (durably) never to join
    a commit quorum for this transaction."""


@dataclass(frozen=True)
class NbAbortJoinAck(ProtocolMessage):
    """ok=True: pledge durable.  ok=False: refused — sender holds a
    replication record (change 4: no site joins both quorums)."""

    ok: bool = True


@dataclass(frozen=True)
class NbOutcome(ProtocolMessage):
    """Notify-phase message: the decided outcome."""

    outcome: Outcome = Outcome.COMMITTED


@dataclass(frozen=True)
class NbStateRequest(ProtocolMessage):
    """Termination protocol: a timed-out subordinate, acting as a new
    coordinator, polls every site's state (change 2).  ``round`` makes
    successive polls distinguishable from wire duplicates."""

    round: int = 0


@dataclass(frozen=True)
class NbStateReport(ProtocolMessage):
    """Reply to a state request.

    ``status`` is one of ``"no_state"`` (nothing known — presumed
    abort), ``"prepared"``, ``"replicated"`` (holds a replication
    record), ``"abort_pledged"``, ``"committed"``, ``"aborted"``.
    ``decision_data`` rides along when status is ``"replicated"`` so the
    inquirer learns the vote vector and quorum spec.
    """

    status: str = "no_state"
    decision_data: Optional[Dict[str, Any]] = None
    round: int = 0


@dataclass(frozen=True)
class NbOutcomeAck(ProtocolMessage):
    """Acknowledges NbOutcome so the coordinator can stop resending."""


# ------------------------------------------------------------ paxos commit


@dataclass(frozen=True)
class PcPrepare(ProtocolMessage):
    """Paxos Commit prepare from the leader to a resource manager.

    Carries the full configuration — site list and acceptor set — so a
    participant (or a late acceptor) can reconstruct the instance layout
    without further round trips.  The sender is the ballot-0 leader.
    """

    sites: Tuple[str, ...] = ()
    acceptors: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PcVote(ProtocolMessage):
    """A resource manager's vote for its own Paxos instance.

    This *is* the ballot-0 phase-2a message, piggybacked on the prepare
    round (Gray & Lamport's co-location optimization): the RM proposes
    its own prepared/aborted value directly to every acceptor.  Carries
    the configuration so an acceptor that never saw the prepare can
    still participate.
    """

    vote: Vote = Vote.YES
    leader: str = ""
    sites: Tuple[str, ...] = ()
    acceptors: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PcPhase2b(ProtocolMessage):
    """An acceptor's phase-2b: it accepted ``votes`` at ``ballot``.

    ``votes`` maps instances (RM site names) to vote values; ballot 0
    carries a single instance (the voting RM's), an election's phase-2b
    carries the candidate's whole value vector.
    """

    ballot: int = 0
    votes: Tuple[Tuple[str, str], ...] = ()


@dataclass(frozen=True)
class PcP1a(ProtocolMessage):
    """Election phase-1a: a candidate leader asks every acceptor to
    promise ``ballot``.  Carries the configuration for stateless
    acceptor reconstruction after a crash-restart."""

    ballot: int = 0
    leader: str = ""
    sites: Tuple[str, ...] = ()
    acceptors: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PcP1b(ProtocolMessage):
    """Phase-1b: the acceptor's promise (or nack when ``promised``
    exceeds the asked ballot), with every acceptance it holds as
    ``(instance, ballot, vote)`` triples."""

    ballot: int = 0
    promised: int = 0
    accepted: Tuple[Tuple[str, int, str], ...] = ()


@dataclass(frozen=True)
class PcP2a(ProtocolMessage):
    """Election phase-2a: the candidate's value vector — one vote value
    per instance, free instances filled with the abort value (any value
    not provably chosen may be aborted)."""

    ballot: int = 0
    values: Tuple[Tuple[str, str], ...] = ()
    leader: str = ""
    sites: Tuple[str, ...] = ()
    acceptors: Tuple[str, ...] = ()


@dataclass(frozen=True)
class PcOutcome(ProtocolMessage):
    """The decided outcome, sent by the leader (or a winning candidate)
    to every resource manager."""

    outcome: Outcome = Outcome.COMMITTED


@dataclass(frozen=True)
class PcOutcomeAck(ProtocolMessage):
    """Acknowledges PcOutcome so the notifier can stop resending."""


# ------------------------------------------------------------------ nested


@dataclass(frozen=True)
class NestedCommit(ProtocolMessage):
    """A subtransaction committed (relative to its parent): remote sites
    it touched must let the parent inherit its locks.  Volatile — Moss
    subtransaction commits write no log records; permanence comes only
    from the eventual top-level commit."""


# --------------------------------------------------------- abort protocol


@dataclass(frozen=True)
class FamilyAbort(ProtocolMessage):
    """Abort protocol message: abort this (sub)transaction everywhere.

    ``known_sites`` lets receivers propagate to sites the sender knew
    about; receivers merge with their own knowledge, so the abort
    reaches every participant even though no single site knows them all
    (the paper's abort protocol "can operate with incomplete knowledge
    about which sites are involved").
    """

    known_sites: Tuple[str, ...] = ()


@dataclass(frozen=True)
class FamilyAbortAck(ProtocolMessage):
    pass


ANY_MESSAGE = (
    PrepareRequest, VoteResponse, CommitNotice, AbortNotice, CommitAck,
    TxnInquiry, InquiryResponse,
    NbPrepare, NbVote, NbReplicate, NbReplicateAck, NbAbortJoin,
    NbAbortJoinAck, NbOutcome, NbOutcomeAck, NbStateRequest, NbStateReport,
    PcPrepare, PcVote, PcPhase2b, PcP1a, PcP1b, PcP2a, PcOutcome,
    PcOutcomeAck,
    NestedCommit, FamilyAbort, FamilyAbortAck,
)
