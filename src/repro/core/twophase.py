"""Presumed-abort two-phase commit with the delayed-commit optimization.

Camelot's 2PC (paper §3.2) is Mohan & Lindsay's Presumed Abort, further
optimized per [Duchamp 89]:

- **Presumed abort**: abort records are never forced and aborts are
  never acknowledged — a coordinator with no information answers
  inquiries "aborted".
- **Read-only optimization**: a site that only read votes READ_ONLY,
  drops its (read) locks at once, writes nothing, and is omitted from
  phase two.  A fully read-only transaction commits with no log writes
  at all.
- **Delayed commit (the §3.2 optimization)**: the subordinate drops its
  locks *before* writing a commit record, writes that record lazily (one
  fewer force), and the commit-ack is not sent until the record is
  durable — so the coordinator "must not forget about the transaction
  before the subordinate writes its own commit record".  Throughput is
  improved at no cost to latency.

Three variants are selectable (:class:`~repro.core.outcomes.TwoPhaseVariant`)
to reproduce Figure 2:

====================  ===================  ==========================
variant               sub commit record    commit-ack
====================  ===================  ==========================
``OPTIMIZED``         lazy (no force)      piggybacked when durable
``SEMI_OPTIMIZED``    forced               piggybacked (delayed)
``UNOPTIMIZED``       forced               immediate, own datagram
====================  ===================  ==========================

Critical path of an optimized update commit: two log forces (subordinate
prepare, coordinator commit) and two inter-site messages per subordinate
round trip plus the commit notice — the "2 LF + 3 datagrams" the paper
compares against the non-blocking protocol's 4 + 5.

Both machines are sans-IO: inputs are protocol messages and completion
notifications; outputs are :mod:`repro.core.effects`.
"""

from __future__ import annotations

from enum import Enum
from typing import Dict, List, Optional, Sequence

from repro.core.effects import (
    CancelTimer,
    Complete,
    Effect,
    ForceLog,
    Forget,
    LazySendDatagram,
    LocalAbort,
    LocalCommit,
    LocalPrepare,
    SendDatagram,
    StartTimer,
    Trace,
    WriteLog,
)
from repro.core.messages import (
    AbortNotice,
    CommitAck,
    CommitNotice,
    InquiryResponse,
    PrepareRequest,
    ProtocolMessage,
    TxnInquiry,
    VoteResponse,
)
from repro.core.notify import NotifyTail
from repro.core.outcomes import Outcome, TwoPhaseVariant, Vote
from repro.core.tid import TID
from repro.log.records import (
    abort_record,
    commit_record,
    coordinator_commit_record,
    end_record,
    prepare_record,
)

Effects = List[Effect]


class CoordinatorState(Enum):
    COLLECTING = "collecting"
    FORCING_COMMIT = "forcing_commit"
    COMMITTED = "committed"
    ABORTED = "aborted"
    DONE = "done"


class SubordinateState(Enum):
    PREPARING = "preparing"
    FORCING_PREPARE = "forcing_prepare"
    PREPARED = "prepared"
    COMMITTING = "committing"
    COMMITTED = "committed"
    HEURISTIC = "heuristic"
    DONE = "done"


VOTE_TIMER = "2pc.votes"
ACK_TIMER = "2pc.acks"
OUTCOME_TIMER = "2pc.outcome"
COMMIT_FORCE = "2pc.commit_force"
PREPARE_FORCE = "2pc.prepare_force"
SUB_COMMIT_FORCE = "2pc.sub_commit_force"
SUB_COMMIT_DURABLE = "2pc.sub_commit_durable"


class TwoPhaseCoordinator(NotifyTail):
    """Coordinator-side state machine for one transaction."""

    max_prepare_retries = 3
    max_notify_retries = None   # must keep notifying until every ack

    def __init__(self, tid: TID, site: str, subordinates: Sequence[str],
                 variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED,
                 use_multicast: bool = False):
        self.tid = tid
        self.site = site
        self.subordinates = list(subordinates)
        self.variant = variant
        self.use_multicast = use_multicast

        self.state = CoordinatorState.COLLECTING
        self.votes: Dict[str, Vote] = {}
        self.local_vote: Optional[Vote] = None
        self.update_subs: List[str] = []
        self.outcome: Optional[Outcome] = None
        self.prepare_retries = 0

    # --------------------------------------------------------- lifecycle

    def start(self) -> Effects:
        """Kick off phase one: local prepare plus prepares to every sub."""
        effects: Effects = [LocalPrepare(self.tid)]
        effects.extend(self._send_prepares(self.subordinates))
        if self.subordinates:
            effects.append(StartTimer(VOTE_TIMER))
        return effects

    def _send_prepares(self, dsts: Sequence[str]) -> Effects:
        if not dsts:
            return []
        return self._fan_out(dsts, PrepareRequest(
            tid=self.tid, sender=self.site, variant=self.variant))

    # ------------------------------------------------------------ inputs

    def on_local_prepared(self, vote: Vote) -> Effects:
        if self.state is not CoordinatorState.COLLECTING:
            return []
        self.local_vote = vote
        if vote is Vote.NO:
            return self._decide_abort()
        return self._maybe_decide()

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, VoteResponse):
            return self._on_vote(msg)
        if isinstance(msg, CommitAck) \
                and self.state is CoordinatorState.COMMITTED:
            return self._notify_ack(msg.sender, ACK_TIMER)
        if isinstance(msg, TxnInquiry):
            return self._on_inquiry(msg)
        return []

    def _on_vote(self, msg: VoteResponse) -> Effects:
        if msg.sender not in self.subordinates:
            return []
        if self.state is not CoordinatorState.COLLECTING:
            # Late vote after a decision: a YES-voter will learn the
            # outcome via the notice/inquiry path; nothing to do.
            return []
        if msg.sender in self.votes:
            return []
        self.votes[msg.sender] = msg.vote  # lint: bounded(per-txn machine, discarded whole)
        if msg.vote is Vote.NO:
            return self._decide_abort()
        return self._maybe_decide()

    def _maybe_decide(self) -> Effects:
        if self.local_vote is None or len(self.votes) < len(self.subordinates):
            return []
        self.update_subs = [s for s in self.subordinates
                            if self.votes[s] is Vote.YES]
        read_only_txn = (self.local_vote is Vote.READ_ONLY
                         and not self.update_subs)
        effects: Effects = [CancelTimer(VOTE_TIMER)] if self.subordinates else []
        if read_only_txn:
            # No updates anywhere: committed with zero log writes.
            self.state = CoordinatorState.DONE
            self.outcome = Outcome.COMMITTED
            effects.extend([
                Trace("2pc.read_only_commit", {"tid": str(self.tid)}),
                LocalCommit(self.tid),
                Complete(self.tid, Outcome.COMMITTED),
                Forget(self.tid),
            ])
            return effects
        self.state = CoordinatorState.FORCING_COMMIT
        record = coordinator_commit_record(str(self.tid), self.site,
                                           subordinates=self.update_subs)
        effects.append(ForceLog(record, COMMIT_FORCE))
        return effects

    def on_log_forced(self, token: str) -> Effects:
        if token != COMMIT_FORCE or self.state is not CoordinatorState.FORCING_COMMIT:
            return []
        self.state = CoordinatorState.COMMITTED
        self.outcome = Outcome.COMMITTED
        self.unacked = tuple(self.update_subs)
        effects: Effects = []
        if self.unacked:
            effects = self._fan_out(self.unacked, CommitNotice(
                tid=self.tid, sender=self.site))
            effects.append(StartTimer(ACK_TIMER))
        effects.append(LocalCommit(self.tid))
        effects.append(Complete(self.tid, Outcome.COMMITTED))
        if not self.unacked:
            effects.extend(self._finish())
        return effects

    def _finish(self) -> Effects:
        self.state = CoordinatorState.DONE
        return [WriteLog(end_record(str(self.tid), self.site)),
                Forget(self.tid)]

    def _on_inquiry(self, msg: TxnInquiry) -> Effects:
        if self.outcome is None:
            # Still undecided: the safest answer is silence; the inquirer
            # retries and presumed abort resolves us if we die first.
            return []
        return [SendDatagram(msg.sender,
                             InquiryResponse(tid=self.tid, sender=self.site,
                                             outcome=self.outcome))]

    def on_timer(self, token: str) -> Effects:
        if token == VOTE_TIMER and self.state is CoordinatorState.COLLECTING:
            missing = [s for s in self.subordinates if s not in self.votes]
            if self.prepare_retries < self.max_prepare_retries:
                self.prepare_retries += 1
                effects = self._send_prepares(missing)
                effects.append(StartTimer(VOTE_TIMER))
                return effects
            return self._decide_abort()
        if token == ACK_TIMER and self.state is CoordinatorState.COMMITTED:
            return self._notify_retry(
                CommitNotice(tid=self.tid, sender=self.site), ACK_TIMER)
        return []

    # ------------------------------------------------------------ abort

    def _decide_abort(self) -> Effects:
        if self.state in (CoordinatorState.ABORTED, CoordinatorState.DONE):
            return []
        self.state = CoordinatorState.ABORTED
        self.outcome = Outcome.ABORTED
        # Presumed abort: lazy record, no acknowledgements, forget at once.
        effects: Effects = [CancelTimer(VOTE_TIMER)] if self.subordinates else []
        targets = [s for s in self.subordinates
                   if self.votes.get(s) not in (Vote.NO, Vote.READ_ONLY)]
        effects.append(WriteLog(abort_record(str(self.tid), self.site)))
        effects.extend(SendDatagram(s, AbortNotice(tid=self.tid, sender=self.site))
                       for s in targets)
        effects.append(LocalAbort(self.tid))
        effects.append(Complete(self.tid, Outcome.ABORTED))
        self.state = CoordinatorState.DONE
        effects.append(Forget(self.tid))
        return effects

    def abort_now(self) -> Effects:
        """Application-requested abort (abort-transaction call)."""
        return self._decide_abort()

    # ---------------------------------------------------------- recovery

    @classmethod
    def recovered(cls, tid: TID, site: str,
                  pending_subs: Sequence[str]) -> "TwoPhaseCoordinator":
        """Rebuild a committed coordinator found in the log (COORD_COMMIT
        without END): it must keep notifying until every ack arrives."""
        coord = cls(tid, site, pending_subs)
        coord.state = CoordinatorState.COMMITTED
        coord.outcome = Outcome.COMMITTED
        coord.update_subs = list(pending_subs)
        coord.unacked = tuple(pending_subs)
        coord.votes = {s: Vote.YES for s in pending_subs}
        coord.local_vote = Vote.YES
        return coord

    def resume_notifications(self) -> Effects:
        """Effects to emit right after :meth:`recovered`."""
        return self._notify(CommitNotice(tid=self.tid, sender=self.site),
                            ACK_TIMER)


class TwoPhaseSubordinate:
    """Subordinate-side state machine for one transaction."""

    def __init__(self, tid: TID, site: str, coordinator: str,
                 variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED):
        self.tid = tid
        self.site = site
        self.coordinator = coordinator
        self.variant = variant
        self.state = SubordinateState.PREPARING
        self.vote: Optional[Vote] = None
        self.outcome: Optional[Outcome] = None
        # Heuristic-commit bookkeeping (the LU 6.2-style escape hatch):
        # set when an operator resolved the blocked transaction locally.
        self.heuristic_outcome: Optional[Outcome] = None
        self.heuristic_damage = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> Effects:
        """Handle the (first) prepare request."""
        return [LocalPrepare(self.tid)]

    def on_local_prepared(self, vote: Vote) -> Effects:
        if self.state is not SubordinateState.PREPARING:
            return []
        self.vote = vote
        if vote is Vote.NO:
            self.state = SubordinateState.DONE
            self.outcome = Outcome.ABORTED
            return [
                SendDatagram(self.coordinator,
                             VoteResponse(tid=self.tid, sender=self.site,
                                          vote=Vote.NO)),
                WriteLog(abort_record(str(self.tid), self.site)),
                LocalAbort(self.tid),
                Forget(self.tid),
            ]
        if vote is Vote.READ_ONLY:
            # Read-only: no records, drop (read) locks, omit from phase 2.
            # No outcome is recorded: this site has no stake, and must
            # never claim "committed" for a transaction that may abort.
            self.state = SubordinateState.DONE
            return [
                SendDatagram(self.coordinator,
                             VoteResponse(tid=self.tid, sender=self.site,
                                          vote=Vote.READ_ONLY)),
                LocalCommit(self.tid),
                Forget(self.tid),
            ]
        self.state = SubordinateState.FORCING_PREPARE
        record = prepare_record(str(self.tid), self.site, self.coordinator)
        return [ForceLog(record, PREPARE_FORCE)]

    def on_log_forced(self, token: str) -> Effects:
        if token == PREPARE_FORCE and self.state is SubordinateState.FORCING_PREPARE:
            self.state = SubordinateState.PREPARED
            return [
                SendDatagram(self.coordinator,
                             VoteResponse(tid=self.tid, sender=self.site,
                                          vote=Vote.YES)),
                StartTimer(OUTCOME_TIMER),
            ]
        if token == SUB_COMMIT_FORCE and self.state is SubordinateState.COMMITTING:
            return self._commit_record_durable(forced=True)
        return []

    def on_log_durable(self, token: str) -> Effects:
        if token == SUB_COMMIT_DURABLE and self.state is SubordinateState.COMMITTING:
            return self._commit_record_durable(forced=False)
        return []

    # ------------------------------------------------------------ inputs

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, PrepareRequest):
            return self._on_duplicate_prepare()
        if isinstance(msg, CommitNotice):
            return self._on_commit()
        if isinstance(msg, AbortNotice):
            return self._on_abort()
        if isinstance(msg, InquiryResponse):
            if msg.outcome is Outcome.COMMITTED:
                return self._on_commit()
            if msg.outcome is Outcome.ABORTED:
                return self._on_abort()
            return []
        return []

    def _on_duplicate_prepare(self) -> Effects:
        # The coordinator retried: our vote was lost.  Re-send it.
        if self.state is SubordinateState.PREPARED and self.vote is not None:
            return [SendDatagram(self.coordinator,
                                 VoteResponse(tid=self.tid, sender=self.site,
                                              vote=self.vote))]
        return []

    def _on_commit(self) -> Effects:
        if self.state is SubordinateState.HEURISTIC:
            return self._resolve_heuristic(Outcome.COMMITTED)
        if self.state is not SubordinateState.PREPARED:
            if self.state in (SubordinateState.COMMITTING,
                              SubordinateState.COMMITTED,
                              SubordinateState.DONE):
                return self._maybe_reack()
            return []
        self.state = SubordinateState.COMMITTING
        self.outcome = Outcome.COMMITTED
        effects: Effects = [CancelTimer(OUTCOME_TIMER)]
        record = commit_record(str(self.tid), self.site)
        if self.variant is TwoPhaseVariant.OPTIMIZED:
            # Drop locks first, write the commit record lazily, ack when
            # it becomes durable: one fewer force, shorter lock hold.
            effects.append(LocalCommit(self.tid))
            effects.append(WriteLog(record, token=SUB_COMMIT_DURABLE))
        elif self.variant is TwoPhaseVariant.SEMI_OPTIMIZED:
            # Locks still drop early, but the record is forced.
            effects.append(LocalCommit(self.tid))
            effects.append(ForceLog(record, SUB_COMMIT_FORCE))
        else:  # UNOPTIMIZED: force, then drop locks, then ack immediately.
            effects.append(ForceLog(record, SUB_COMMIT_FORCE))
        return effects

    def _commit_record_durable(self, forced: bool) -> Effects:
        self.state = SubordinateState.COMMITTED
        effects: Effects = []
        if self.variant is TwoPhaseVariant.UNOPTIMIZED:
            effects.append(LocalCommit(self.tid))  # locks held until now
            effects.append(SendDatagram(self.coordinator,
                                        CommitAck(tid=self.tid, sender=self.site)))
        else:
            # Delayed ack: piggybacked on the next datagram to the
            # coordinator (or a lazy-send sweep), never a fresh datagram
            # on the critical path.
            effects.append(LazySendDatagram(self.coordinator,
                                            CommitAck(tid=self.tid,
                                                      sender=self.site)))
        self.state = SubordinateState.DONE
        effects.append(Forget(self.tid))
        return effects

    def _maybe_reack(self) -> Effects:
        # A retransmitted commit notice means our ack was lost.
        if self.outcome is Outcome.COMMITTED and self.state in (
                SubordinateState.COMMITTED, SubordinateState.DONE):
            return [SendDatagram(self.coordinator,
                                 CommitAck(tid=self.tid, sender=self.site))]
        return []

    def _on_abort(self) -> Effects:
        if self.state is SubordinateState.HEURISTIC:
            return self._resolve_heuristic(Outcome.ABORTED)
        if self.state in (SubordinateState.COMMITTING,
                          SubordinateState.COMMITTED):
            raise ProtocolViolation(
                f"{self.tid}: abort notice after commit at {self.site}")
        if self.state is SubordinateState.DONE:
            return []
        self.state = SubordinateState.DONE
        self.outcome = Outcome.ABORTED
        return [
            CancelTimer(OUTCOME_TIMER),
            WriteLog(abort_record(str(self.tid), self.site)),
            LocalAbort(self.tid),
            Forget(self.tid),
        ]

    # --------------------------------------------------- heuristic commit

    def heuristic_resolve(self, outcome: Outcome) -> Effects:
        """Resolve a *blocked* transaction by operator/program decision —
        the "heuristic commit" escape hatch of LU 6.2 (paper §5): it
        releases the locks now, at the price of possibly diverging from
        the coordinator's eventual decision.

        The machine stays alive, still inquiring; when the true outcome
        finally arrives, a mismatch is recorded as *heuristic damage*
        (reported, never silently absorbed — the data exposure already
        happened and cannot be undone).
        """
        if self.state is not SubordinateState.PREPARED:
            raise ProtocolViolation(
                f"{self.tid}: heuristic resolution while {self.state}")
        self.heuristic_outcome = outcome
        self.state = SubordinateState.HEURISTIC
        effects: Effects = [
            Trace("2pc.heuristic_resolve", {"tid": str(self.tid),
                                            "outcome": outcome.value}),
        ]
        if outcome is Outcome.COMMITTED:
            effects.append(LocalCommit(self.tid))
            effects.append(WriteLog(commit_record(str(self.tid), self.site)))
        else:
            effects.append(WriteLog(abort_record(str(self.tid), self.site)))
            effects.append(LocalAbort(self.tid))
        # Keep asking: we still owe the coordinator an answer, and we
        # want to learn (and report) whether we guessed right.
        effects.append(StartTimer(OUTCOME_TIMER))
        return effects

    def _resolve_heuristic(self, true_outcome: Outcome) -> Effects:
        assert self.heuristic_outcome is not None
        self.outcome = true_outcome
        self.state = SubordinateState.DONE
        effects: Effects = [CancelTimer(OUTCOME_TIMER)]
        if true_outcome is not self.heuristic_outcome:
            self.heuristic_damage = True
            effects.append(Trace("2pc.heuristic_damage",
                                 {"tid": str(self.tid),
                                  "guessed": self.heuristic_outcome.value,
                                  "actual": true_outcome.value}))
        if true_outcome is Outcome.COMMITTED:
            effects.append(SendDatagram(self.coordinator,
                                        CommitAck(tid=self.tid,
                                                  sender=self.site)))
        effects.append(Forget(self.tid))
        return effects

    def on_timer(self, token: str) -> Effects:
        if token == OUTCOME_TIMER and self.state is SubordinateState.HEURISTIC:
            return [
                SendDatagram(self.coordinator,
                             TxnInquiry(tid=self.tid, sender=self.site)),
                StartTimer(OUTCOME_TIMER),
            ]
        if token == OUTCOME_TIMER and self.state is SubordinateState.PREPARED:
            # Blocked: keep asking.  If the coordinator has forgotten or
            # recovered with no trace of us, presumed abort answers.
            return [
                Trace("2pc.blocked_inquiry", {"tid": str(self.tid),
                                              "site": self.site}),
                SendDatagram(self.coordinator,
                             TxnInquiry(tid=self.tid, sender=self.site)),
                StartTimer(OUTCOME_TIMER),
            ]
        return []

    # ---------------------------------------------------------- recovery

    @classmethod
    def recovered(cls, tid: TID, site: str,
                  coordinator: str) -> "TwoPhaseSubordinate":
        """Rebuild a prepared subordinate found in the log (PREPARE with
        no outcome record): still blocked, must inquire."""
        sub = cls(tid, site, coordinator)
        sub.state = SubordinateState.PREPARED
        sub.vote = Vote.YES
        return sub

    def resume_inquiry(self) -> Effects:
        return [
            SendDatagram(self.coordinator,
                         TxnInquiry(tid=self.tid, sender=self.site)),
            StartTimer(OUTCOME_TIMER),
        ]


class ProtocolViolation(AssertionError):
    """An impossible protocol transition — a bug, never a runtime event."""
