"""The non-blocking commitment protocol (paper §3.3).

Two-phase commit has a window of vulnerability: between its prepare and
its receipt of the outcome, a subordinate that loses the coordinator
must stay *blocked*, holding write locks.  Camelot's non-blocking
protocol lets at least some sites commit or abort despite any single
site crash or network partition, at the cost of ~2x the critical path
(4 log forces + 5 messages vs 2 + 3).  It makes five changes to 2PC:

1. The prepare message carries the full site list and the quorum sizes
   for the replication phase.
2. Subordinates do not wait forever for the outcome: they time out and
   *become coordinators*.  Multiple simultaneous coordinators are
   possible and harmless.
3. An extra **replication phase** sits between the standard two: the
   coordinator collects the votes, then replicates the decision data
   (vote vector + quorum spec) at subordinates, each forcing a
   replication record.  The commit point is the log write that completes
   a *commit quorum* of replication records (quorum consensus).
4. No transaction manager forgets a transaction until all sites have
   committed or aborted, and no site joins both a commit and an abort
   quorum for the same transaction.
5. The coordinator prepares before sending the prepare message.

The precise quorum rules are reconstructed from the paper plus Skeen's
quorum-based commit (the paper's protocol reference [8] is a tech
report):

- **Commit** requires ``commit_quorum`` sites holding durable
  replication records.  A takeover coordinator may *promote* prepared
  sites into the commit quorum (they force replication records) — but
  only if at least one reachable site already holds a replication
  record, which proves every vote was YES.
- **Abort** is unilateral for the original coordinator *before* it sends
  any replication message (no replication record can exist, so no one
  can ever commit).  Afterwards — and always for takeovers — abort
  requires ``abort_quorum`` sites durably *pledging* (forced
  ABORT_PLEDGE record) never to join the commit quorum.
- A site holding a replication record refuses to pledge; a pledged site
  refuses promotion and votes NO to any late prepare.  Because
  ``commit_quorum + abort_quorum > n_sites``, at most one kind of quorum
  can ever complete.

Read-only behaviour: a read-only subordinate votes READ_ONLY, writes
nothing, and drops out (no replication or notify phase) unless the
coordinator must draft it as a *quorum helper* because the update sites
alone cannot form a commit quorum.  A completely read-only transaction
has the same critical path as two-phase commit: one round of messages,
zero log writes.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set

from repro.core.effects import (
    CancelTimer,
    Complete,
    Effect,
    ForceLog,
    Forget,
    LocalAbort,
    LocalCommit,
    LocalPrepare,
    POLL,
    SendDatagram,
    StartTakeover,
    StartTimer,
    Trace,
    WriteLog,
)
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
    ProtocolMessage,
)
from repro.core.notify import NotifyTail
from repro.core.outcomes import Outcome, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.log.records import (
    abort_pledge_record,
    abort_record,
    commit_record,
    end_record,
    prepare_record,
    replication_record,
)

Effects = List[Effect]

# Timer / log-force tokens.
NB_VOTE_TIMER = "nb.votes"
NB_REPL_TIMER = "nb.replication"
NB_NOTIFY_TIMER = "nb.notify"
NB_OUTCOME_TIMER = "nb.outcome"
NB_TAKEOVER_TIMER = "nb.takeover"
NB_PREPARE_FORCE = "nb.prepare_force"
NB_REPL_FORCE = "nb.replication_force"
NB_PLEDGE_FORCE = "nb.pledge_force"


def make_decision_data(tid: TID, coordinator: str, sites: Sequence[str],
                       quorum: QuorumSpec, votes: Dict[str, Vote],
                       replication_targets: Sequence[str]) -> Dict[str, Any]:
    """The self-contained payload replicated at the commit quorum."""
    return {
        "tid": str(tid),
        "coordinator": coordinator,
        "sites": list(sites),
        "quorum": quorum.to_dict(),
        "votes": {site: vote.value for site, vote in votes.items()},
        "replication_targets": list(replication_targets),
    }


class NbCoordinatorState(Enum):
    LOCAL_PREPARING = "local_preparing"
    FORCING_PREPARE = "forcing_prepare"
    COLLECTING = "collecting"
    FORCING_REPLICATION = "forcing_replication"
    REPLICATING = "replicating"
    NOTIFYING = "notifying"
    DONE = "done"


class NbCoordinator(NotifyTail):
    """Original-coordinator machine: the failure-free (and vote-NO) paths.

    Deliberately *not* resumed after a coordinator crash: recovery spawns
    an :class:`NbTakeover` instead, which unifies the crash-recovery and
    subordinate-timeout termination paths (the protocol tolerates
    multiple coordinators, so this is free).
    """

    max_prepare_retries = 3
    max_notify_retries = None   # change 4: no forgetting before every ack

    def __init__(self, tid: TID, site: str, subordinates: Sequence[str],
                 quorum: Optional[QuorumSpec] = None,
                 use_multicast: bool = False,
                 already_pledged: bool = False):
        self.tid = tid
        self.site = site
        self.already_pledged = already_pledged
        self.subordinates = list(subordinates)
        self.sites = [site] + self.subordinates
        self.quorum = quorum or QuorumSpec.majority(len(self.sites))
        if self.quorum.n_sites != len(self.sites):
            raise ValueError("quorum spec sized for a different site count")
        self.use_multicast = use_multicast

        self.state = NbCoordinatorState.LOCAL_PREPARING
        self.votes: Dict[str, Vote] = {}
        self.local_vote: Optional[Vote] = None
        self.update_sites: List[str] = []
        self.replication_targets: List[str] = []
        self.replicated: Set[str] = set()
        self.decision_data: Optional[Dict[str, Any]] = None
        self.outcome: Optional[Outcome] = None
        self.prepare_retries = 0
        self.replication_sent = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> Effects:
        """Change 5: the coordinator prepares before sending prepares."""
        return [LocalPrepare(self.tid,
                             extra_payload={"sites": self.sites,
                                            "quorum": self.quorum.to_dict()})]

    def on_local_prepared(self, vote: Vote) -> Effects:
        if self.state is not NbCoordinatorState.LOCAL_PREPARING:
            return []
        if self.already_pledged:
            # This site granted a durable abort pledge to a concurrent
            # takeover before commitment began: it promised never to
            # join the commit quorum, so coordinating a commit now could
            # let both quorums form.  Abort — always legal here, since
            # replication has not started.
            self.local_vote = Vote.NO
            return [Trace("nb.pledged_coordinator_abort",
                          {"tid": str(self.tid)})] + self._decide_abort()
        self.local_vote = vote
        if vote is Vote.NO:
            return self._decide_abort()
        if vote is Vote.YES:
            # Force our own prepare record (with site list and quorum)
            # before any prepare message leaves this site.
            self.state = NbCoordinatorState.FORCING_PREPARE
            record = prepare_record(str(self.tid), self.site, self.site,
                                    sites=self.sites,
                                    quorum_sizes=self.quorum.to_dict())
            return [ForceLog(record, NB_PREPARE_FORCE)]
        # Read-only coordinator: nothing to force yet.
        return self._enter_collecting()

    def on_log_forced(self, token: str) -> Effects:
        if (token == NB_PREPARE_FORCE
                and self.state is NbCoordinatorState.FORCING_PREPARE):
            return self._enter_collecting()
        if (token == NB_REPL_FORCE
                and self.state is NbCoordinatorState.FORCING_REPLICATION):
            self.replicated.add(self.site)  # lint: bounded(per-txn machine, discarded whole)
            return self._start_replication_round()
        return []

    def _enter_collecting(self) -> Effects:
        self.state = NbCoordinatorState.COLLECTING
        if not self.subordinates:
            return self._maybe_decide()
        effects = self._send_prepares(self.subordinates)
        effects.append(StartTimer(NB_VOTE_TIMER))
        return effects

    def _send_prepares(self, dsts: Sequence[str]) -> Effects:
        return self._fan_out(dsts, NbPrepare(
            tid=self.tid, sender=self.site, sites=tuple(self.sites),
            quorum=self.quorum))

    # ------------------------------------------------------------ inputs

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, NbVote):
            return self._on_vote(msg)
        if isinstance(msg, NbReplicateAck):
            return self._on_replicate_ack(msg)
        if isinstance(msg, NbOutcomeAck) \
                and self.state is NbCoordinatorState.NOTIFYING:
            return self._notify_ack(msg.sender, NB_NOTIFY_TIMER)
        if isinstance(msg, NbStateRequest):
            return self._on_state_request(msg)
        if isinstance(msg, NbOutcome):
            return self._on_peer_outcome(msg)
        return []

    def _on_vote(self, msg: NbVote) -> Effects:
        if (self.state is not NbCoordinatorState.COLLECTING
                or msg.sender not in self.subordinates
                or msg.sender in self.votes):
            return []
        self.votes[msg.sender] = msg.vote  # lint: bounded(per-txn machine, discarded whole)
        if msg.vote is Vote.NO:
            return self._decide_abort()
        return self._maybe_decide()

    def _maybe_decide(self) -> Effects:
        if self.local_vote is None or len(self.votes) < len(self.subordinates):
            return []
        votes = dict(self.votes)
        votes[self.site] = self.local_vote
        self.update_sites = [s for s in self.sites if votes[s] is Vote.YES]
        effects: Effects = [CancelTimer(NB_VOTE_TIMER)] if self.subordinates else []
        if not self.update_sites:
            # Completely read-only: committed, no replication, no notify,
            # zero log writes — the same critical path as 2PC read.
            self.state = NbCoordinatorState.DONE
            self.outcome = Outcome.COMMITTED
            effects.extend([
                Trace("nb.read_only_commit", {"tid": str(self.tid)}),
                LocalCommit(self.tid),
                Complete(self.tid, Outcome.COMMITTED),
                Forget(self.tid),
            ])
            return effects
        # Replication targets: update sites, plus read-only helpers if
        # the update sites alone cannot form the commit quorum.
        targets = list(self.update_sites)
        if len(targets) < self.quorum.commit_quorum:
            helpers = [s for s in self.sites if s not in targets]
            needed = self.quorum.commit_quorum - len(targets)
            targets.extend(helpers[:needed])
        self.replication_targets = targets
        self.decision_data = make_decision_data(
            self.tid, self.site, self.sites, self.quorum, votes, targets)
        if self.site in targets:
            # Force our replication record before replicating (this is
            # the 3rd of the critical path's 4 forces).
            self.state = NbCoordinatorState.FORCING_REPLICATION
            record = replication_record(str(self.tid), self.site,
                                        self.decision_data)
            effects.append(ForceLog(record, NB_REPL_FORCE))
            return effects
        return effects + self._start_replication_round()

    def _start_replication_round(self) -> Effects:
        self.state = NbCoordinatorState.REPLICATING
        self.replication_sent = True
        remote = [s for s in self.replication_targets if s != self.site]
        effects: Effects = []
        msg = NbReplicate(tid=self.tid, sender=self.site,
                          decision_data=self.decision_data or {})
        if remote:
            effects += self._fan_out(remote, msg)
            effects.append(StartTimer(NB_REPL_TIMER))
        effects.extend(self._maybe_commit_point())
        return effects

    def _on_replicate_ack(self, msg: NbReplicateAck) -> Effects:
        if self.state is not NbCoordinatorState.REPLICATING:
            return []
        if msg.sender not in self.replication_targets:
            return []
        if not msg.ok:
            # The site pledged abort under a concurrent takeover; that
            # takeover will drive the outcome.  We cannot complete the
            # quorum through this site; just keep waiting for others or
            # for the takeover's NbOutcome.
            return [Trace("nb.replicate_refused",
                          {"tid": str(self.tid), "site": msg.sender})]
        self.replicated.add(msg.sender)
        return self._maybe_commit_point()

    def _maybe_commit_point(self) -> Effects:
        if self.state is not NbCoordinatorState.REPLICATING:
            return []
        if not self.quorum.can_commit(len(self.replicated)):
            return []
        # The commit point: a commit quorum of replication records exists.
        self.state = NbCoordinatorState.NOTIFYING
        self.outcome = Outcome.COMMITTED
        effects: Effects = [CancelTimer(NB_REPL_TIMER),
                            Trace("nb.commit_point", {"tid": str(self.tid)})]
        # Notify every site that did any work: update sites and helpers.
        self.unacked = tuple(s for s in dict.fromkeys(
            self.update_sites + self.replication_targets) if s != self.site)
        if self.unacked:
            effects += self._fan_out(self.unacked, NbOutcome(
                tid=self.tid, sender=self.site, outcome=Outcome.COMMITTED))
            effects.append(StartTimer(NB_NOTIFY_TIMER))
        effects.append(LocalCommit(self.tid))
        effects.append(WriteLog(commit_record(str(self.tid), self.site)))
        effects.append(Complete(self.tid, Outcome.COMMITTED))
        if not self.unacked:
            effects.extend(self._finish())
        return effects

    def _finish(self) -> Effects:
        # Change 4: we may expunge only now, when every site has decided.
        self.state = NbCoordinatorState.DONE
        return [WriteLog(end_record(str(self.tid), self.site)),
                Forget(self.tid)]

    def _on_state_request(self, msg: NbStateRequest) -> Effects:
        status, data = self._own_status()
        return [SendDatagram(msg.sender,
                             NbStateReport(tid=self.tid, sender=self.site,
                                           status=status, decision_data=data,
                                           round=msg.round))]

    def _own_status(self) -> tuple[str, Optional[Dict[str, Any]]]:
        if self.outcome is Outcome.COMMITTED:
            return "committed", None
        if self.outcome is Outcome.ABORTED:
            return "aborted", None
        if self.site in self.replicated:
            return "replicated", self.decision_data
        if self.local_vote is Vote.YES:
            return "prepared", None
        return "no_state", None

    def _on_peer_outcome(self, msg: NbOutcome) -> Effects:
        """A takeover coordinator decided for us."""
        effects: Effects = [SendDatagram(
            msg.sender, NbOutcomeAck(tid=self.tid, sender=self.site))]
        if self.outcome is not None:
            if self.outcome is not msg.outcome:
                raise NbProtocolViolation(
                    f"{self.tid}: conflicting outcomes at coordinator "
                    f"{self.site}: had {self.outcome}, told {msg.outcome}")
            return effects
        if msg.outcome is Outcome.COMMITTED:
            if not self.replication_sent:
                raise NbProtocolViolation(
                    f"{self.tid}: peer committed before replication began")
            self.outcome = Outcome.COMMITTED
            self.state = NbCoordinatorState.DONE
            effects.extend([
                CancelTimer(NB_REPL_TIMER),
                LocalCommit(self.tid),
                WriteLog(commit_record(str(self.tid), self.site)),
                Complete(self.tid, Outcome.COMMITTED),
                Forget(self.tid),
            ])
            return effects
        # Aborted by an abort quorum.
        self.outcome = Outcome.ABORTED
        self.state = NbCoordinatorState.DONE
        effects.extend([
            CancelTimer(NB_VOTE_TIMER),
            CancelTimer(NB_REPL_TIMER),
            WriteLog(abort_record(str(self.tid), self.site)),
            LocalAbort(self.tid),
            Complete(self.tid, Outcome.ABORTED),
            Forget(self.tid),
        ])
        return effects

    # ------------------------------------------------------------ timers

    def on_timer(self, token: str) -> Effects:
        if token == NB_VOTE_TIMER and self.state is NbCoordinatorState.COLLECTING:
            missing = [s for s in self.subordinates if s not in self.votes]
            if self.prepare_retries < self.max_prepare_retries:
                self.prepare_retries += 1
                effects = self._send_prepares(missing)
                effects.append(StartTimer(NB_VOTE_TIMER))
                return effects
            # Vote collection failed; replication never started, so a
            # unilateral abort is safe (no one can ever commit).
            return self._decide_abort()
        if token == NB_REPL_TIMER and self.state is NbCoordinatorState.REPLICATING:
            missing = [s for s in self.replication_targets
                       if s != self.site and s not in self.replicated]
            msg = NbReplicate(tid=self.tid, sender=self.site,
                              decision_data=self.decision_data or {})
            effects: Effects = [SendDatagram(s, msg) for s in missing]
            effects.append(StartTimer(NB_REPL_TIMER))
            return effects
        if token == NB_NOTIFY_TIMER and self.state is NbCoordinatorState.NOTIFYING:
            return self._notify_retry(
                NbOutcome(tid=self.tid, sender=self.site,
                          outcome=Outcome.COMMITTED), NB_NOTIFY_TIMER)
        return []

    # ------------------------------------------------------------ abort

    def _decide_abort(self) -> Effects:
        """Unilateral abort: legal only before replication begins."""
        if self.replication_sent:
            raise NbProtocolViolation(
                f"{self.tid}: unilateral abort after replication began")
        if self.state is NbCoordinatorState.DONE:
            return []
        self.state = NbCoordinatorState.DONE
        self.outcome = Outcome.ABORTED
        targets = [s for s in self.subordinates
                   if self.votes.get(s) not in (Vote.NO, Vote.READ_ONLY)]
        effects: Effects = [CancelTimer(NB_VOTE_TIMER)]
        effects.append(WriteLog(abort_record(str(self.tid), self.site)))
        notice = NbOutcome(tid=self.tid, sender=self.site,
                           outcome=Outcome.ABORTED)
        effects.extend(SendDatagram(s, notice) for s in targets)
        effects.append(LocalAbort(self.tid))
        effects.append(Complete(self.tid, Outcome.ABORTED))
        effects.append(Forget(self.tid))
        return effects

    def abort_now(self) -> Effects:
        """Application-requested abort — only valid pre-replication."""
        return self._decide_abort()


class NbSubState(Enum):
    PREPARING = "preparing"
    FORCING_PREPARE = "forcing_prepare"
    PREPARED = "prepared"
    FORCING_REPLICATION = "forcing_replication"
    REPLICATED = "replicated"
    FORCING_PLEDGE = "forcing_pledge"
    PLEDGED = "pledged"
    DONE = "done"


class NbSubordinate:
    """Participant machine at a subordinate (or quorum-helper) site."""

    def __init__(self, tid: TID, site: str, coordinator: str,
                 sites: Sequence[str], quorum: QuorumSpec,
                 already_pledged: bool = False):
        self.tid = tid
        self.site = site
        self.coordinator = coordinator
        self.sites = list(sites)
        self.quorum = quorum
        self.already_pledged = already_pledged

        self.state = NbSubState.PREPARING
        self.vote: Optional[Vote] = None
        self.outcome: Optional[Outcome] = None
        self.decision_data: Optional[Dict[str, Any]] = None
        self._pending_replicate_sender: Optional[str] = None
        self._pending_pledge_sender: Optional[str] = None

    # --------------------------------------------------------- lifecycle

    def start(self) -> Effects:
        if self.already_pledged:
            # We durably promised an abort quorum we would never join the
            # commit quorum; any late prepare must be answered NO.
            self.vote = Vote.NO
            self.state = NbSubState.PLEDGED
            return [SendDatagram(self.coordinator,
                                 NbVote(tid=self.tid, sender=self.site,
                                        vote=Vote.NO))]
        return [LocalPrepare(self.tid,
                             extra_payload={"sites": self.sites,
                                            "quorum": self.quorum.to_dict()})]

    @classmethod
    def helper(cls, tid: TID, site: str,
               replicate_msg: NbReplicate) -> "NbSubordinate":
        """A read-only (or previously uninvolved) site drafted into the
        commit quorum: it was forgotten locally, but the replicate
        message is self-contained."""
        data = replicate_msg.decision_data
        sub = cls(tid, site, data["coordinator"], data["sites"],
                  QuorumSpec.from_dict(data["quorum"]))
        sub.vote = Vote.READ_ONLY
        sub.state = NbSubState.PREPARED  # eligible for replication
        return sub

    def on_local_prepared(self, vote: Vote) -> Effects:
        if self.state is not NbSubState.PREPARING:
            return []
        self.vote = vote
        if vote is Vote.NO:
            self.state = NbSubState.DONE
            self.outcome = Outcome.ABORTED
            return [
                SendDatagram(self.coordinator,
                             NbVote(tid=self.tid, sender=self.site,
                                    vote=Vote.NO)),
                WriteLog(abort_record(str(self.tid), self.site)),
                LocalAbort(self.tid),
                Forget(self.tid),
            ]
        if vote is Vote.READ_ONLY:
            # Drop out entirely; if drafted later, a helper machine is
            # rebuilt from the replicate message.  No outcome recorded —
            # a read-only site must never claim the transaction's fate.
            self.state = NbSubState.DONE
            return [
                SendDatagram(self.coordinator,
                             NbVote(tid=self.tid, sender=self.site,
                                    vote=Vote.READ_ONLY)),
                LocalCommit(self.tid),
                Forget(self.tid),
            ]
        self.state = NbSubState.FORCING_PREPARE
        record = prepare_record(str(self.tid), self.site, self.coordinator,
                                sites=self.sites,
                                quorum_sizes=self.quorum.to_dict())
        return [ForceLog(record, NB_PREPARE_FORCE)]

    def on_log_forced(self, token: str) -> Effects:
        if token == NB_PREPARE_FORCE and self.state is NbSubState.FORCING_PREPARE:
            self.state = NbSubState.PREPARED
            return [
                SendDatagram(self.coordinator,
                             NbVote(tid=self.tid, sender=self.site,
                                    vote=Vote.YES)),
                StartTimer(NB_OUTCOME_TIMER),
            ]
        if token == NB_REPL_FORCE and self.state is NbSubState.FORCING_REPLICATION:
            self.state = NbSubState.REPLICATED
            requester = self._pending_replicate_sender or self.coordinator
            self._pending_replicate_sender = None
            return [
                SendDatagram(requester,
                             NbReplicateAck(tid=self.tid, sender=self.site,
                                            ok=True)),
                CancelTimer(NB_OUTCOME_TIMER),
                StartTimer(NB_OUTCOME_TIMER),
            ]
        if token == NB_PLEDGE_FORCE and self.state is NbSubState.FORCING_PLEDGE:
            self.state = NbSubState.PLEDGED
            requester = self._pending_pledge_sender or self.coordinator
            self._pending_pledge_sender = None
            return [
                SendDatagram(requester,
                             NbAbortJoinAck(tid=self.tid, sender=self.site,
                                            ok=True)),
                CancelTimer(NB_OUTCOME_TIMER),
                StartTimer(NB_OUTCOME_TIMER),
            ]
        return []

    # ------------------------------------------------------------ inputs

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, NbPrepare):
            return self._on_duplicate_prepare()
        if isinstance(msg, NbReplicate):
            return self._on_replicate(msg)
        if isinstance(msg, NbAbortJoin):
            return self._on_abort_join(msg)
        if isinstance(msg, NbOutcome):
            return self._on_outcome(msg)
        if isinstance(msg, NbStateRequest):
            return self._on_state_request(msg)
        return []

    def _on_duplicate_prepare(self) -> Effects:
        if self.vote is not None and self.state in (
                NbSubState.PREPARED, NbSubState.REPLICATED, NbSubState.PLEDGED):
            resend_vote = Vote.NO if self.state is NbSubState.PLEDGED else self.vote
            return [SendDatagram(self.coordinator,
                                 NbVote(tid=self.tid, sender=self.site,
                                        vote=resend_vote))]
        return []

    def _on_replicate(self, msg: NbReplicate) -> Effects:
        if self.state is NbSubState.PLEDGED:
            # Change 4: never join both quorums.
            return [SendDatagram(msg.sender,
                                 NbReplicateAck(tid=self.tid, sender=self.site,
                                                ok=False))]
        if self.state is NbSubState.REPLICATED:
            return [SendDatagram(msg.sender,
                                 NbReplicateAck(tid=self.tid, sender=self.site,
                                                ok=True))]
        if self.state is not NbSubState.PREPARED:
            return []
        self.state = NbSubState.FORCING_REPLICATION
        self.decision_data = dict(msg.decision_data)
        self._pending_replicate_sender = msg.sender
        record = replication_record(str(self.tid), self.site, self.decision_data)
        return [ForceLog(record, NB_REPL_FORCE)]

    def _on_abort_join(self, msg: NbAbortJoin) -> Effects:
        if self.state in (NbSubState.REPLICATED, NbSubState.FORCING_REPLICATION):
            # Change 4, the other direction.
            return [SendDatagram(msg.sender,
                                 NbAbortJoinAck(tid=self.tid, sender=self.site,
                                                ok=False))]
        if self.state is NbSubState.PLEDGED:
            return [SendDatagram(msg.sender,
                                 NbAbortJoinAck(tid=self.tid, sender=self.site,
                                                ok=True))]
        if self.state is not NbSubState.PREPARED:
            return []
        self.state = NbSubState.FORCING_PLEDGE
        self._pending_pledge_sender = msg.sender
        return [ForceLog(abort_pledge_record(str(self.tid), self.site),
                         NB_PLEDGE_FORCE)]

    def _on_outcome(self, msg: NbOutcome) -> Effects:
        effects: Effects = [SendDatagram(
            msg.sender, NbOutcomeAck(tid=self.tid, sender=self.site))]
        if self.outcome is not None:
            if self.outcome is not msg.outcome:
                raise NbProtocolViolation(
                    f"{self.tid}: conflicting outcomes at {self.site}")
            return effects
        if self.state in (NbSubState.PREPARING, NbSubState.FORCING_PREPARE):
            # Outcome arrived before we even finished preparing (e.g. a
            # quick abort).  Adopt it; commit in this state is a protocol
            # violation because we never voted.
            if msg.outcome is Outcome.COMMITTED:
                raise NbProtocolViolation(
                    f"{self.tid}: commit outcome before vote at {self.site}")
        if msg.outcome is Outcome.COMMITTED:
            # A pledged site may still learn COMMITTED: its pledge only
            # kept it out of the commit quorum, which formed from other
            # sites.  Quorum intersection rules out a *decided* abort
            # coexisting, so adopting the outcome is safe.
            self.outcome = Outcome.COMMITTED
            self.state = NbSubState.DONE
            effects.extend([
                CancelTimer(NB_OUTCOME_TIMER),
                LocalCommit(self.tid),
                WriteLog(commit_record(str(self.tid), self.site)),
                Forget(self.tid),
            ])
            return effects
        self.outcome = Outcome.ABORTED
        self.state = NbSubState.DONE
        effects.extend([
            CancelTimer(NB_OUTCOME_TIMER),
            WriteLog(abort_record(str(self.tid), self.site)),
            LocalAbort(self.tid),
            Forget(self.tid),
        ])
        return effects

    def _on_state_request(self, msg: NbStateRequest) -> Effects:
        status, data = self.status_report()
        return [SendDatagram(msg.sender,
                             NbStateReport(tid=self.tid, sender=self.site,
                                           status=status, decision_data=data,
                                           round=msg.round))]

    def status_report(self) -> tuple[str, Optional[Dict[str, Any]]]:
        if self.outcome is Outcome.COMMITTED:
            return "committed", None
        if self.outcome is Outcome.ABORTED:
            return "aborted", None
        if self.state in (NbSubState.REPLICATED, NbSubState.FORCING_REPLICATION):
            return "replicated", self.decision_data
        if self.state in (NbSubState.PLEDGED, NbSubState.FORCING_PLEDGE):
            # A pledge force in flight cannot be cancelled, so report it
            # already — conservative on both sides (never counted as
            # replicated; never promoted).
            return "abort_pledged", None
        if self.state is NbSubState.PREPARED:
            return "prepared", None
        return "no_state", None

    # ------------------------------------------- local takeover sharing

    def note_local_replication(self) -> None:
        """A takeover on this same site forced our replication record
        (self-promotion); adopt the membership so we never pledge."""
        if self.state is NbSubState.PREPARED:
            self.state = NbSubState.REPLICATED

    def note_local_pledge(self) -> None:
        """A takeover on this same site forced our abort pledge."""
        if self.state is NbSubState.PREPARED:
            self.state = NbSubState.PLEDGED

    # ------------------------------------------------------------ timers

    def on_timer(self, token: str) -> Effects:
        if token != NB_OUTCOME_TIMER:
            return []
        if self.state in (NbSubState.PREPARED, NbSubState.REPLICATED,
                          NbSubState.PLEDGED):
            # Change 2: become a coordinator.  The host builds an
            # NbTakeover seeded from our durable state; we keep waiting
            # (and will learn the outcome from it like anyone else).
            return [
                Trace("nb.takeover", {"tid": str(self.tid), "site": self.site}),
                StartTakeover(self.tid),
                StartTimer(NB_OUTCOME_TIMER),
            ]
        return []


class NbTakeoverState(Enum):
    POLLING = "polling"
    PROMOTING = "promoting"
    PLEDGING = "pledging"
    NOTIFYING = "notifying"
    DONE = "done"


class NbTakeover(NotifyTail):
    """Termination protocol: a participant acting as a (new) coordinator.

    Also used by crash recovery to finish transactions found prepared or
    replicated in the log.  Several may run at once — quorum membership
    exclusivity (change 4) keeps them from deciding differently.
    """

    # Unreachable sites will run their own takeover and find the quorum
    # evidence: at the cap we may stand down.
    max_notify_retries = 10

    def __init__(self, tid: TID, site: str, sites: Sequence[str],
                 quorum: QuorumSpec, own_status: str,
                 own_decision_data: Optional[Dict[str, Any]] = None):
        self.tid = tid
        self.site = site
        self.sites = list(sites)
        self.quorum = quorum

        self.state = NbTakeoverState.POLLING
        self.round = 0
        self._evaluated_round = -1
        self.reports: Dict[str, str] = {site: own_status}
        self.decision_data: Optional[Dict[str, Any]] = own_decision_data
        self.outcome: Optional[Outcome] = None
        self.replicated: Set[str] = {site} if own_status == "replicated" else set()
        self.pledged: Set[str] = {site} if own_status == "abort_pledged" else set()
        # Everyone, including our own site: the local participant machine
        # learns the outcome through the same message as everyone else.
        self.unacked = tuple(self.sites)
        self.decided_by_peer = False

    # --------------------------------------------------------- lifecycle

    def start(self) -> Effects:
        own = self.reports.get(self.site)
        if own in ("committed", "aborted"):
            # Crash recovery found our own outcome but no end record:
            # just re-notify everyone else until they all acknowledge.
            self.decided_by_peer = True  # quorum evidence is in the log
            self.unacked = tuple(s for s in self.sites if s != self.site)
            return self._decide(Outcome.COMMITTED if own == "committed"
                                else Outcome.ABORTED)
        return self._new_round()

    def _new_round(self) -> Effects:
        self.round += 1
        self.state = NbTakeoverState.POLLING
        # Keep durable facts (replication records, pledges) across rounds;
        # refresh soft statuses.
        others = [s for s in self.sites if s != self.site]
        effects: Effects = [
            SendDatagram(s, NbStateRequest(tid=self.tid, sender=self.site,
                                           round=self.round))
            for s in others
        ]
        effects.append(StartTimer(NB_TAKEOVER_TIMER, POLL))
        return effects

    # ------------------------------------------------------------ inputs

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, NbStateReport):
            return self._on_report(msg)
        if isinstance(msg, NbReplicateAck):
            return self._on_replicate_ack(msg)
        if isinstance(msg, NbAbortJoinAck):
            return self._on_pledge_ack(msg)
        if isinstance(msg, NbOutcomeAck) \
                and self.state is NbTakeoverState.NOTIFYING:
            return self._notify_ack(msg.sender, NB_TAKEOVER_TIMER)
        if isinstance(msg, NbOutcome):
            return self._on_peer_outcome(msg)
        return []

    def _on_report(self, msg: NbStateReport) -> Effects:
        if self.state is not NbTakeoverState.POLLING:
            return []
        self.reports[msg.sender] = msg.status  # lint: bounded(per-takeover machine, discarded on resolve)
        if msg.status == "replicated":
            self.replicated.add(msg.sender)
            if msg.decision_data:
                self.decision_data = dict(msg.decision_data)
        elif msg.status == "abort_pledged":
            self.pledged.add(msg.sender)
        if msg.status in ("committed", "aborted"):
            outcome = (Outcome.COMMITTED if msg.status == "committed"
                       else Outcome.ABORTED)
            # A decided site is itself proof the required quorum formed.
            self.decided_by_peer = True
            return self._decide(outcome)
        # Decisive early exit: a commit quorum already exists.
        if self.quorum.can_commit(len(self.replicated)):
            return self._decide(Outcome.COMMITTED)
        if len(self.reports) == len(self.sites):
            return self._evaluate()
        return []

    def on_timer(self, token: str) -> Effects:
        if token != NB_TAKEOVER_TIMER:
            return []
        if self.state is NbTakeoverState.POLLING:
            if self._evaluated_round >= self.round:
                # We already acted on this round's reports and blocked:
                # poll afresh — reachability may have changed.
                return self._new_round()
            return self._evaluate()
        if self.state in (NbTakeoverState.PROMOTING, NbTakeoverState.PLEDGING):
            # Quorum completion stalled (lost messages / mid-crash): poll
            # again from the top; durable facts are retained.
            return self._new_round()
        if self.state is NbTakeoverState.NOTIFYING:
            assert self.outcome is not None
            return self._notify_retry(
                NbOutcome(tid=self.tid, sender=self.site,
                          outcome=self.outcome), NB_TAKEOVER_TIMER)
        return []

    # --------------------------------------------------------- evaluation

    def _evaluate(self) -> Effects:
        """Act on what this round's reachable sites reported."""
        self._evaluated_round = self.round
        if self.quorum.can_commit(len(self.replicated)):
            return self._decide(Outcome.COMMITTED)
        promotable = [s for s in self.reports
                      if self.reports[s] == "prepared" and s not in self.replicated]
        if self.replicated and len(self.replicated) + len(promotable) >= \
                self.quorum.commit_quorum:
            # At least one replication record exists (so all votes were
            # YES) and enough prepared sites are reachable to finish the
            # commit quorum: promote them.
            self.state = NbTakeoverState.PROMOTING
            effects: Effects = [Trace("nb.promote",
                                      {"tid": str(self.tid),
                                       "targets": promotable})]
            msg = NbReplicate(tid=self.tid, sender=self.site,
                              decision_data=self.decision_data or {})
            for s in promotable:
                if s == self.site:
                    effects.append(ForceLog(
                        replication_record(str(self.tid), self.site,
                                           self.decision_data or {}),
                        NB_REPL_FORCE))
                else:
                    effects.append(SendDatagram(s, msg))
            effects.append(StartTimer(NB_TAKEOVER_TIMER, POLL))
            return effects
        # Try the abort quorum: sites that can pledge are the reachable
        # ones without replication records.
        pledgeable = [s for s in self.reports
                      if self.reports[s] in ("prepared", "no_state",
                                             "abort_pledged")
                      and s not in self.replicated]
        if len(self.pledged) >= self.quorum.abort_quorum:
            return self._decide(Outcome.ABORTED)
        if len(set(pledgeable) | self.pledged) >= self.quorum.abort_quorum:
            self.state = NbTakeoverState.PLEDGING
            effects = [Trace("nb.pledge_round",
                             {"tid": str(self.tid), "targets": pledgeable})]
            for s in pledgeable:
                if s in self.pledged:
                    continue
                if s == self.site:
                    effects.append(ForceLog(
                        abort_pledge_record(str(self.tid), self.site),
                        NB_PLEDGE_FORCE))
                else:
                    effects.append(SendDatagram(
                        s, NbAbortJoin(tid=self.tid, sender=self.site)))
            effects.append(StartTimer(NB_TAKEOVER_TIMER, POLL))
            return effects
        # Blocked: neither quorum reachable.  Poll again later — this is
        # the (provably unavoidable) multi-failure blocking case.
        return [Trace("nb.blocked", {"tid": str(self.tid),
                                     "replicated": sorted(self.replicated),
                                     "pledged": sorted(self.pledged)}),
                StartTimer(NB_TAKEOVER_TIMER, 2 * POLL)]

    def on_log_forced(self, token: str) -> Effects:
        if token == NB_REPL_FORCE and self.state is NbTakeoverState.PROMOTING:
            self.replicated.add(self.site)
            if self.quorum.can_commit(len(self.replicated)):
                return self._decide(Outcome.COMMITTED)
            return []
        if token == NB_PLEDGE_FORCE and self.state is NbTakeoverState.PLEDGING:
            self.pledged.add(self.site)
            if self.quorum.can_abort(len(self.pledged)):
                return self._decide(Outcome.ABORTED)
            return []
        return []

    def _on_replicate_ack(self, msg: NbReplicateAck) -> Effects:
        if self.state is not NbTakeoverState.PROMOTING:
            return []
        if msg.ok:
            self.replicated.add(msg.sender)
            if self.quorum.can_commit(len(self.replicated)):
                return self._decide(Outcome.COMMITTED)
        else:
            self.reports[msg.sender] = "abort_pledged"
            self.pledged.add(msg.sender)
        return []

    def _on_pledge_ack(self, msg: NbAbortJoinAck) -> Effects:
        if self.state is not NbTakeoverState.PLEDGING:
            return []
        if msg.ok:
            self.pledged.add(msg.sender)
            if self.quorum.can_abort(len(self.pledged)):
                return self._decide(Outcome.ABORTED)
        else:
            self.reports[msg.sender] = "replicated"
            self.replicated.add(msg.sender)
        return []

    # ----------------------------------------------------------- outcome

    def _decide(self, outcome: Outcome) -> Effects:
        if self.outcome is not None:
            if self.outcome is not outcome:
                raise NbProtocolViolation(
                    f"{self.tid}: takeover at {self.site} flip-flopped "
                    f"{self.outcome} -> {outcome}")
            return []
        if outcome is Outcome.COMMITTED and not self.quorum.can_commit(
                len(self.replicated)) and not self.decided_by_peer:
            raise NbProtocolViolation(
                f"{self.tid}: commit without a commit quorum")
        self.outcome = outcome
        self.state = NbTakeoverState.NOTIFYING
        effects: Effects = [CancelTimer(NB_TAKEOVER_TIMER),
                            Trace("nb.takeover_decided",
                                  {"tid": str(self.tid),
                                   "outcome": outcome.value})]
        return effects + self._notify(
            NbOutcome(tid=self.tid, sender=self.site, outcome=outcome),
            NB_TAKEOVER_TIMER)

    def _finish(self) -> Effects:
        self.state = NbTakeoverState.DONE
        return [Forget(self.tid)]

    def _on_peer_outcome(self, msg: NbOutcome) -> Effects:
        """Another coordinator beat us to it; adopt and stand down."""
        effects: Effects = [SendDatagram(
            msg.sender, NbOutcomeAck(tid=self.tid, sender=self.site))]
        if self.outcome is None:
            self.decided_by_peer = True
            effects.extend(self._decide(msg.outcome))
        elif self.outcome is not msg.outcome:
            raise NbProtocolViolation(
                f"{self.tid}: peer outcome {msg.outcome} conflicts with "
                f"{self.outcome} at {self.site}")
        return effects


class NbProtocolViolation(AssertionError):
    """An impossible non-blocking transition — a bug, never expected."""
