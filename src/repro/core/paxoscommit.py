"""Paxos Commit (Gray & Lamport) — the third protocol family.

Commitment as consensus: one Paxos instance per resource manager decides
that RM's prepared/aborted value, and the transaction commits iff every
instance chooses a non-abort value.  With N = 2F+1 acceptors the
protocol tolerates F acceptor faults without blocking — a crashed leader
is replaced by any participant that times out and wins an election,
which is exactly the coordinator-crash-after-prepare hole our chaos
sweeps showed in plain 2PC.

Layout choices (all from the paper's co-location optimizations):

- Acceptors are transaction sites: the leader-first odd prefix of the
  participant list.  Every acceptor is co-located with an RM, so an
  RM's :class:`~repro.core.messages.PcVote` *is* its ballot-0 phase-2a,
  piggybacked on the prepare round, and a vote arriving from an
  acceptor site doubles as that acceptor's phase-2b for its own
  instance (durable there before the vote is sent).
- F=0 degenerates to optimized 2PC: the leader is the only acceptor,
  its ballot-0 tally is volatile, and the forced decision record is the
  commitment point — 2 log forces and 3 datagrams on the happy path,
  the same cost profile as :mod:`repro.core.twophase`.
- Presumed abort everywhere: NO votes and abort outcomes are never
  forced, and a leader aborts unilaterally only on an *explicit* NO
  vote.  A vote timeout never aborts unilaterally at F>=1 — the leader
  starts an election instead, because a candidate may already be
  assembling a commit from durable ballot-0 acceptances.  Once the
  election is handed off, the candidate owns the retry loop and the
  leader's vote timer stops.
- Acceptor durability is batch-ordered: every ``PC_ACCEPT_FORCE`` is
  queued with the tallies and replies that depend on it, FIFO.  The WAL
  flushes prefixes (a force completing means every earlier record is
  durable too), so when the k-th acceptor force lands the k-th batch —
  and nothing queued after it — may act.  A vote from an acceptor site
  is that acceptor's phase-2b for its own instance, so it must be
  *durable there before the vote is sent*: YES rides the forced prepare
  record, and READ_ONLY (which forces no prepare) rides a forced
  acceptor record instead.

Election (:class:`PcCandidate`): ballots are made unique per site by
``round * len(sites) + site_index + 1``; a nacked or timed-out round
backs off deterministically (half a protocol timeout ``* 2**round``, a
pure timer effect, so `flow-determinism` holds).  Phase 1 collects F+1
promises, free instances are filled with the abort value, and the
vector must be *chosen* (accepted by F+1 acceptors at the candidate's
ballot) before the candidate acts on it — acting on an unchosen abort
vector could diverge from a later candidate that intersects a ballot-0
commit.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Dict, List, Optional, Sequence, Set, Tuple

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
    POLL,
    SendDatagram,
    StartTakeover,
    StartTimer,
    Trace,
)
from repro.core.effects import WriteLog
from repro.core.messages import (
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcP1b,
    PcP2a,
    PcPhase2b,
    PcPrepare,
    PcVote,
    ProtocolMessage,
)
from repro.core.notify import NotifyTail
from repro.core.outcomes import Outcome, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.log.records import (
    LogRecord,
    abort_record,
    commit_record,
    end_record,
    paxos_acceptor_record,
    paxos_decision_record,
    paxos_prepare_record,
)

# Force tokens.  ``on_log_forced`` hears only the token, so the k-th
# PC_ACCEPT_FORCE completion is matched to its queued replies by
# order alone (``_AcceptorBatching``).
PC_PREPARE_FORCE = "pc.prepare"
PC_ACCEPT_FORCE = "pc.accept"
PC_DECIDE_FORCE = "pc.decide"
PC_COMMIT_DURABLE = "pc.commit_durable"

# Timer tokens.
PC_VOTE_TIMER = "pc.votes"
PC_OUTCOME_TIMER = "pc.outcome"
PC_NOTIFY_TIMER = "pc.notify"
PC_ELECTION_TIMER = "pc.election"

# The value a candidate proposes for an instance no promiser has seen:
# "any value not provably chosen may be aborted".
ABORT_FILLER = "aborted"


class PcProtocolViolation(AssertionError):
    """An impossible protocol state — safety, not liveness."""


def ballot_for(attempt: int, sites: Sequence[str], site: str) -> int:
    """Globally unique, per-site monotone ballot numbers (> 0; ballot 0
    is the prepare round's implicit first ballot)."""
    return attempt * len(sites) + list(sites).index(site) + 1


class PaxosAcceptor:
    """One transaction's acceptor state at one site.

    Deliberately *not* a protocol machine (no handler-named methods):
    it is embedded in the leader and participant machines, which own
    the force-before-reply discipline.  ``promised`` and ``accepted``
    mirror :func:`repro.log.records.paxos_acceptor_record` exactly.
    """

    def __init__(self, site: str, leader: str = "",
                 sites: Sequence[str] = (),
                 acceptors: Sequence[str] = ()) -> None:
        self.site = site
        self.leader = leader
        self.sites = list(sites)
        self.acceptors = list(acceptors)
        self.promised = 0
        # instance (RM site) -> (ballot, value)  # lint: bounded(per-txn
        # acceptor state, discarded with the embedding machine)
        self.accepted: Dict[str, Tuple[int, str]] = {}  # lint: bounded(one entry per RM instance)

    def ballot0_accept(self, instance: str, value: str) -> bool:
        """Accept an RM's ballot-0 proposal; False if superseded or a
        duplicate (ballot-0 values are unique per instance, so a repeat
        carries the identical value and is simply idempotent)."""
        if self.promised > 0:
            return False
        if instance in self.accepted:
            return False
        self.accepted[instance] = (0, value)
        return True

    def promise(self, ballot: int) -> bool:
        """Phase-1 promise; False when a higher ballot was promised
        (the caller nacks with the current ``promised``)."""
        if ballot < self.promised:
            return False
        self.promised = ballot
        return True

    def accept_vector(self, ballot: int,
                      values: Sequence[Tuple[str, str]]) -> bool:
        """Phase-2 acceptance of a candidate's whole value vector."""
        if ballot < self.promised:
            return False
        self.promised = ballot
        for instance, value in values:
            self.accepted[instance] = (ballot, value)
        return True

    def triples(self) -> Tuple[Tuple[str, int, str], ...]:
        """Every acceptance as wire/record-ready (instance, ballot,
        value) triples, deterministically ordered."""
        return tuple((inst, ballot, value) for inst, (ballot, value)
                     in sorted(self.accepted.items()))

    def record(self, tid: TID) -> "LogRecord":
        return paxos_acceptor_record(str(tid), self.site, self.promised,
                                     [list(t) for t in self.triples()],
                                     leader=self.leader, sites=self.sites,
                                     acceptors=self.acceptors)


class _AcceptorBatching:
    """Durability-batch queue shared by the machines embedding a
    :class:`PaxosAcceptor` (leader and participant).

    Replies — and, on the leader, own-instance tallies — that quote
    acceptor state are queued in FIFO batches, each covered by one
    ``ForceLog``; the k-th ``PC_ACCEPT_FORCE`` completion releases
    exactly the k-th batch.  Sound because the WAL flushes prefixes and
    the ForceLog is appended to the log in the same scheduler step that
    queues the batch (no yielding effect ever precedes it in a
    handler's effect list), so queue order equals LSN order and the
    k-th completion proves the k-th record — plus everything queued
    before it — durable.
    """

    _force_batches: List[Tuple[List[str], List[Tuple[str, ProtocolMessage]]]]

    def _force_acceptor_state(self, record: LogRecord,
                              own_instances: Sequence[str],
                              replies: Sequence[Tuple[str, ProtocolMessage]]
                              ) -> Effect:
        """Queue a durability batch and return the ForceLog covering it."""
        self._force_batches.append((list(own_instances), list(replies)))
        return ForceLog(record, PC_ACCEPT_FORCE)

    def _send_when_durable(self, dst: str,
                           msg: ProtocolMessage) -> List[Effect]:
        """Release a reply quoting in-memory acceptor state: send now if
        that state is durable, else ride the newest in-flight batch —
        its record snapshot already covers the state being quoted, so
        once that force lands the reply can no longer be retracted by a
        crash."""
        if self._force_batches:
            self._force_batches[-1][1].append((dst, msg))
            return []
        return [SendDatagram(dst, msg)]


class PcLeaderState(Enum):
    INIT = "init"
    COLLECTING = "collecting"
    FORCING_PREPARE = "forcing_prepare"
    FORCING_DECISION = "forcing_decision"
    NOTIFYING = "notifying"
    DONE = "done"


class PcLeader(_AcceptorBatching, NotifyTail):
    """Ballot-0 leader: transaction coordinator plus co-located acceptor.

    Drives the prepare round, tallies ballot-0 acceptances per instance,
    forces the decision record once every instance has an acceptor
    quorum, and notifies.  At F=0 (no remote acceptors) the tally is
    its own volatile acceptor and the machine is bit-for-bit 2PC-shaped:
    prepare datagram out, vote datagram in, forced decision, outcome
    datagram out.
    """

    max_vote_retries = 10
    max_notify_retries = 10

    def __init__(self, tid: TID, site: str, subordinates: Sequence[str],
                 acceptors: Sequence[str], quorum: QuorumSpec) -> None:
        if site not in acceptors:
            raise PcProtocolViolation(
                f"leader {site} must belong to its acceptor set {acceptors}")
        self.tid = tid
        self.site = site
        self.subordinates = list(subordinates)
        self.sites = [site] + [s for s in subordinates if s != site]
        self.acceptors = list(acceptors)
        self.remote_acceptors = [a for a in acceptors if a != site]
        self.quorum = quorum

        self.state = PcLeaderState.INIT
        self.local_vote: Optional[Vote] = None
        self.acceptor = PaxosAcceptor(site, leader=site, sites=self.sites,
                                      acceptors=self.acceptors)
        # subordinate RM -> vote value, from any acceptance we witness
        # (own instance is covered by ``local_vote``).
        # lint: bounded(per-txn machine, discarded whole)
        self.votes: Dict[str, str] = {}  # lint: bounded(one entry per subordinate)
        # instance -> acceptor sites holding a durable ballot-0
        # acceptance.  # lint: bounded(per-txn machine, discarded whole)
        self.tally: Dict[str, Set[str]] = {}
        # FIFO batches of (instances to tally, replies to send) awaiting
        # an acceptor-state force; batch k acts when the k-th
        # PC_ACCEPT_FORCE lands (prefix-flush log).
        self._force_batches: List[Tuple[List[str], List[Tuple[str, ProtocolMessage]]]] = []  # lint: bounded(drained at PC_ACCEPT_FORCE)
        self.outcome: Optional[Outcome] = None
        self.update_subs: List[str] = []
        self.vote_retries = 0

    # ------------------------------------------------------------ start

    def start(self) -> List[Effect]:
        if self.state is not PcLeaderState.INIT:
            raise PcProtocolViolation("leader started twice")
        self.state = PcLeaderState.COLLECTING
        effects: List[Effect] = [LocalPrepare(self.tid)]
        effects += [SendDatagram(sub, PcPrepare(
            self.tid, self.site, sites=tuple(self.sites),
            acceptors=tuple(self.acceptors)))
            for sub in self.subordinates]
        effects.append(StartTimer(PC_VOTE_TIMER))
        return effects

    def _prepare_message(self) -> PcPrepare:
        return PcPrepare(self.tid, self.site, sites=tuple(self.sites),
                         acceptors=tuple(self.acceptors))

    # --------------------------------------------------------- own vote

    def on_local_prepared(self, vote: Vote) -> List[Effect]:
        if self.state is not PcLeaderState.COLLECTING:
            return []
        self.local_vote = vote
        if vote is Vote.NO:
            return self._abort()
        if not self.remote_acceptors:
            # F=0: we are the only acceptor; our own instance is chosen
            # the moment we record it (durability comes from the forced
            # decision record, exactly like the 2PC commitment point).
            self._note_acceptance(self.site, self.site, vote.value)
            return self._maybe_decide()
        if vote is Vote.YES:
            # The forced prepare record doubles as the durable ballot-0
            # self-acceptance (co-location); votes go out only after.
            self.state = PcLeaderState.FORCING_PREPARE
            return [ForceLog(paxos_prepare_record(
                str(self.tid), self.site, self.site, self.sites,
                self.acceptors), PC_PREPARE_FORCE)]
        # READ_ONLY forces no prepare record, so the acceptor record is
        # what makes our ballot-0 self-acceptance durable.  Until it
        # lands we may neither tally ourselves nor broadcast the vote —
        # remote acceptors count an acceptor-site vote as a durable
        # phase-2b, and a crash-restart must never retract it.
        self.acceptor.ballot0_accept(self.site, vote.value)
        return [self._force_acceptor_state(
            self.acceptor.record(self.tid), [self.site],
            [(a, self._vote_message(vote)) for a in self.remote_acceptors])]

    def _vote_message(self, vote: Vote) -> PcVote:
        return PcVote(self.tid, self.site, vote=vote, leader=self.site,
                      sites=tuple(self.sites),
                      acceptors=tuple(self.acceptors))

    # ----------------------------------------------------------- forces

    def on_log_forced(self, token: str) -> List[Effect]:
        if token == PC_PREPARE_FORCE:
            if self.state is not PcLeaderState.FORCING_PREPARE:
                return []
            self.state = PcLeaderState.COLLECTING
            self.acceptor.ballot0_accept(self.site, Vote.YES.value)
            self._note_acceptance(self.site, self.site, Vote.YES.value)
            effects: List[Effect] = [SendDatagram(a, PcVote(
                self.tid, self.site, vote=Vote.YES, leader=self.site,
                sites=tuple(self.sites), acceptors=tuple(self.acceptors)))
                for a in self.remote_acceptors]
            effects += self._maybe_decide()
            return effects
        if token == PC_ACCEPT_FORCE:
            # The oldest queued batch of acceptor state is durable:
            # tally the acceptances that waited on it and flush its
            # replies — later batches keep waiting for their own force.
            if not self._force_batches:
                return []
            own, replies = self._force_batches.pop(0)
            for instance in own:
                ballot, value = self.acceptor.accepted.get(instance,
                                                           (-1, ""))
                if ballot == 0:
                    self._note_acceptance(self.site, instance, value)
            flushed: List[Effect] = [SendDatagram(dst, reply)
                                     for dst, reply in replies]
            flushed += self._maybe_decide()
            return flushed
        if token == PC_DECIDE_FORCE:
            if self.state is not PcLeaderState.FORCING_DECISION:
                return []
            return self._notify_commit()
        return []

    # --------------------------------------------------------- messages

    def on_message(self, msg: ProtocolMessage) -> List[Effect]:
        if isinstance(msg, PcVote):
            return self._on_vote(msg)
        if isinstance(msg, PcPhase2b):
            return self._on_phase2b(msg)
        if isinstance(msg, PcP1a):
            return self._on_p1a(msg)
        if isinstance(msg, PcP2a):
            return self._on_p2a(msg)
        if isinstance(msg, PcOutcome):
            return self._on_peer_outcome(msg)
        if isinstance(msg, PcOutcomeAck) \
                and self.state is PcLeaderState.NOTIFYING:
            return self._notify_ack(msg.sender, PC_NOTIFY_TIMER)
        return []

    def _on_vote(self, msg: PcVote) -> List[Effect]:
        if self.state not in (PcLeaderState.COLLECTING,
                              PcLeaderState.FORCING_PREPARE):
            return self._maybe_reply_outcome(msg.sender)
        if msg.vote is Vote.NO:
            # Explicit NO: that instance can never choose a non-abort
            # value at ballot 0, so a unilateral abort is safe.
            self.votes[msg.sender] = Vote.NO.value
            return self._abort()
        if not self.remote_acceptors:
            self.acceptor.ballot0_accept(msg.sender, msg.vote.value)
            self._note_acceptance(self.site, msg.sender, msg.vote.value)
            return self._maybe_decide()
        effects: List[Effect] = []
        # Co-location: a vote from an acceptor site is also that
        # acceptor's phase-2b for its own instance — durable there
        # before the vote was sent (YES rides the forced prepare
        # record, READ_ONLY rides a forced acceptor record).
        if msg.sender in self.acceptors:
            self._note_acceptance(msg.sender, msg.sender, msg.vote.value)
        if self.acceptor.ballot0_accept(msg.sender, msg.vote.value):
            effects.append(self._force_acceptor_state(
                self.acceptor.record(self.tid), [msg.sender], []))
        effects += self._maybe_decide()
        return effects

    def _on_phase2b(self, msg: PcPhase2b) -> List[Effect]:
        if msg.ballot != 0:
            return []
        if self.state not in (PcLeaderState.COLLECTING,
                              PcLeaderState.FORCING_PREPARE):
            return self._maybe_reply_outcome(msg.sender)
        for instance, value in msg.votes:
            if value == Vote.NO.value:
                self.votes[instance] = value
                return self._abort()
            self._note_acceptance(msg.sender, instance, value)
        return self._maybe_decide()

    def _on_p1a(self, msg: PcP1a) -> List[Effect]:
        if self.outcome is not None:
            return self._maybe_reply_outcome(msg.sender)
        return _acceptor_p1a(self, msg)

    def _on_p2a(self, msg: PcP2a) -> List[Effect]:
        if self.outcome is not None:
            return self._maybe_reply_outcome(msg.sender)
        return _acceptor_p2a(self, msg)

    def _on_peer_outcome(self, msg: PcOutcome) -> List[Effect]:
        """A candidate won an election and decided for us: adopt."""
        if self.outcome is not None:
            return [LazySendDatagram(msg.sender,
                                     PcOutcomeAck(self.tid, self.site))]
        self.outcome = msg.outcome
        self.state = PcLeaderState.DONE
        effects: List[Effect] = [CancelTimer(PC_VOTE_TIMER),
                                 CancelTimer(PC_NOTIFY_TIMER)]
        if msg.outcome is Outcome.COMMITTED:
            effects += [LocalCommit(self.tid),
                        WriteLog(commit_record(str(self.tid), self.site))]
        else:
            effects += [LocalAbort(self.tid),
                        WriteLog(abort_record(str(self.tid), self.site))]
        effects += [Complete(self.tid, msg.outcome),
                    SendDatagram(msg.sender, PcOutcomeAck(self.tid,
                                                          self.site)),
                    Forget(self.tid)]
        return effects

    def _finish(self) -> List[Effect]:
        # Also how the leader stands down at the notify cap: the decision
        # record and tombstone keep answering late inquiries.
        self.state = PcLeaderState.DONE
        return [WriteLog(end_record(str(self.tid), self.site)),
                Forget(self.tid)]

    # ----------------------------------------------------------- timers

    def on_timer(self, token: str) -> List[Effect]:
        if token == PC_VOTE_TIMER:
            return self._vote_timeout()
        if token == PC_NOTIFY_TIMER and self.state is PcLeaderState.NOTIFYING:
            return self._notify_retry(PcOutcome(
                self.tid, self.site, outcome=Outcome.COMMITTED),
                PC_NOTIFY_TIMER)
        return []

    def _vote_timeout(self) -> List[Effect]:
        if self.state not in (PcLeaderState.COLLECTING,
                              PcLeaderState.FORCING_PREPARE):
            return []
        self.vote_retries += 1
        if self.vote_retries > self.max_vote_retries:
            if not self.remote_acceptors:
                # F=0: no acceptance can exist outside this machine, so
                # the timeout abort is as safe as 2PC's.
                return self._abort()
            # F>=1: another candidate may hold durable acceptances; only
            # an election (which fills free instances with the abort
            # value at a higher ballot) may decide.  The candidate owns
            # the retry loop from here — its election timer backs off
            # and re-polls — so the vote timer is NOT re-armed: the
            # leader stands by, still answering phase 1/2 as an
            # acceptor and adopting the candidate's outcome.
            return [Trace("pc.election_needed",
                          {"tid": str(self.tid), "site": self.site}),
                    StartTakeover(self.tid)]
        missing = [s for s in self.subordinates if not self._voted(s)]
        effects: List[Effect] = [SendDatagram(s, self._prepare_message())
                                 for s in missing]
        effects.append(StartTimer(PC_VOTE_TIMER))
        return effects

    def _voted(self, sub: str) -> bool:
        return sub in self.tally or sub in self.votes

    # --------------------------------------------------------- decision

    def _note_acceptance(self, acceptor: str, instance: str,
                         value: str) -> None:
        if value == Vote.NO.value:
            return
        if instance != self.site:
            prev = self.votes.setdefault(instance, value)
            if prev != value:
                raise PcProtocolViolation(
                    f"instance {instance} proposed two ballot-0 values")
        self.tally.setdefault(instance, set()).add(acceptor)

    def _instance_chosen(self, instance: str) -> bool:
        # Deliberately spelled without the quorum helper: the leader's
        # ballot-0 tally is not the non-blocking replication quorum.
        return len(self.tally.get(instance, ())) >= self.quorum.commit_quorum

    def _maybe_decide(self) -> List[Effect]:
        if self.state not in (PcLeaderState.COLLECTING,
                              PcLeaderState.FORCING_PREPARE):
            return []
        if self.local_vote is None or len(self.votes) < len(self.subordinates):
            return []
        for instance in self.sites:
            if not self._instance_chosen(instance):
                return []
        self.update_subs = [s for s in self.subordinates
                            if self.votes.get(s) == Vote.YES.value]
        ro_acceptors = [a for a in self.remote_acceptors
                        if self.votes.get(a) == Vote.READ_ONLY.value]
        self.unacked = tuple(sorted(set(self.update_subs)
                                    | set(ro_acceptors)))
        if not self.update_subs and self.local_vote is Vote.READ_ONLY:
            # Fully read-only: no second round, nothing durable.
            self.outcome = Outcome.COMMITTED
            self.state = PcLeaderState.DONE
            return [CancelTimer(PC_VOTE_TIMER), LocalCommit(self.tid),
                    Complete(self.tid, Outcome.COMMITTED), Forget(self.tid)]
        self.state = PcLeaderState.FORCING_DECISION
        return [CancelTimer(PC_VOTE_TIMER),
                ForceLog(paxos_decision_record(
                    str(self.tid), self.site, self.update_subs,
                    self.acceptors), PC_DECIDE_FORCE)]

    def _notify_commit(self) -> List[Effect]:
        self.outcome = Outcome.COMMITTED
        self.state = PcLeaderState.NOTIFYING
        notice = PcOutcome(self.tid, self.site, outcome=Outcome.COMMITTED)
        effects: List[Effect] = [SendDatagram(s, notice)
                                 for s in self.unacked]
        effects += [LocalCommit(self.tid),
                    Complete(self.tid, Outcome.COMMITTED),
                    StartTimer(PC_NOTIFY_TIMER)]
        if not self.unacked:
            effects += [CancelTimer(PC_NOTIFY_TIMER)] + self._finish()
        return effects

    def _abort(self) -> List[Effect]:
        self.outcome = Outcome.ABORTED
        self.state = PcLeaderState.DONE
        notified = [s for s in self.subordinates
                    if self.votes.get(s) not in (Vote.NO.value,
                                                 Vote.READ_ONLY.value)]
        effects: List[Effect] = [CancelTimer(PC_VOTE_TIMER)]
        effects += [SendDatagram(s, PcOutcome(self.tid, self.site,
                                              outcome=Outcome.ABORTED))
                    for s in notified]
        effects += [LocalAbort(self.tid),
                    WriteLog(abort_record(str(self.tid), self.site)),
                    Complete(self.tid, Outcome.ABORTED),
                    Forget(self.tid)]
        return effects

    def _maybe_reply_outcome(self, dst: str) -> List[Effect]:
        if self.outcome is None or dst == self.site:
            return []
        return [SendDatagram(dst, PcOutcome(self.tid, self.site,
                                            outcome=self.outcome))]

    # ---------------------------------------------------------- recovery

    @classmethod
    def recovered(cls, tid: TID, site: str, update_subs: Sequence[str],
                  acceptors: Sequence[str]) -> "PcLeader":
        """Rebuilt from a forced decision record: the commit decision
        stands, only the notifications remain."""
        quorum = QuorumSpec.paxos(len(acceptors))
        leader = cls(tid, site, list(update_subs), list(acceptors), quorum)
        leader.local_vote = Vote.YES
        leader.update_subs = list(update_subs)
        leader.unacked = tuple(sorted(update_subs))
        leader.outcome = Outcome.COMMITTED
        leader.state = PcLeaderState.NOTIFYING
        return leader

    def resume_notifications(self) -> List[Effect]:
        """Effects to emit right after :meth:`recovered`: the decision
        force's continuation again, less the client's completion."""
        return [e for e in self._notify_commit()
                if not isinstance(e, Complete)]


class PcSubState(Enum):
    INIT = "init"
    PREPARING = "preparing"
    FORCING_PREPARE = "forcing_prepare"
    PREPARED = "prepared"
    ACCEPTING = "accepting"     # acceptor duties only (read-only RM)
    COMMITTING = "committing"   # commit applied, ack pending durability
    DONE = "done"


class PcParticipant(_AcceptorBatching):
    """A resource manager under Paxos Commit, with the co-located
    acceptor when this site belongs to the acceptor set.

    The RM side mirrors the optimized 2PC subordinate: force prepare,
    send the vote (= ballot-0 2a) to every acceptor, commit on the
    outcome with a lazy commit record and a piggybacked ack.  The
    acceptor side answers other RMs' votes and candidates' phase 1/2,
    always forcing its state before a reply — an acceptor may never
    retract what a quorum might have counted.
    """

    def __init__(self, tid: TID, site: str, leader: str,
                 sites: Sequence[str], acceptors: Sequence[str],
                 quorum: QuorumSpec) -> None:
        self.tid = tid
        self.site = site
        self.leader = leader
        self.sites = list(sites)
        self.acceptors = list(acceptors)
        self.quorum = quorum
        self.state = PcSubState.INIT
        self.vote: Optional[Vote] = None
        self.outcome: Optional[Outcome] = None
        self.is_acceptor = site in self.acceptors
        self.acceptor = PaxosAcceptor(
            site, leader=self.leader, sites=self.sites,
            acceptors=self.acceptors) if self.is_acceptor else None
        # FIFO batches of (instances, replies) awaiting an acceptor-state
        # force (instances unused here: participants tally nothing).
        self._force_batches: List[Tuple[List[str], List[Tuple[str, ProtocolMessage]]]] = []  # lint: bounded(drained at PC_ACCEPT_FORCE)
        self._notifier: Optional[str] = None
        self._acked = False

    # ------------------------------------------------------------ start

    def start(self) -> List[Effect]:
        if self.state is not PcSubState.INIT:
            raise PcProtocolViolation("participant started twice")
        self.state = PcSubState.PREPARING
        return [LocalPrepare(self.tid)]

    def on_local_prepared(self, vote: Vote) -> List[Effect]:
        if self.state is not PcSubState.PREPARING:
            return []
        self.vote = vote
        if vote is Vote.NO:
            # Presumed abort: nothing durable, vote out, drop out.  No
            # acceptor can ever see a non-abort value for our instance.
            self.state = PcSubState.DONE
            effects: List[Effect] = self._vote_datagrams(vote)
            effects += [LocalAbort(self.tid),
                        WriteLog(abort_record(str(self.tid), self.site)),
                        Forget(self.tid)]
            return effects
        if vote is Vote.READ_ONLY:
            # Drop read locks now; stay only if we owe acceptor duties.
            if self.acceptor is not None:
                # An acceptor site's vote doubles as its durable
                # ballot-0 phase-2b at the leader (co-location), and
                # READ_ONLY forces no prepare record — so the
                # self-acceptance must land in a forced acceptor record
                # before the vote may go out.
                self.acceptor.ballot0_accept(self.site, vote.value)
                self.state = PcSubState.ACCEPTING
                return [LocalCommit(self.tid),
                        self._force_acceptor_state(
                            self.acceptor.record(self.tid), (),
                            [(dst, self._vote_message(vote))
                             for dst in self._vote_targets()]),
                        StartTimer(PC_OUTCOME_TIMER)]
            # Not an acceptor: the vote is the ballot-0 2a and the
            # acceptors make it durable before the leader counts it.
            self.state = PcSubState.DONE
            effects = self._vote_datagrams(vote)
            effects += [LocalCommit(self.tid), Forget(self.tid)]
            return effects
        self.state = PcSubState.FORCING_PREPARE
        return [ForceLog(paxos_prepare_record(
            str(self.tid), self.site, self.leader, self.sites,
            self.acceptors), PC_PREPARE_FORCE)]

    def _vote_datagrams(self, vote: Vote) -> List[Effect]:
        return [SendDatagram(dst, self._vote_message(vote))
                for dst in self._vote_targets()]

    def _vote_message(self, vote: Vote) -> PcVote:
        return PcVote(self.tid, self.site, vote=vote, leader=self.leader,
                      sites=tuple(self.sites),
                      acceptors=tuple(self.acceptors))

    # ----------------------------------------------------------- forces

    def on_log_forced(self, token: str) -> List[Effect]:
        if token == PC_PREPARE_FORCE:
            if self.state is not PcSubState.FORCING_PREPARE:
                return []
            self.state = PcSubState.PREPARED
            if self.acceptor is not None:
                # The prepare record doubles as the durable ballot-0
                # self-acceptance (co-location).
                self.acceptor.ballot0_accept(self.site, Vote.YES.value)
            effects: List[Effect] = [SendDatagram(dst, PcVote(
                self.tid, self.site, vote=Vote.YES, leader=self.leader,
                sites=tuple(self.sites), acceptors=tuple(self.acceptors)))
                for dst in self._vote_targets()]
            effects.append(StartTimer(PC_OUTCOME_TIMER))
            return effects
        if token == PC_ACCEPT_FORCE:
            # Oldest batch only: later batches wait for their own force.
            if not self._force_batches:
                return []
            _, replies = self._force_batches.pop(0)
            return [SendDatagram(dst, reply) for dst, reply in replies]
        return []

    def _vote_targets(self) -> List[str]:
        # The leader is always acceptor 0 (``ProtocolEdge.coordinator``).
        return [a for a in self.acceptors if a != self.site]

    def on_log_durable(self, token: str) -> List[Effect]:
        if token == PC_COMMIT_DURABLE and not self._acked:
            self._acked = True
            dst = self._notifier or self.leader
            return [LazySendDatagram(dst, PcOutcomeAck(self.tid, self.site)),
                    Forget(self.tid)]
        return []

    # --------------------------------------------------------- messages

    def on_message(self, msg: ProtocolMessage) -> List[Effect]:
        if isinstance(msg, PcOutcome):
            return self._on_outcome(msg)
        if isinstance(msg, PcPrepare):
            return self._on_duplicate_prepare(msg)
        if isinstance(msg, PcVote):
            return self._on_acceptor_vote(msg)
        if isinstance(msg, PcP1a):
            return self._on_p1a(msg)
        if isinstance(msg, PcP2a):
            return self._on_p2a(msg)
        return []

    def _on_p1a(self, msg: PcP1a) -> List[Effect]:
        outcome = self.outcome
        if outcome is not None:
            # Short-circuit a stale election: the outcome is known.
            return [SendDatagram(msg.sender, PcOutcome(
                self.tid, self.site, outcome=outcome))]
        return _acceptor_p1a(self, msg)

    def _on_p2a(self, msg: PcP2a) -> List[Effect]:
        outcome = self.outcome
        if outcome is not None:
            return [SendDatagram(msg.sender, PcOutcome(
                self.tid, self.site, outcome=outcome))]
        return _acceptor_p2a(self, msg)

    def _on_duplicate_prepare(self, msg: PcPrepare) -> List[Effect]:
        """A retransmitted prepare: re-vote from current state."""
        if self.outcome is not None:
            return []
        if self.state is PcSubState.PREPARED and self.vote is not None:
            return [SendDatagram(dst, PcVote(
                self.tid, self.site, vote=self.vote, leader=self.leader,
                sites=tuple(self.sites), acceptors=tuple(self.acceptors)))
                for dst in self._vote_targets()]
        if self.state is PcSubState.ACCEPTING and self.vote is not None:
            # A read-only acceptor's re-vote must not outrun the force
            # that is making its ballot-0 self-acceptance durable.
            effects: List[Effect] = []
            for dst in self._vote_targets():
                effects += self._send_when_durable(
                    dst, self._vote_message(self.vote))
            return effects
        return []

    def _on_acceptor_vote(self, msg: PcVote) -> List[Effect]:
        """Another RM's ballot-0 2a reaches our co-located acceptor."""
        if self.acceptor is None or msg.sender == self.site:
            return []
        if self.outcome is not None:
            return []
        reply = PcPhase2b(self.tid, self.site, ballot=0,
                          votes=((msg.sender, msg.vote.value),))
        if self.acceptor.ballot0_accept(msg.sender, msg.vote.value):
            return [self._force_acceptor_state(
                self.acceptor.record(self.tid), (),
                [(msg.leader or self.leader, reply)])]
        if self.acceptor.accepted.get(msg.sender, (None, None))[1] \
                == msg.vote.value:
            # Duplicate: resend the 2b — but only once the acceptance
            # is durable, which the original copy's force may still be
            # working on.
            return self._send_when_durable(msg.leader or self.leader, reply)
        return []

    def _on_outcome(self, msg: PcOutcome) -> List[Effect]:
        if self.state is PcSubState.COMMITTING:
            # The ack promises a durable commit record; until the lazy
            # write is covered we stay silent and let the notifier retry.
            return []
        if self.outcome is not None or self.state is PcSubState.DONE:
            # Decided, or out since its vote (NO, or read-only with no
            # acceptor duties): the ack is all it owes.
            return self._reack(msg.sender)
        self.outcome = msg.outcome
        self._notifier = msg.sender
        effects: List[Effect] = [CancelTimer(PC_OUTCOME_TIMER)]
        if msg.outcome is Outcome.COMMITTED:
            if self.state is PcSubState.ACCEPTING:
                # Read locks were dropped at vote time; just ack out.
                self.state = PcSubState.DONE
                effects += [SendDatagram(msg.sender,
                                         PcOutcomeAck(self.tid, self.site)),
                            Forget(self.tid)]
                return effects
            self.state = PcSubState.COMMITTING
            effects += [LocalCommit(self.tid),
                        WriteLog(commit_record(str(self.tid), self.site),
                                 token=PC_COMMIT_DURABLE)]
            return effects
        self.state = PcSubState.DONE
        if self.vote is not Vote.READ_ONLY:
            effects.append(LocalAbort(self.tid))
        effects += [WriteLog(abort_record(str(self.tid), self.site)),
                    SendDatagram(msg.sender, PcOutcomeAck(self.tid,
                                                          self.site)),
                    Forget(self.tid)]
        return effects

    def _reack(self, dst: str) -> List[Effect]:
        if dst == self.site:
            return []
        return [SendDatagram(dst, PcOutcomeAck(self.tid, self.site))]

    # ----------------------------------------------------------- timers

    def on_timer(self, token: str) -> List[Effect]:
        if token != PC_OUTCOME_TIMER:
            return []
        if self.state not in (PcSubState.PREPARED, PcSubState.ACCEPTING):
            return []
        return [Trace("pc.takeover", {"tid": str(self.tid),
                                      "site": self.site}),
                StartTakeover(self.tid),
                StartTimer(PC_OUTCOME_TIMER)]

    # ---------------------------------------------------------- recovery

    @classmethod
    def recovered(cls, tid: TID, site: str, leader: str,
                  sites: Sequence[str], acceptors: Sequence[str],
                  promised: int = 0,
                  accepted: Sequence[Sequence[Any]] = (),
                  prepared: bool = True) -> "PcParticipant":
        """Rebuilt from durable facts: the prepare record (RM side) and
        the latest acceptor record, if any."""
        quorum = QuorumSpec.paxos(len(acceptors))
        sub = cls(tid, site, leader, sites, acceptors, quorum)
        if prepared:
            sub.vote = Vote.YES
            sub.state = PcSubState.PREPARED
            if sub.acceptor is not None:
                sub.acceptor.ballot0_accept(site, Vote.YES.value)
        else:
            sub.state = PcSubState.ACCEPTING
        if sub.acceptor is not None:
            sub.acceptor.promised = max(sub.acceptor.promised, promised)
            for instance, ballot, value in accepted:
                sub.acceptor.accepted[str(instance)] = (int(ballot),
                                                        str(value))
        if not prepared and sub.acceptor is not None:
            # A durable ballot-0 self-acceptance with no prepare record
            # is a READ_ONLY vote that was forced before it went out:
            # restore it so retried prepares can be re-answered.
            ballot0, value = sub.acceptor.accepted.get(site, (-1, ""))
            if ballot0 == 0 and value == Vote.READ_ONLY.value:
                sub.vote = Vote.READ_ONLY
        return sub

    def resume_inquiry(self) -> List[Effect]:
        """Re-announce the vote and re-arm the takeover timer."""
        effects: List[Effect] = []
        if self.state is PcSubState.PREPARED and self.vote is not None:
            effects += self._vote_datagrams(self.vote)
        effects.append(StartTimer(PC_OUTCOME_TIMER))
        return effects


class PcCandidateState(Enum):
    INIT = "init"
    POLLING = "polling"       # phase 1: collecting promises
    PROPOSING = "proposing"   # phase 2: value vector out
    BACKOFF = "backoff"       # outbid; waiting out the backoff timer
    FORCING_DECISION = "forcing_decision"
    NOTIFYING = "notifying"
    DONE = "done"


class PcCandidate(NotifyTail):
    """A timed-out participant running the leader election.

    Phase 1 at a ballot unique to this site, value selection by the
    standard Paxos rule (highest-ballot acceptance per instance, abort
    filler for free instances), phase 2 to make the vector *chosen*,
    then notify.  Nacks and timeouts restart phase 1 at a higher ballot
    after a deterministic exponential backoff — sites with a larger
    index back off into larger ballots, so duelling candidates resolve.
    """

    max_notify_retries = 10

    def __init__(self, tid: TID, site: str, sites: Sequence[str],
                 acceptors: Sequence[str], quorum: QuorumSpec) -> None:
        self.tid = tid
        self.site = site
        self.sites = list(sites)
        self.acceptors = list(acceptors)
        self.quorum = quorum
        self.state = PcCandidateState.INIT
        self.attempt = 0
        self.round = 0
        # acceptor -> accepted triples it reported this ballot.
        # lint: bounded(per-txn takeover, discarded whole)
        self.promises: Dict[str, Tuple[Tuple[str, int, str], ...]] = {}
        self.accepted_2b: Set[str] = set()
        self.values: List[Tuple[str, str]] = []
        self.outcome: Optional[Outcome] = None
        self.decided_by_peer = False

    @property
    def ballot(self) -> int:
        return ballot_for(self.attempt, self.sites, self.site)

    # ------------------------------------------------------------ start

    def start(self) -> List[Effect]:
        if self.state is not PcCandidateState.INIT:
            raise PcProtocolViolation("candidate started twice")
        if self.outcome is not None:
            # Resuming an already-forced decision: straight to notify.
            return self._announce()
        return self._poll()

    def _poll(self) -> List[Effect]:
        self.state = PcCandidateState.POLLING
        self.promises = {}
        self.accepted_2b = set()
        effects: List[Effect] = [Trace("pc.election", {
            "tid": str(self.tid), "site": self.site,
            "ballot": self.ballot})]
        effects += [SendDatagram(a, PcP1a(
            self.tid, self.site, ballot=self.ballot, leader=self.site,
            sites=tuple(self.sites), acceptors=tuple(self.acceptors)))
            for a in self.acceptors]
        effects.append(StartTimer(PC_ELECTION_TIMER, self._backoff()))
        return effects

    def _backoff(self) -> float:
        return POLL * (2 ** min(self.round, 5))

    # --------------------------------------------------------- messages

    def on_message(self, msg: ProtocolMessage) -> List[Effect]:
        if isinstance(msg, PcP1b):
            return self._on_p1b(msg)
        if isinstance(msg, PcPhase2b):
            return self._on_phase2b(msg)
        if isinstance(msg, PcOutcome):
            return self._on_peer_outcome(msg)
        if isinstance(msg, PcOutcomeAck) \
                and self.state is PcCandidateState.NOTIFYING:
            return self._notify_ack(msg.sender, PC_NOTIFY_TIMER)
        return []

    def _on_p1b(self, msg: PcP1b) -> List[Effect]:
        if msg.ballot != self.ballot:
            return []
        if msg.promised > self.ballot:
            # A rival outbid us; nacks matter in phase 2 as well.
            if self.state in (PcCandidateState.POLLING,
                              PcCandidateState.PROPOSING):
                return self._nacked(msg.promised)
            return []
        if self.state is not PcCandidateState.POLLING:
            return []
        self.promises[msg.sender] = tuple(
            (str(i), int(b), str(v)) for i, b, v in msg.accepted)
        if not self.quorum.can_commit(len(self.promises)):
            return []
        return self._propose()

    def _propose(self) -> List[Effect]:
        """A promise quorum is in: fix the value vector and run phase 2."""
        chosen: Dict[str, Tuple[int, str]] = {}
        for _, triples in sorted(self.promises.items()):
            for instance, ballot, value in triples:
                best = chosen.get(instance)
                if best is None or ballot > best[0]:
                    chosen[instance] = (ballot, value)
        self.values = [(s, chosen[s][1] if s in chosen else ABORT_FILLER)
                       for s in self.sites]
        self.state = PcCandidateState.PROPOSING
        effects: List[Effect] = [SendDatagram(a, PcP2a(
            self.tid, self.site, ballot=self.ballot,
            values=tuple(self.values), leader=self.site,
            sites=tuple(self.sites), acceptors=tuple(self.acceptors)))
            for a in self.acceptors]
        effects.append(StartTimer(PC_ELECTION_TIMER, self._backoff()))
        return effects

    def _on_phase2b(self, msg: PcPhase2b) -> List[Effect]:
        if self.state is not PcCandidateState.PROPOSING \
                or msg.ballot != self.ballot:
            return []
        self.accepted_2b.add(msg.sender)
        if not self.quorum.can_commit(len(self.accepted_2b)):
            return []
        # The vector is chosen: every instance's value is now decided.
        if any(v in (Vote.NO.value, ABORT_FILLER) for _, v in self.values):
            return self._decide(Outcome.ABORTED)
        return self._decide(Outcome.COMMITTED)

    def _decide(self, outcome: Outcome) -> List[Effect]:
        self.outcome = outcome
        # Includes our own site: the co-resident participant machine
        # applies the outcome and acks back through the loopback path.
        self.unacked = tuple(self.sites)
        effects: List[Effect] = [CancelTimer(PC_ELECTION_TIMER),
                                 Trace("pc.election_decided", {
                                     "tid": str(self.tid),
                                     "outcome": outcome.value,
                                     "ballot": self.ballot})]
        if outcome is Outcome.COMMITTED:
            update_subs = [s for s, v in self.values
                           if v == Vote.YES.value and s != self.site]
            self.state = PcCandidateState.FORCING_DECISION
            effects.append(ForceLog(paxos_decision_record(
                str(self.tid), self.site, update_subs, self.acceptors),
                PC_DECIDE_FORCE))
            return effects
        effects.append(WriteLog(abort_record(str(self.tid), self.site)))
        effects += self._announce()
        return effects

    def on_log_forced(self, token: str) -> List[Effect]:
        if token == PC_DECIDE_FORCE \
                and self.state is PcCandidateState.FORCING_DECISION:
            return self._announce()
        return []

    def _announce(self) -> List[Effect]:
        outcome = self.outcome
        if outcome is None:
            return []
        self.state = PcCandidateState.NOTIFYING
        if not self.unacked:
            # A resumed decision with no update subordinate tells all.
            self.unacked = tuple(self.sites)
        return self._notify(PcOutcome(self.tid, self.site, outcome=outcome),
                            PC_NOTIFY_TIMER)

    def _on_peer_outcome(self, msg: PcOutcome) -> List[Effect]:
        """Someone else (original leader or rival candidate) decided."""
        if self.outcome is not None:
            if self.outcome is not msg.outcome and not self.decided_by_peer:
                raise PcProtocolViolation(
                    f"{self.tid}: rival decided {msg.outcome}, "
                    f"we decided {self.outcome}")
            return []
        self.outcome = msg.outcome
        self.decided_by_peer = True
        self.state = PcCandidateState.DONE
        # The co-resident participant machine acks and applies; the
        # candidate just stands down.
        return [CancelTimer(PC_ELECTION_TIMER), CancelTimer(PC_NOTIFY_TIMER),
                Forget(self.tid)]

    def _finish(self) -> List[Effect]:
        # Like the leader: the END record closes the forced decision
        # record, so recovery does not re-notify a finished commit.
        self.state = PcCandidateState.DONE
        return [WriteLog(end_record(str(self.tid), self.site)),
                Forget(self.tid)]

    def _notify_give_up(self) -> List[Effect]:
        # No END: a restart of this site resumes the notifications.
        self.state = PcCandidateState.DONE
        return [Forget(self.tid)]

    # ----------------------------------------------------------- timers

    def on_timer(self, token: str) -> List[Effect]:
        if token == PC_ELECTION_TIMER:
            if self.state is PcCandidateState.BACKOFF:
                # _nacked already bumped attempt/round; just re-poll.
                return self._poll()
            if self.state not in (PcCandidateState.POLLING,
                                  PcCandidateState.PROPOSING):
                return []
            # Round incomplete: back off and restart phase 1 higher.
            self.round += 1
            self.attempt += 1
            return self._poll()
        if token == PC_NOTIFY_TIMER \
                and self.state is PcCandidateState.NOTIFYING:
            assert self.outcome is not None
            return self._notify_retry(PcOutcome(
                self.tid, self.site, outcome=self.outcome), PC_NOTIFY_TIMER)
        return []

    def _nacked(self, promised: int) -> List[Effect]:
        """Outbid: jump past the rival's ballot, back off, retry."""
        while self.ballot <= promised:
            self.attempt += 1
        self.round += 1
        self.state = PcCandidateState.BACKOFF
        return [CancelTimer(PC_ELECTION_TIMER),
                Trace("pc.election_nacked", {"tid": str(self.tid),
                                             "site": self.site,
                                             "promised": promised}),
                StartTimer(PC_ELECTION_TIMER, self._backoff())]

    # ---------------------------------------------------------- recovery

    @classmethod
    def resume_decision(cls, tid: TID, site: str, update_subs: Sequence[str],
                        acceptors: Sequence[str],
                        sites: Sequence[str]) -> "PcCandidate":
        """Rebuilt from an unacked decision record after a crash."""
        quorum = QuorumSpec.paxos(len(acceptors))
        cand = cls(tid, site, sites, acceptors, quorum)
        cand.outcome = Outcome.COMMITTED
        cand.values = [(s, Vote.YES.value) for s in update_subs]
        cand.unacked = tuple(s for s in update_subs if s != site)
        return cand


# ------------------------------------------------- shared acceptor edges
#
# The phase-1a/2a handling is identical for leaders and participants:
# consult the embedded acceptor, force its state when it changed, reply
# only after the force (the batch queue), nack without forcing.  An
# acceptor may never retract what a quorum might have counted, and with
# the chaos duplication mode a second copy of a message can arrive while
# the first copy's force is still in flight — so even "duplicate" replies
# are released only once the state they quote is provably on the platter.


def _acceptor_p1a(machine: Any, msg: PcP1a) -> List[Effect]:
    acceptor: Optional[PaxosAcceptor] = machine.acceptor
    if acceptor is None:
        return []
    if msg.ballot < acceptor.promised:
        # Nack: safe to send from possibly-volatile state, because a
        # nack is never counted toward any quorum — at worst a candidate
        # jumps to a needlessly high ballot.
        return [SendDatagram(msg.sender, PcP1b(
            machine.tid, machine.site, ballot=msg.ballot,
            promised=acceptor.promised, accepted=acceptor.triples()))]
    raised = msg.ballot > acceptor.promised
    acceptor.promise(msg.ballot)
    reply = PcP1b(machine.tid, machine.site, ballot=msg.ballot,
                  promised=acceptor.promised, accepted=acceptor.triples())
    if raised:
        return [machine._force_acceptor_state(
            acceptor.record(machine.tid), (), [(msg.sender, reply)])]
    # Duplicate of an earlier promise — which may still be riding an
    # in-flight force, so the resend waits for durability too.
    return machine._send_when_durable(msg.sender, reply)


def _acceptor_p2a(machine: Any, msg: PcP2a) -> List[Effect]:
    acceptor: Optional[PaxosAcceptor] = machine.acceptor
    if acceptor is None:
        return []
    if msg.ballot < acceptor.promised:
        return [SendDatagram(msg.sender, PcP1b(
            machine.tid, machine.site, ballot=msg.ballot,
            promised=acceptor.promised, accepted=acceptor.triples()))]
    before = (acceptor.promised, acceptor.triples())
    acceptor.accept_vector(msg.ballot, list(msg.values))
    reply = PcPhase2b(machine.tid, machine.site, ballot=msg.ballot,
                      votes=tuple(msg.values))
    if (acceptor.promised, acceptor.triples()) != before:
        return [machine._force_acceptor_state(
            acceptor.record(machine.tid), (), [(msg.sender, reply)])]
    return machine._send_when_durable(msg.sender, reply)
