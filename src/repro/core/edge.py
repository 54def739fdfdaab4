"""The protocol edge: every decision a site makes *around* its machines.

"The transaction manager is essentially a protocol processor" (paper
§3).  The machines of :mod:`~repro.core.twophase`, ``nonblocking`` and
``paxoscommit`` decide what happens *inside* one transaction's protocol
run; this module decides everything else, once, for both hosts (the
simulated :mod:`repro.servers.tranman` and :mod:`repro.live.host`):

- which coordinator machine a commit call builds;
- which machine — participant, takeover, both in turn, or none — an
  inbound datagram belongs to;
- what a site answers for a transaction it holds **no machine** for:
  presumed-abort replies, tombstones (change 4: never report "no state"
  for a transaction that decided), durable abort pledges, quorum
  helpers, rebuilt Paxos acceptors;
- takeover spawning, quorum-membership tracking, and the five tables
  those decisions read.

Sans-IO like the machines: :meth:`ProtocolEdge.route` returns plain
``(dst, message)`` replies, which go straight on the wire, plus ordered
*steps* ``(machine, thunk)``.  :mod:`repro.core.interpreter` calls a
step's thunk only after the previous step's effects have run to
quiescence (force waits included) and then executes the effects it
returns on behalf of ``machine``.

The hosts differ, from here, only in three facts handed over as
callables: whether a transaction's family is known at this site (lost
with volatile state in a crash), whether it is still running, and the
host's clock, read only to expire decided transactions' bookkeeping
(the *retire log*).  Machines name their waits in protocol timeouts,
and the interpreter arms them.
"""

from __future__ import annotations

from collections import OrderedDict
from functools import partial
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.core.effects import Effect, ForceLog, SendDatagram, Trace
from repro.core.messages import (
    AbortNotice,
    CommitAck,
    CommitNotice,
    FamilyAbort,
    FamilyAbortAck,
    InquiryResponse,
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
    NestedCommit,
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcP1b,
    PcP2a,
    PcPhase2b,
    PcPrepare,
    PcVote,
    PrepareRequest,
    TxnInquiry,
    VoteResponse,
)
from repro.core.nonblocking import NbCoordinator, NbSubordinate, NbTakeover
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.paxoscommit import PcCandidate, PcLeader, PcParticipant
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import TwoPhaseCoordinator, TwoPhaseSubordinate
from repro.log.records import LogRecord, RecordKind, abort_pledge_record

# Cadence at which both hosts flush lazily queued (piggybacked)
# datagrams; the live host flushes its lazy WAL tail on the same beat.
PIGGYBACK_SWEEP_MS = 50.0

Reply = Tuple[str, Any]
Step = Tuple[Any, Callable[[], Sequence[Effect]]]
Routed = Tuple[Sequence[Reply], Sequence[Step]]

_SILENCE: Routed = ((), ())

# Responses addressed to a takeover when one is running here.
_TAKEOVER_ROUTED = (NbStateReport, NbReplicateAck, NbAbortJoinAck,
                    NbOutcomeAck, PcP1b, PcOutcomeAck)

# Responses to a machine that already finished: nothing to do.
_STALE_RESPONSES = (VoteResponse, NbVote, CommitAck, NbReplicateAck,
                    NbAbortJoinAck, NbOutcomeAck, NbStateReport,
                    FamilyAbortAck, InquiryResponse, PcPhase2b, PcP1b,
                    PcOutcomeAck)


class PledgeAck:
    """One-shot machine: force this site's abort pledge, then answer
    every ``NbAbortJoin`` that asked for it while the force ran."""

    TOKEN = "nb.stateless_pledge_force"

    def __init__(self, tid: TID, site: str,
                 forced: Callable[[str], None]) -> None:
        self.tid = tid
        self._site = site
        self._forced = forced
        self.waiters: List[str] = []

    def start(self) -> List[Effect]:
        return [ForceLog(abort_pledge_record(str(self.tid), self._site),
                         self.TOKEN)]

    def on_log_forced(self, token: str) -> List[Effect]:
        if token != self.TOKEN:
            return []
        self._forced(str(self.tid))
        out: List[Effect] = [Trace("nb.stateless_pledge",
                                   {"tid": str(self.tid)})]
        out.extend(SendDatagram(dst, NbAbortJoinAck(
            tid=self.tid, sender=self._site, ok=True))
            for dst in self.waiters)
        return out


class ProtocolEdge:
    """One site's machine tables and the decisions made around them."""

    def __init__(self, site: str, cost: Any,
                 family_known: Callable[[TID], bool],
                 txn_active: Callable[[TID], bool],
                 now: Callable[[], float]) -> None:
        self.site = site
        self._family_known = family_known
        self._txn_active = txn_active
        self._now = now
        # Decided bookkeeping answers late inquiries: it must outlive
        # every straggler (``cost`` is the host's CostModel), not the run.
        self._retention_ms = cost.orphan_timeout + cost.protocol_timeout
        # The retire log: each TID here by its newest record's time.
        self._newest: OrderedDict[str, float] = OrderedDict()
        self.machines: Dict[TID, Any] = {}
        # Termination-protocol machines: NbTakeover or PcCandidate.
        self.takeovers: Dict[TID, Any] = {}
        self.tombstones: Dict[str, Outcome] = {}
        # Abort pledges whose record is *appended*: from that moment this
        # site may never join a commit quorum.  Whether the record is
        # durable yet matters only to whoever is told about the pledge.
        self.pledges: Set[str] = set()
        # TIDs this site answered READ_ONLY for: a retried prepare must
        # re-vote read-only, not NO (the machine is long forgotten).
        self.read_only_votes: Set[str] = set()
        # Outcomes reported to a driver (only ``SiteHost`` has one).
        self.completions: Dict[str, Outcome] = {}
        # Stateless pledges still being forced, by tid-string.
        self._pledging: Dict[str, PledgeAck] = {}

    # ------------------------------------------------------ bookkeeping

    def note_outcome(self, tid_str: str, outcome: Outcome) -> None:
        self.tombstones[tid_str] = outcome
        self._retain(tid_str)

    def note_read_only(self, tid_str: str) -> None:
        self.read_only_votes.add(tid_str)
        self._retain(tid_str)

    def note_completion(self, tid_str: str, outcome: Outcome) -> None:
        self.completions[tid_str] = outcome
        self._retain(tid_str)

    def _retain(self, tid_str: str) -> None:
        """Date ``tid_str``'s bookkeeping now, and expire every TID whose
        newest record is past the horizon: pruned as records arrive, the
        tables hold one horizon's TIDs, not the run's."""
        now = self._now()
        log = self._newest
        log[tid_str] = now
        log.move_to_end(tid_str)
        oldest = next(iter(log))
        while log[oldest] < now - self._retention_ms:
            del log[oldest]
            self.expire(oldest)
            oldest = next(iter(log))

    def expire(self, tid_str: str) -> None:
        """Drop a completed transaction's bookkeeping: no straggler can
        still ask about it (the retention horizon has passed)."""
        self.tombstones.pop(tid_str, None)
        self.pledges.discard(tid_str)
        self.read_only_votes.discard(tid_str)
        self.completions.pop(tid_str, None)

    def restore(self, tombstones: Mapping[str, Outcome],
                pledges: Iterable[str]) -> None:
        """Adopt what crash recovery read back from the durable log."""
        self.tombstones.update(tombstones)
        self.pledges.update(pledges)
        for tid_str in set(tombstones) | set(pledges):
            self._retain(tid_str)

    def adopt(self, machine: Any) -> None:
        """Install a machine rebuilt by crash recovery."""
        if isinstance(machine, (NbTakeover, PcCandidate)):
            self.takeovers[machine.tid] = machine
        else:
            self.machines[machine.tid] = machine

    def is_live(self, machine: Any) -> bool:
        tid = getattr(machine, "tid", None)
        if tid is None:
            return False
        return (self.machines.get(tid) is machine
                or self.takeovers.get(tid) is machine)

    def forget(self, machine: Any, tid: TID) -> None:
        """The machine met all its obligations: keep only the tombstone."""
        outcome = getattr(machine, "outcome", None)
        if outcome is not None:
            self.note_outcome(str(tid), outcome)
        if self.machines.get(tid) is machine:
            del self.machines[tid]
        if self.takeovers.get(tid) is machine:
            del self.takeovers[tid]

    def note_membership(self, record: LogRecord
                        ) -> Optional[Callable[[], None]]:
        """Track quorum membership as its records are appended.

        Returns the note the co-resident participant machine must be
        handed (the host decides when: the simulator defers it past the
        running thread, the live host runs it at once), or None.
        """
        if record.kind is RecordKind.ABORT_PLEDGE:
            self.pledges.add(record.tid)
            self._retain(record.tid)
        elif record.kind is not RecordKind.REPLICATION:
            return None
        # Commitment runs on top-level TIDs only, whose string is the
        # family itself: no parse.
        sub = self.machines.get(TID(record.tid))
        if not isinstance(sub, NbSubordinate):
            return None
        # A takeover's self-pledge (or self-promotion) must also bind the
        # co-resident participant machine, or it could later accept a
        # replicate (or pledge) and put this site in both quorums.
        return (sub.note_local_pledge
                if record.kind is RecordKind.ABORT_PLEDGE
                else sub.note_local_replication)

    # ----------------------------------------------------- construction

    def coordinator(self, tid: TID, subordinates: Sequence[str],
                    protocol: ProtocolKind,
                    variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED,
                    quorum_policy: str = "majority",
                    use_multicast: bool = False) -> Any:
        """Build and install the coordinator machine for a commit call."""
        subs = sorted(s for s in subordinates if s != self.site)
        machine: Any
        if protocol is ProtocolKind.NON_BLOCKING:
            n_sites = len(subs) + 1
            if quorum_policy == "commit_weighted":
                quorum = QuorumSpec.commit_weighted(n_sites)
            elif quorum_policy == "majority":
                quorum = QuorumSpec.majority(n_sites)
            else:
                raise ValueError(f"unknown quorum policy {quorum_policy!r}")
            machine = NbCoordinator(
                tid, self.site, subs, quorum=quorum,
                use_multicast=use_multicast,
                # A takeover may have extracted our abort pledge while
                # the family sat idle here (or before a crash); the
                # coordinator must then refuse to drive a commit (see
                # on_local_prepared).
                already_pledged=str(tid) in self.pledges)
        elif protocol is ProtocolKind.PAXOS_COMMIT:
            # Acceptors are the leader-first odd prefix of the site list
            # (N = 2F+1): two sites degenerate to F=0 (leader is the
            # sole acceptor, 2PC's exact cost profile), three sites give
            # F=1, and so on.
            all_sites = [self.site] + subs
            n_acceptors = (len(all_sites) if len(all_sites) % 2
                           else len(all_sites) - 1)
            machine = PcLeader(
                tid, self.site, subs, acceptors=all_sites[:n_acceptors],
                quorum=QuorumSpec.paxos(n_acceptors))
        else:
            machine = TwoPhaseCoordinator(
                tid, self.site, subs, variant=variant,
                use_multicast=use_multicast)
        self.machines[tid] = machine
        return machine

    def start_takeover(self, tid: TID) -> Sequence[Step]:
        """A timed-out participant wants a termination protocol run."""
        if tid in self.takeovers:
            return ()
        sub = self.machines.get(tid)
        takeover: Any
        if isinstance(sub, (PcParticipant, PcLeader)):
            # Paxos Commit termination: run the leader election.  The
            # leader itself lands here too, when votes never arrive and
            # unilateral abort would be unsafe (F >= 1).
            status = "paxos_election"
            takeover = PcCandidate(
                tid, self.site, sub.sites, sub.acceptors, sub.quorum)
        elif isinstance(sub, NbSubordinate):
            status, data = sub.status_report()
            takeover = NbTakeover(
                tid, self.site, sub.sites, sub.quorum,
                own_status=status, own_decision_data=data)
        else:
            return ()
        self.takeovers[tid] = takeover
        trace = Trace("tranman.takeover", {"tid": str(tid), "status": status})
        return ((takeover, lambda: [trace, *takeover.start()]),)

    # ---------------------------------------------------------- routing

    def for_servers(self, pmsg: Any) -> bool:
        """True for nested-commit / family-abort traffic that no machine
        here claims: it concerns the data servers, which only the host
        can reach, so the host answers it."""
        return (isinstance(pmsg, (NestedCommit, FamilyAbort))
                and pmsg.tid not in self.machines)

    def route(self, pmsg: Any) -> Routed:
        """Replies to send and machine steps to run for one datagram."""
        tid: TID = pmsg.tid
        takeover = self.takeovers.get(tid)
        if takeover is not None and (
                isinstance(pmsg, _TAKEOVER_ROUTED)
                # Election-ballot 2bs belong to the candidate; ballot-0
                # 2bs are the leader machine's prepare-round tally.
                or (isinstance(pmsg, PcPhase2b) and pmsg.ballot != 0)):
            return (), ((takeover, partial(takeover.on_message, pmsg)),)
        machine = self.machines.get(tid)
        steps: Tuple[Step, ...] = () if machine is None else (
            (machine, partial(machine.on_message, pmsg)),)
        if takeover is not None and isinstance(pmsg, (NbOutcome, PcOutcome)):
            # Outcomes concern everyone at this site: the participant
            # runs to quiescence first, then the takeover hears it.
            steps += ((takeover, partial(takeover.on_message, pmsg)),)
        return ((), steps) if steps else self._stateless(pmsg)

    def _spawn(self, machine: Any,
               *thunks: Callable[[], Sequence[Effect]]) -> Routed:
        self.machines[machine.tid] = machine
        return (), tuple((machine, thunk) for thunk in thunks)

    def _stateless(self, pmsg: Any) -> Routed:
        """Answer for a transaction with no live machine here."""
        tid: TID = pmsg.tid
        tomb = self.tombstones.get(str(tid))
        site = self.site
        if isinstance(pmsg, PrepareRequest):
            return self._prepare_2pc(pmsg, tomb)
        if isinstance(pmsg, NbPrepare):
            return self._prepare_nb(pmsg, tomb)
        if isinstance(pmsg, CommitNotice):
            if tomb is Outcome.COMMITTED:
                return ((pmsg.sender, CommitAck(tid=tid, sender=site)),), ()
            return _SILENCE
        if isinstance(pmsg, AbortNotice):
            return _SILENCE  # nothing known, nothing to do (presumed abort)
        if isinstance(pmsg, TxnInquiry):
            if tomb is None and self._txn_active(tid):
                return _SILENCE  # still running; the inquirer should not exist yet
            return ((pmsg.sender, InquiryResponse(
                tid=tid, sender=site,
                outcome=tomb if tomb is not None else Outcome.ABORTED)),), ()
        if isinstance(pmsg, NbReplicate):
            return self._replicate(pmsg, tomb)
        if isinstance(pmsg, NbAbortJoin):
            return self._abort_join(pmsg, tomb)
        if isinstance(pmsg, NbStateRequest):
            if tomb is Outcome.COMMITTED:
                status = "committed"
            elif tomb is Outcome.ABORTED:
                status = "aborted"
            elif str(tid) in self.pledges:
                status = "abort_pledged"
            else:
                status = "no_state"
            return ((pmsg.sender, NbStateReport(
                tid=tid, sender=site, status=status,
                round=pmsg.round)),), ()
        if isinstance(pmsg, PcPrepare):
            return self._prepare_pc(pmsg, tomb)
        if isinstance(pmsg, (PcVote, PcP1a, PcP2a)):
            return self._pc_acceptor(pmsg, tomb)
        if isinstance(pmsg, (NbOutcome, PcOutcome)):
            if tomb is not None and tomb is not pmsg.outcome:
                raise AssertionError(
                    f"{tid}: outcome {pmsg.outcome} conflicts with "
                    f"tombstone {tomb} at {site}")
            ack = NbOutcomeAck if isinstance(pmsg, NbOutcome) else PcOutcomeAck
            return ((pmsg.sender, ack(tid=tid, sender=site)),), ()
        if isinstance(pmsg, _STALE_RESPONSES):
            return _SILENCE
        raise ValueError(f"unhandled datagram payload {pmsg!r}")

    def _prepare_2pc(self, pmsg: PrepareRequest,
                     tomb: Optional[Outcome]) -> Routed:
        tid, site = pmsg.tid, self.site
        if tomb is Outcome.COMMITTED:
            # We finished and the coordinator retried: it wants the ack.
            return ((pmsg.sender, CommitAck(tid=tid, sender=site)),), ()
        if str(tid) in self.read_only_votes:
            return ((pmsg.sender, VoteResponse(
                tid=tid, sender=site, vote=Vote.READ_ONLY)),), ()
        if tomb is Outcome.ABORTED or not self._family_known(tid):
            # Presumed abort: no family state means any pre-crash work is
            # gone; we must refuse, never claim read-only.  (The family,
            # not the top-level descriptor: a remote site often knows the
            # transaction only through nested children that ran here.)
            return ((pmsg.sender, VoteResponse(
                tid=tid, sender=site, vote=Vote.NO)),), ()
        sub = TwoPhaseSubordinate(tid, site, pmsg.sender,
                                  variant=pmsg.variant)
        return self._spawn(sub, sub.start)

    def _prepare_nb(self, pmsg: NbPrepare,
                    tomb: Optional[Outcome]) -> Routed:
        tid, site = pmsg.tid, self.site
        if tomb is Outcome.COMMITTED:
            return ((pmsg.sender, NbOutcomeAck(tid=tid, sender=site)),), ()
        if str(tid) in self.read_only_votes:
            return ((pmsg.sender, NbVote(
                tid=tid, sender=site, vote=Vote.READ_ONLY)),), ()
        pledged = str(tid) in self.pledges
        if tomb is Outcome.ABORTED or (
                not pledged and not self._family_known(tid)):
            return ((pmsg.sender, NbVote(
                tid=tid, sender=site, vote=Vote.NO)),), ()
        sub = NbSubordinate(tid, site, pmsg.sender, list(pmsg.sites),
                            pmsg.quorum, already_pledged=pledged)
        return self._spawn(sub, sub.start)

    def _replicate(self, pmsg: NbReplicate,
                   tomb: Optional[Outcome]) -> Routed:
        tid = pmsg.tid
        if str(tid) in self.pledges or tomb is Outcome.ABORTED:
            # Never join both quorums: a pledge — appended, forced or
            # not — refuses the commit quorum.
            return ((pmsg.sender, NbReplicateAck(
                tid=tid, sender=self.site, ok=False)),), ()
        if tomb is Outcome.COMMITTED:
            return ((pmsg.sender, NbReplicateAck(
                tid=tid, sender=self.site, ok=True)),), ()
        # Quorum helper: a read-only (or forgotten) site drafted into the
        # commit quorum; the replicate message is self-contained.
        helper = NbSubordinate.helper(tid, self.site, pmsg)
        return self._spawn(helper, partial(helper.on_message, pmsg))

    def _abort_join(self, pmsg: NbAbortJoin,
                    tomb: Optional[Outcome]) -> Routed:
        tid = pmsg.tid
        if tomb is Outcome.COMMITTED:
            return ((pmsg.sender, NbAbortJoinAck(
                tid=tid, sender=self.site, ok=False)),), ()
        forcing = self._pledging.get(str(tid))
        if forcing is not None:
            # The pledge is appended but not durable: the ack waits for
            # the force, or a crash now would forget a counted pledge.
            forcing.waiters.append(pmsg.sender)
            return _SILENCE
        if str(tid) in self.pledges or tomb is Outcome.ABORTED:
            return ((pmsg.sender, NbAbortJoinAck(
                tid=tid, sender=self.site, ok=True)),), ()
        # Durable pledge: force it, then acknowledge.
        forcing = PledgeAck(tid, self.site, self._pledge_forced)
        forcing.waiters.append(pmsg.sender)
        self._pledging[str(tid)] = forcing
        return (), ((forcing, forcing.start),)

    def _pledge_forced(self, tid_str: str) -> None:
        del self._pledging[tid_str]

    def _prepare_pc(self, pmsg: PcPrepare,
                    tomb: Optional[Outcome]) -> Routed:
        tid, site = pmsg.tid, self.site
        if tomb is Outcome.COMMITTED:
            # Already resolved here; the leader only wants the ack.
            return ((pmsg.sender, PcOutcomeAck(tid=tid, sender=site)),), ()
        if str(tid) in self.read_only_votes:
            # Re-vote read-only to the same targets the live machine
            # would use: every acceptor (the instance still needs an
            # acceptor quorum) plus the leader.
            targets = [a for a in pmsg.acceptors if a != site]
            if pmsg.sender not in targets:
                targets.append(pmsg.sender)
            vote = PcVote(tid=tid, sender=site, vote=Vote.READ_ONLY,
                          leader=pmsg.sender, sites=pmsg.sites,
                          acceptors=pmsg.acceptors)
            return tuple((dst, vote) for dst in targets), ()
        if tomb is Outcome.ABORTED:
            # Already decided abort here: tell the leader outright.
            return ((pmsg.sender, PcOutcome(
                tid=tid, sender=site, outcome=Outcome.ABORTED)),), ()
        if not self._family_known(tid):
            # No state: we may have voted READ_ONLY (volatile) before a
            # crash, and an RM must never propose two different ballot-0
            # values — a NO here could diverge from an instance that
            # already chose read-only.  Stay silent; the leader's
            # timeout (F=0) or an election (F>=1) resolves the
            # un-proposed instance to abort safely.
            return _SILENCE
        sub = PcParticipant(tid, site, pmsg.sender,
                            list(pmsg.sites), list(pmsg.acceptors),
                            QuorumSpec.paxos(len(pmsg.acceptors)))
        return self._spawn(sub, sub.start)

    def _pc_acceptor(self, pmsg: Any, tomb: Optional[Outcome]) -> Routed:
        """A Paxos message reached an acceptor site with no machine: a
        crash-restarted (or long-forgotten read-only) acceptor.  Rebuild
        an acceptor-only participant from the message's configuration —
        every Pc message carries it — and deliver."""
        tid, site = pmsg.tid, self.site
        if tomb is not None:
            # The outcome is known here: short-circuit the election.
            return ((pmsg.sender, PcOutcome(
                tid=tid, sender=site, outcome=tomb)),), ()
        if site not in pmsg.acceptors:
            return _SILENCE  # stale / misrouted: we owe no acceptor duties
        leader = pmsg.leader or pmsg.sender
        if self._family_known(tid):
            # Live family state means this site never crashed — the
            # acceptor traffic merely overtook the leader's PcPrepare on
            # the wire (votes come from third-party RMs, so not even a
            # FIFO link orders them).  Spawn the full participant (it
            # prepares and votes like the PcPrepare path would) and let
            # it answer the acceptor duty that arrived early.
            sub = PcParticipant(tid, site, leader,
                                list(pmsg.sites), list(pmsg.acceptors),
                                QuorumSpec.paxos(len(pmsg.acceptors)))
            return self._spawn(sub, sub.start,
                               partial(sub.on_message, pmsg))
        sub = PcParticipant.recovered(
            tid, site, leader=leader, sites=list(pmsg.sites),
            acceptors=list(pmsg.acceptors), prepared=False)
        trace = Trace("pc.acceptor_rebuilt",
                      {"tid": str(tid), "kind_of": type(pmsg).__name__})
        return self._spawn(sub, lambda: [trace, *sub.on_message(pmsg)])
