"""The recovery process: log analysis after a failure.

Paper §2: "After a failure (of server, site, or disk) or an abort, the
recovery process reads the log and instructs servers how to undo or redo
updates of interrupted transactions."

This module is deliberately split in two:

- :func:`analyze` is a *pure* function from the durable log to a
  :class:`RecoveryPlan` — exhaustively unit-testable;
- the system assembly layer applies the plan: installs redone object
  values in servers, seeds the TranMan's tombstones/pledges, and adopts
  reconstructed protocol machines (a prepared 2PC subordinate resumes
  its inquiry; an in-doubt non-blocking participant spawns a takeover; a
  committed-but-unacknowledged coordinator resumes notifications).

Redo policy: server data segments are rebuilt from the log alone
(redo-only, from update records of transactions whose top level
committed at this site, excluding updates under an aborted subtree).
Updates of still-in-doubt transactions are *pending redo*: applied only
once the reconstructed protocol machines resolve the outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Set, Tuple

from repro.core.nonblocking import NbSubordinate, NbSubState, NbTakeover
from repro.core.outcomes import Outcome, Vote
from repro.core.paxoscommit import PcCandidate, PcLeader, PcParticipant
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import TwoPhaseCoordinator, TwoPhaseSubordinate
from repro.log.records import LogRecord, RecordKind


@dataclass
class InDoubt:
    """One transaction whose outcome this site does not know."""

    tid: TID
    protocol: str            # "two_phase" | "non_blocking" | "paxos_commit"
    coordinator: str
    sites: List[str] = field(default_factory=list)
    quorum: Optional[Dict[str, int]] = None
    replicated: bool = False
    decision_data: Optional[Dict[str, Any]] = None
    pledged: bool = False
    # Paxos Commit only: the acceptor set, and whether this site's RM
    # prepared (False = acceptor duties only, e.g. a read-only RM).
    acceptors: List[str] = field(default_factory=list)
    prepared: bool = True


@dataclass
class UnackedCommit:
    """A coordinator commit record with no end record: someone may still
    be waiting for the commit notice."""

    tid: TID
    protocol: str
    pending_subordinates: List[str] = field(default_factory=list)
    acceptors: List[str] = field(default_factory=list)


@dataclass
class RecoveryPlan:
    """Everything the assembly layer needs to resurrect a site."""

    site: str
    # server name -> {object: committed value at the last checkpoint}
    base_values: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # server name -> {object: recovered committed value} (applied on top
    # of base_values)
    redo_values: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    # tid-string -> outcome known from the log
    tombstones: Dict[str, Outcome] = field(default_factory=dict)
    # tid-strings with durable abort pledges
    pledges: Set[str] = field(default_factory=set)
    in_doubt: List[InDoubt] = field(default_factory=list)
    unacked_commits: List[UnackedCommit] = field(default_factory=list)
    # tid-string -> [(server, object, value)] applied if it resolves to
    # committed later
    pending_redo: Dict[str, List[Tuple[str, str, Any]]] = field(
        default_factory=dict)


def analyze(site: str, records: Iterable[LogRecord]) -> RecoveryPlan:
    """Pure log analysis: build the recovery plan for one site."""
    plan = RecoveryPlan(site=site)
    updates: List[LogRecord] = []
    prepares: Dict[str, LogRecord] = {}
    replications: Dict[str, LogRecord] = {}
    commits: Set[str] = set()
    coord_commits: Dict[str, LogRecord] = {}
    aborts: Set[str] = set()          # any aborted tid (incl. subtrees)
    ends: Set[str] = set()

    for record in records:
        kind = record.kind
        if kind is RecordKind.CHECKPOINT:
            # Records are in LSN order, so the last checkpoint wins; its
            # committed view is the base recovery builds on, and its
            # tombstones are the decided outcomes whose commit/abort
            # records the truncation reclaimed.
            plan.base_values = {
                s: dict(v)
                for s, v in record.payload["server_values"].items()}
            for tid_str, outcome in record.payload.get(
                    "tombstones", {}).items():
                plan.tombstones.setdefault(tid_str, Outcome(outcome))
        elif kind is RecordKind.UPDATE:
            updates.append(record)
        elif kind is RecordKind.PREPARE:
            prepares[record.tid] = record
        elif kind is RecordKind.REPLICATION:
            replications[record.tid] = record
        elif kind is RecordKind.COMMIT:
            commits.add(record.tid)
        elif kind is RecordKind.COORD_COMMIT:
            coord_commits[record.tid] = record
        elif kind is RecordKind.ABORT:
            aborts.add(record.tid)
        elif kind is RecordKind.ABORT_PLEDGE:
            plan.pledges.add(record.tid)
        elif kind is RecordKind.END:
            ends.add(record.tid)

    committed_top = commits | set(coord_commits)
    for tid_str in committed_top:
        plan.tombstones[tid_str] = Outcome.COMMITTED
    for tid_str in aborts:
        # Abort tombstones matter for top-level transactions; subtree
        # abort records only filter redo below.
        if TID.parse(tid_str).is_top_level and tid_str not in committed_top:
            plan.tombstones[tid_str] = Outcome.ABORTED

    aborted_tids = {TID.parse(t) for t in aborts}

    def under_aborted_subtree(writer: TID) -> bool:
        return any(a == writer or a.is_ancestor_of(writer)
                   for a in aborted_tids)

    # ----------------------------------------------------------- redo
    for record in updates:
        writer = TID.parse(record.tid)
        top = str(writer.top_level)
        if under_aborted_subtree(writer):
            continue
        server = record.payload["server"]
        obj = record.payload["object"]
        new = record.payload["new"]
        if top in committed_top:
            plan.redo_values.setdefault(server, {})[obj] = new
        elif top in prepares and top not in aborts:
            plan.pending_redo.setdefault(top, []).append((server, obj, new))

    # ------------------------------------------------------- in doubt
    def acceptor_state(tid_str: str) -> Optional[Dict[str, Any]]:
        rec = replications.get(tid_str)
        if rec is None or not rec.payload.get("paxos"):
            return None
        return {"promised": rec.payload.get("promised", 0),
                "accepted": rec.payload.get("accepted", [])}

    for tid_str, record in prepares.items():
        if tid_str in committed_top or tid_str in aborts or tid_str in ends:
            continue
        payload = record.payload
        if "acceptors" in payload:
            # Paxos Commit: the prepare record is also the ballot-0
            # acceptance of this RM's own instance (co-location).
            plan.in_doubt.append(InDoubt(
                tid=TID.parse(tid_str),
                protocol="paxos_commit",
                coordinator=payload.get("coordinator", ""),
                sites=list(payload.get("sites", [])),
                acceptors=list(payload["acceptors"]),
                decision_data=acceptor_state(tid_str),
                replicated=tid_str in replications,
            ))
            continue
        is_nb = "sites" in payload
        entry = InDoubt(
            tid=TID.parse(tid_str),
            protocol="non_blocking" if is_nb else "two_phase",
            coordinator=payload.get("coordinator", ""),
            sites=list(payload.get("sites", [])),
            quorum=payload.get("quorum_sizes"),
            replicated=tid_str in replications,
            pledged=tid_str in plan.pledges,
        )
        if entry.replicated:
            entry.decision_data = replications[tid_str].payload.get(
                "decision_data")
        plan.in_doubt.append(entry)

    # A Paxos acceptor record with no prepare record: this site's RM
    # never voted YES (read-only, or never reached), but its acceptor
    # made durable promises a quorum may have counted — those duties
    # must survive the crash even though the RM side has nothing to say.
    for tid_str, record in replications.items():
        payload = record.payload
        if not payload.get("paxos") or tid_str in prepares:
            continue
        if tid_str in committed_top or tid_str in aborts or tid_str in ends:
            continue
        plan.in_doubt.append(InDoubt(
            tid=TID.parse(tid_str),
            protocol="paxos_commit",
            coordinator=payload.get("leader", ""),
            sites=list(payload.get("sites", [])),
            acceptors=list(payload.get("acceptors", [])),
            decision_data=acceptor_state(tid_str),
            replicated=True,
            prepared=False,
        ))

    # --------------------------------------------- unacked coordinator
    for tid_str, record in coord_commits.items():
        if tid_str in ends:
            continue
        subs = list(record.payload.get("subordinates", []))
        if record.payload.get("protocol") == "paxos_commit":
            plan.unacked_commits.append(
                UnackedCommit(tid=TID.parse(tid_str),
                              protocol="paxos_commit",
                              pending_subordinates=subs,
                              acceptors=list(
                                  record.payload.get("acceptors", []))))
        elif subs:
            plan.unacked_commits.append(
                UnackedCommit(tid=TID.parse(tid_str), protocol="two_phase",
                              pending_subordinates=subs))
    # Non-blocking: a (lazy) commit record without an end record means
    # notify-phase acks may be missing; resume notification via takeover.
    for tid_str in commits:
        if tid_str in ends or tid_str in coord_commits:
            continue
        record = prepares.get(tid_str)
        if record is None or "sites" not in record.payload:
            continue  # plain 2PC subordinate commit: nothing owed
        if "acceptors" in record.payload:
            # Paxos participant: its commit tombstone answers the
            # leader's retransmitted outcome; nothing to spawn.
            continue
        plan.unacked_commits.append(
            UnackedCommit(tid=TID.parse(tid_str), protocol="non_blocking",
                          pending_subordinates=[
                              s for s in record.payload["sites"]
                              if s != site]))

    return plan


def build_machines(plan: RecoveryPlan,
                   site: str) -> List[Tuple[Any, List[Any]]]:
    """Turn the plan's in-doubt/unacked entries into (machine,
    resume-effects) pairs for both hosts' ``recover_from_plan``."""
    out: List[Tuple[Any, List[Any]]] = []
    for entry in plan.in_doubt:
        if entry.protocol == "two_phase":
            sub = TwoPhaseSubordinate.recovered(
                entry.tid, site, entry.coordinator)
            out.append((sub, sub.resume_inquiry()))
            continue
        if entry.protocol == "paxos_commit":
            acc = entry.decision_data or {}
            pc = PcParticipant.recovered(
                entry.tid, site, entry.coordinator, entry.sites,
                entry.acceptors,
                promised=int(acc.get("promised", 0)),
                accepted=acc.get("accepted", ()),
                prepared=entry.prepared)
            out.append((pc, pc.resume_inquiry()))
            continue
        quorum = QuorumSpec.from_dict(entry.quorum) if entry.quorum else \
            QuorumSpec.majority(max(1, len(entry.sites)))
        # Participant machine reflecting durable state...
        sub = NbSubordinate(entry.tid, site, entry.coordinator,
                            entry.sites, quorum)
        sub.vote = Vote.YES
        if entry.pledged:
            sub.state = NbSubState.PLEDGED
            own_status = "abort_pledged"
        elif entry.replicated:
            sub.state = NbSubState.REPLICATED
            sub.decision_data = entry.decision_data
            own_status = "replicated"
        else:
            sub.state = NbSubState.PREPARED
            own_status = "prepared"
        out.append((sub, []))
        # ...plus a takeover to actually resolve it.
        takeover = NbTakeover(entry.tid, site, entry.sites, quorum,
                              own_status=own_status,
                              own_decision_data=entry.decision_data)
        out.append((takeover, takeover.start()))
    for entry in plan.unacked_commits:
        if entry.protocol == "two_phase":
            coord = TwoPhaseCoordinator.recovered(
                entry.tid, site, entry.pending_subordinates)
            out.append((coord, coord.resume_notifications()))
        elif entry.protocol == "paxos_commit":
            # The decision is durable, only notifications remain.  A
            # crashed leader resumes as a leader; a crashed *winning
            # candidate* at a non-acceptor site may not wear the leader
            # hat (leaders must belong to the acceptor set), so it
            # resumes its notify phase as a candidate instead.
            subs = [s for s in entry.pending_subordinates if s != site]
            if site in entry.acceptors:
                leader = PcLeader.recovered(
                    entry.tid, site, subs, entry.acceptors)
                out.append((leader, leader.resume_notifications()))
            else:
                cand = PcCandidate.resume_decision(
                    entry.tid, site, subs, entry.acceptors,
                    sites=[site] + subs)
                out.append((cand, cand.start()))
        else:
            sites = [site] + [s for s in entry.pending_subordinates]
            takeover = NbTakeover(entry.tid, site, sites,
                                  QuorumSpec.majority(len(sites)),
                                  own_status="committed")
            out.append((takeover, takeover.start()))
    return out
