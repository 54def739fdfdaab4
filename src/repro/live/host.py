"""The effect interpreter shared by the simulated and live harnesses.

:class:`SiteHost` hosts the unmodified sans-IO protocol machines
(:mod:`repro.core.twophase` / ``nonblocking`` / ``paxoscommit``) and
interprets their effects through a small :class:`Substrate` interface —
send a datagram, append/force the WAL, arm a timer.  The simulator
harness (:mod:`repro.live.simhost`) plugs the deterministic kernel +
token-ring LAN into that interface; the live harness
(:mod:`repro.live.site`) plugs asyncio TCP + an fsync-backed WAL file.
Everything above the interface — effect execution order, the stateless
protocol edge, takeover spawning, machine bookkeeping — is this one
class, so the conformance harness compares *substrates*, never two
reimplementations of the host.

Execution discipline (what makes transcripts comparable): each site
processes one input at a time.  An input (message, timer, durability
notice) runs its machine to quiescence — including inline waits for
log forces and the scripted local prepare — before the next queued
input is dispatched, exactly like the simulator TranMan's generator
``_execute`` loop.  Within one effect batch, a ForceLog's continuation
effects run before the batch's remaining effects (depth-first), again
matching ``TransactionManager._execute``.

The host itself is pure sans-IO: no asyncio, no sockets, no clock.  The
``live-io-fence`` lint rule would allow them here, but keeping the
interpreter substrate-blind is the whole point.

Scope vs the full simulator: there are no data servers behind a live
site, so ``LocalPrepare`` resolves to a scripted vote (YES unless
configured) and ``LocalCommit``/``LocalAbort`` are traced no-ops; and a
site that recovered from a non-empty WAL answers prepares for unknown
transactions conservatively (vote NO / stay silent), as the TranMan
does once a crash has destroyed volatile family state.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import CostModel
from repro.core.effects import (
    CancelTimer,
    Complete,
    Effect,
    Forget,
    ForceLog,
    LazySendDatagram,
    LocalAbort,
    LocalCommit,
    LocalPrepare,
    MulticastDatagram,
    SendDatagram,
    StartTakeover,
    StartTimer,
    Trace,
    WriteLog,
)
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
from repro.core.tid import TID, TidGenerator
from repro.core.twophase import TwoPhaseCoordinator, TwoPhaseSubordinate
from repro.log.records import LogRecord, RecordKind, abort_pledge_record
from repro.servers.recovery import RecoveryPlan, build_machines

# Mirrors tranman.PIGGYBACK_SWEEP_MS: the cadence at which lazily queued
# (piggybacked) datagrams and the lazy WAL tail get flushed.
SWEEP_MS = 50.0

# Same dedup memory as DatagramService.
DEDUP_WINDOW = 4096

_STALE_RESPONSES = (VoteResponse, NbVote, CommitAck, NbReplicateAck,
                    NbAbortJoinAck, NbOutcomeAck, NbStateReport,
                    FamilyAbortAck, InquiryResponse, PcPhase2b, PcP1b,
                    PcOutcomeAck)

_TAKEOVER_ROUTED = (NbStateReport, NbReplicateAck, NbAbortJoinAck,
                    NbOutcomeAck, PcP1b, PcOutcomeAck)


class Substrate:
    """What a harness must provide; see module docstring.

    Timer handles are opaque; ``start_timer``/``schedule`` delays are in
    protocol milliseconds (virtual for the simulator, real for live).
    """

    def send(self, dst: str, message: Any) -> None:
        raise NotImplementedError

    def append(self, record: LogRecord) -> int:
        raise NotImplementedError

    def force(self, lsn: int, done: Callable[[], None]) -> None:
        raise NotImplementedError

    def force_tail(self) -> None:
        raise NotImplementedError

    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        raise NotImplementedError

    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        raise NotImplementedError

    def cancel_timer(self, handle: Any) -> None:
        raise NotImplementedError

    def trace(self, kind: str, detail: Dict[str, Any]) -> None:
        raise NotImplementedError


def build_coordinator(protocol: str, tid: TID, site: str,
                      subordinates: Sequence[str], cost: CostModel,
                      variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED
                      ) -> Any:
    """The coordinator machine the TranMan would build (``_commit``)."""
    subs = sorted(s for s in subordinates if s != site)
    kind = ProtocolKind(protocol) if protocol not in ("2pc", "nb", "paxos") \
        else {"2pc": ProtocolKind.TWO_PHASE,
              "nb": ProtocolKind.NON_BLOCKING,
              "paxos": ProtocolKind.PAXOS_COMMIT}[protocol]
    if kind is ProtocolKind.NON_BLOCKING:
        return NbCoordinator(
            tid, site, subs, quorum=QuorumSpec.majority(len(subs) + 1),
            use_multicast=False,
            vote_timeout_ms=cost.protocol_timeout,
            repl_timeout_ms=cost.protocol_timeout,
            notify_timeout_ms=cost.protocol_timeout)
    if kind is ProtocolKind.PAXOS_COMMIT:
        all_sites = [site] + subs
        n_acceptors = (len(all_sites) if len(all_sites) % 2
                       else len(all_sites) - 1)
        return PcLeader(
            tid, site, subs, acceptors=all_sites[:n_acceptors],
            quorum=QuorumSpec.paxos(n_acceptors),
            vote_timeout_ms=cost.protocol_timeout,
            notify_timeout_ms=cost.protocol_timeout)
    return TwoPhaseCoordinator(
        tid, site, subs, variant=variant, use_multicast=False,
        vote_timeout_ms=cost.protocol_timeout,
        ack_timeout_ms=cost.protocol_timeout)


class SiteHost:
    """One site's machines + effect interpreter over a substrate."""

    def __init__(self, site: str, substrate: Substrate, cost: CostModel,
                 votes: Optional[Dict[str, Vote]] = None,
                 hold_force_tokens: Sequence[str] = (),
                 prepare_delay_ms: float = 0.0):
        self.site = site
        self.substrate = substrate
        self.cost = cost
        self.scripted_votes = dict(votes or {})
        self.hold_force_tokens = set(hold_force_tokens)
        self.prepare_delay_ms = prepare_delay_ms

        self.tid_gen = TidGenerator(site)
        self.machines: Dict[TID, Any] = {}
        self.takeovers: Dict[TID, Any] = {}
        self.tombstones: Dict[str, Outcome] = {}
        self.pledges: Set[str] = set()
        self.read_only_votes: Set[str] = set()
        self.completions: Dict[str, Outcome] = {}
        self.held: List[str] = []
        self.duplicates = 0
        # A host that recovered from a non-empty WAL lost volatile state
        # in a crash: prepares for unknown transactions are refused.
        self.conservative = False
        self.on_complete: Optional[Callable[[TID, Outcome], None]] = None

        self._timers: Dict[Tuple[Any, str], Any] = {}
        self._lazy: Dict[str, List[Any]] = {}
        self._seen: Dict[str, Set[str]] = {}
        self._seen_order: Dict[str, List[str]] = {}
        # Input queue + effect-frame stack (see module docstring).
        self._inbox: Deque[Tuple[Any, ...]] = deque()
        self._frames: List[Tuple[Any, Any]] = []
        self._waiting = False
        self._active = False
        self._sweep_handle: Any = None

    # ------------------------------------------------------- lifecycle

    def start_sweeps(self) -> None:
        """Arm the periodic piggyback/WAL-tail flush (re-arms itself)."""
        self._sweep_handle = self.substrate.start_timer(SWEEP_MS, self._sweep)

    def stop_sweeps(self) -> None:
        if self._sweep_handle is not None:
            self.substrate.cancel_timer(self._sweep_handle)
            self._sweep_handle = None

    def _sweep(self) -> None:
        self.substrate.force_tail()
        for dst in list(self._lazy):
            self._flush_lazy(dst)
        self._sweep_handle = self.substrate.start_timer(SWEEP_MS, self._sweep)

    @property
    def idle(self) -> bool:
        return (not self.machines and not self.takeovers and not self._lazy
                and not self._frames and not self._inbox
                and not self._waiting)

    # ----------------------------------------------------- driver API

    def begin_commit(self, protocol: str, subordinates: Sequence[str],
                     tid: Optional[TID] = None,
                     variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED
                     ) -> TID:
        """Start commitment as coordinator; returns the transaction id."""
        if tid is None:
            tid = self.tid_gen.new_top_level()
        machine = build_coordinator(protocol, tid, self.site, subordinates,
                                    self.cost, variant)
        self.machines[tid] = machine
        self._inbox.append(("effects", machine, machine.start()))
        self._pump()
        return tid

    def recover_from_plan(self, plan: RecoveryPlan) -> None:
        """Adopt a recovery plan built from the durable WAL prefix."""
        for tid_str, outcome in plan.tombstones.items():
            self.tombstones[tid_str] = outcome
        self.pledges |= set(plan.pledges)
        self.conservative = True
        for machine, resume in build_machines(
                plan, self.site, protocol_timeout_ms=self.cost.protocol_timeout):
            if isinstance(machine, (NbTakeover, PcCandidate)):
                self.takeovers[machine.tid] = machine
            else:
                self.machines[machine.tid] = machine
            self._inbox.append(("effects", machine, list(resume)))
        self._pump()

    # -------------------------------------------------------- inbound

    def deliver(self, src: str, message: Any) -> None:
        """One datagram from the substrate (dedup mirror of the sim)."""
        key = getattr(message, "dedup_key", None)
        if key is not None and self._is_duplicate(src, key):
            self.duplicates += 1
            return
        self._inbox.append(("msg", src, message))
        self._pump()

    def _is_duplicate(self, src: str, key: str) -> bool:
        seen = self._seen.setdefault(src, set())
        order = self._seen_order.setdefault(src, [])
        if key in seen:
            return True
        seen.add(key)  # lint: bounded(DEDUP_WINDOW entries per peer)
        order.append(key)  # lint: bounded(DEDUP_WINDOW entries per peer)
        if len(order) > DEDUP_WINDOW:
            seen.discard(order.pop(0))
        return False

    # --------------------------------------------------------- engine

    def _pump(self) -> None:
        if self._active or self._waiting:
            return
        self._active = True
        try:
            while True:
                if self._frames:
                    machine, frame = self._frames[-1]
                    effect = next(frame, None)
                    if effect is None:
                        self._frames.pop()
                        continue
                    self._apply(machine, effect)
                    if self._waiting:
                        return
                    continue
                if self._inbox:
                    self._dispatch(self._inbox.popleft())
                    continue
                return
        finally:
            self._active = False

    def _push(self, machine: Any, effects: Sequence[Effect]) -> None:
        if effects:
            self._frames.append((machine, iter(effects)))

    def _dispatch(self, item: Tuple[Any, ...]) -> None:
        kind = item[0]
        if kind == "msg":
            _, src, message = item
            self._route(message)
        elif kind == "call":
            _, machine, method, args = item
            if method == "on_timer" and not self._machine_live(machine):
                return
            self._push(machine, getattr(machine, method)(*args) or [])
        elif kind == "effects":
            _, machine, effects = item
            self._push(machine, effects)

    def _machine_live(self, machine: Any) -> bool:
        tid = getattr(machine, "tid", None)
        if tid is None:
            return False
        return (self.machines.get(tid) is machine
                or self.takeovers.get(tid) is machine)

    # ----------------------------------------------- effect execution

    def _apply(self, machine: Any, effect: Effect) -> None:
        if isinstance(effect, SendDatagram):
            self._flush_lazy(effect.dst)  # piggyback opportunity
            self.substrate.send(effect.dst, effect.message)
        elif isinstance(effect, MulticastDatagram):
            for dst in effect.dsts:
                self.substrate.send(dst, effect.message)
        elif isinstance(effect, LazySendDatagram):
            if effect.dst == self.site:
                self.substrate.send(effect.dst, effect.message)
            else:
                self._lazy.setdefault(effect.dst, []).append(effect.message)  # lint: bounded(flushed every sweep)
        elif isinstance(effect, ForceLog):
            lsn = self.substrate.append(effect.record)
            self._note_membership(effect.record)
            self._waiting = True
            self.substrate.force(
                lsn, lambda: self._force_done(machine, effect.token))
        elif isinstance(effect, WriteLog):
            lsn = self.substrate.append(effect.record)
            self._note_membership(effect.record)
            if effect.token is not None:
                token = effect.token
                self.substrate.watch_durable(
                    lsn, lambda: self._enqueue_call(machine, "on_log_durable",
                                                    token))
        elif isinstance(effect, LocalPrepare):
            # Async like the TranMan's data-server round trip: the rest
            # of this effect batch (e.g. a leader's prepare sends) runs
            # now; the vote re-enters via the inbox when it resolves.
            tid = effect.tid
            self.substrate.start_timer(
                self.prepare_delay_ms,
                lambda: self._local_prepared(machine, tid))
        elif isinstance(effect, (LocalCommit, LocalAbort)):
            kind = "commit" if isinstance(effect, LocalCommit) else "abort"
            self.substrate.trace(f"live.local_{kind}",
                                 {"tid": str(effect.tid)})
        elif isinstance(effect, Complete):
            self._complete(effect)
        elif isinstance(effect, Forget):
            self._forget(machine, effect.tid)
        elif isinstance(effect, StartTimer):
            key = (machine, effect.token)
            existing = self._timers.pop(key, None)
            if existing is not None:
                self.substrate.cancel_timer(existing)
            token = effect.token
            self._timers[key] = self.substrate.start_timer(  # lint: bounded(per live machine timer tokens)
                effect.delay_ms, lambda: self._fire_timer(machine, token))
        elif isinstance(effect, CancelTimer):
            handle = self._timers.pop((machine, effect.token), None)
            if handle is not None:
                self.substrate.cancel_timer(handle)
        elif isinstance(effect, StartTakeover):
            self._start_takeover(effect.tid)
        elif isinstance(effect, Trace):
            detail = {k: v for k, v in effect.detail.items() if k != "site"}
            self.substrate.trace(effect.kind, detail)
        else:
            raise ValueError(f"unknown effect {effect!r}")

    def _force_done(self, machine: Any, token: str) -> None:
        self._waiting = False
        if token in self.hold_force_tokens:
            # Deterministic kill window: the record is durable but the
            # machine never re-enters — exactly the state a crash
            # between fsync and continuation would leave behind.
            self.held.append(token)
            self.substrate.trace("live.force_held", {"token": token})
        else:
            self._push(machine, machine.on_log_forced(token) or [])
        self._pump()

    def _local_prepared(self, machine: Any, tid: TID) -> None:
        vote = self.scripted_votes.get(self.site, Vote.YES)
        if vote is Vote.READ_ONLY:
            self.read_only_votes.add(str(tid))  # lint: bounded(demo-scale host, no retire log)
        self.substrate.trace("live.local_prepared",
                             {"tid": str(tid), "vote": vote.value})
        self._enqueue_call(machine, "on_local_prepared", vote)

    def _enqueue_call(self, machine: Any, method: str, *args: Any) -> None:
        self._inbox.append(("call", machine, method, args))
        self._pump()

    def _fire_timer(self, machine: Any, token: str) -> None:
        self._timers.pop((machine, token), None)
        self._enqueue_call(machine, "on_timer", token)

    def _flush_lazy(self, dst: str) -> None:
        queued = self._lazy.pop(dst, None)
        if not queued:
            return
        for message in queued:
            self.substrate.send(dst, message)

    def _note_membership(self, record: LogRecord) -> None:
        if record.kind is RecordKind.ABORT_PLEDGE:
            self.pledges.add(record.tid)  # lint: bounded(demo-scale host, no retire log)
            sub = self.machines.get(TID.parse(record.tid))
            if isinstance(sub, NbSubordinate):
                sub.note_local_pledge()
        elif record.kind is RecordKind.REPLICATION:
            sub = self.machines.get(TID.parse(record.tid))
            if isinstance(sub, NbSubordinate):
                sub.note_local_replication()

    def _complete(self, effect: Complete) -> None:
        tid_str = str(effect.tid)
        self.tombstones[tid_str] = effect.outcome  # lint: bounded(demo-scale host, no retire log)
        self.completions[tid_str] = effect.outcome  # lint: bounded(demo-scale host, no retire log)
        self.substrate.trace("live.complete",
                             {"tid": tid_str, "outcome": effect.outcome.value})
        if self.on_complete is not None:
            self.on_complete(effect.tid, effect.outcome)

    def _forget(self, machine: Any, tid: TID) -> None:
        outcome = getattr(machine, "outcome", None)
        if outcome is not None:
            self.tombstones[str(tid)] = outcome  # lint: bounded(demo-scale host, no retire log)
        if self.machines.get(tid) is machine:
            del self.machines[tid]
        if self.takeovers.get(tid) is machine:
            del self.takeovers[tid]
        for key in [k for k in self._timers if k[0] is machine]:
            self.substrate.cancel_timer(self._timers.pop(key))

    def _start_takeover(self, tid: TID) -> None:
        if tid in self.takeovers:
            return
        sub = self.machines.get(tid)
        if isinstance(sub, (PcParticipant, PcLeader)):
            candidate = PcCandidate(
                tid, self.site, sub.sites, sub.acceptors, sub.quorum,
                poll_timeout_ms=self.cost.protocol_timeout / 2,
                notify_timeout_ms=self.cost.protocol_timeout)
            self.takeovers[tid] = candidate
            self.substrate.trace("live.takeover",
                                 {"tid": str(tid), "status": "paxos_election"})
            self._push(candidate, candidate.start())
            return
        if not isinstance(sub, NbSubordinate):
            return
        status, data = sub.status_report()
        takeover = NbTakeover(tid, self.site, sub.sites, sub.quorum,
                              own_status=status, own_decision_data=data,
                              poll_timeout_ms=self.cost.protocol_timeout / 2,
                              notify_timeout_ms=self.cost.protocol_timeout)
        self.takeovers[tid] = takeover
        self.substrate.trace("live.takeover",
                             {"tid": str(tid), "status": status})
        self._push(takeover, takeover.start())

    # ------------------------------------------------ message routing

    def _route(self, pmsg: Any) -> None:
        """Mirror of ``TransactionManager._on_datagram``."""
        tid: TID = pmsg.tid
        takeover = self.takeovers.get(tid)
        if takeover is not None and isinstance(pmsg, _TAKEOVER_ROUTED):
            self._push(takeover, takeover.on_message(pmsg) or [])
            return
        machine = self.machines.get(tid)
        if isinstance(pmsg, PcPhase2b) and pmsg.ballot != 0 \
                and takeover is not None:
            self._push(takeover, takeover.on_message(pmsg) or [])
            return
        if isinstance(pmsg, (NbOutcome, PcOutcome)):
            # Outcomes concern everyone at this site.  The participant
            # runs to quiescence first (frames drain before the inbox),
            # and only then does the takeover see the message — as the
            # next input, so its on_message is not called early either.
            if machine is None and takeover is None:
                self._stateless(pmsg)
                return
            if takeover is not None:
                self._inbox.appendleft(
                    ("call", takeover, "on_message", (pmsg,)))
            if machine is not None:
                self._push(machine, machine.on_message(pmsg) or [])
            return
        if machine is not None:
            self._push(machine, machine.on_message(pmsg) or [])
            return
        self._stateless(pmsg)

    def _spawn(self, machine: Any, effects: Sequence[Effect]) -> None:
        self.machines[machine.tid] = machine
        self._push(machine, effects)

    def _stateless(self, pmsg: Any) -> None:
        """Protocol edge for transactions with no live machine here.

        Mirrors ``TransactionManager._stateless`` with two deliberate
        deltas (documented in DESIGN.md §11): a fresh live site accepts
        any prepare (there is no application to have "begun" the
        transaction first), and a crash-recovered site refuses unknown
        transactions exactly as the TranMan's destroyed family state
        makes it do.
        """
        tid: TID = pmsg.tid
        tomb = self.tombstones.get(str(tid))
        timeout = self.cost.protocol_timeout
        if isinstance(pmsg, PrepareRequest):
            if tomb is Outcome.COMMITTED:
                self.substrate.send(pmsg.sender,
                                    CommitAck(tid=tid, sender=self.site))
            elif str(tid) in self.read_only_votes:
                self.substrate.send(pmsg.sender, VoteResponse(
                    tid=tid, sender=self.site, vote=Vote.READ_ONLY))
            elif tomb is Outcome.ABORTED or self.conservative:
                self.substrate.send(pmsg.sender, VoteResponse(
                    tid=tid, sender=self.site, vote=Vote.NO))
            else:
                sub = TwoPhaseSubordinate(tid, self.site, pmsg.sender,
                                          variant=pmsg.variant,
                                          outcome_timeout_ms=timeout)
                self._spawn(sub, sub.start())
        elif isinstance(pmsg, NbPrepare):
            if tomb is Outcome.COMMITTED:
                self.substrate.send(pmsg.sender,
                                    NbOutcomeAck(tid=tid, sender=self.site))
            elif str(tid) in self.read_only_votes:
                self.substrate.send(pmsg.sender, NbVote(
                    tid=tid, sender=self.site, vote=Vote.READ_ONLY))
            elif tomb is Outcome.ABORTED or (
                    self.conservative and str(tid) not in self.pledges):
                self.substrate.send(pmsg.sender, NbVote(
                    tid=tid, sender=self.site, vote=Vote.NO))
            else:
                sub = NbSubordinate(tid, self.site, pmsg.sender,
                                    list(pmsg.sites), pmsg.quorum,
                                    outcome_timeout_ms=timeout,
                                    already_pledged=str(tid) in self.pledges)
                self._spawn(sub, sub.start())
        elif isinstance(pmsg, CommitNotice):
            if tomb is Outcome.COMMITTED:
                self.substrate.send(pmsg.sender,
                                    CommitAck(tid=tid, sender=self.site))
        elif isinstance(pmsg, AbortNotice):
            pass  # nothing known, nothing to do (presumed abort)
        elif isinstance(pmsg, TxnInquiry):
            outcome = tomb if tomb is not None else Outcome.ABORTED
            self.substrate.send(pmsg.sender, InquiryResponse(
                tid=tid, sender=self.site, outcome=outcome))
        elif isinstance(pmsg, NbReplicate):
            self._stateless_replicate(pmsg, tomb)
        elif isinstance(pmsg, NbAbortJoin):
            self._stateless_abort_join(pmsg, tomb)
        elif isinstance(pmsg, NbStateRequest):
            if tomb is Outcome.COMMITTED:
                status = "committed"
            elif tomb is Outcome.ABORTED:
                status = "aborted"
            elif str(tid) in self.pledges:
                status = "abort_pledged"
            else:
                status = "no_state"
            self.substrate.send(pmsg.sender, NbStateReport(
                tid=tid, sender=self.site, status=status, round=pmsg.round))
        elif isinstance(pmsg, NbOutcome):
            self._check_tombstone(tid, tomb, pmsg.outcome)
            self.substrate.send(pmsg.sender,
                                NbOutcomeAck(tid=tid, sender=self.site))
        elif isinstance(pmsg, PcPrepare):
            self._stateless_prepare_pc(pmsg, tomb)
        elif isinstance(pmsg, (PcVote, PcP1a, PcP2a)):
            self._stateless_pc_acceptor(pmsg, tomb)
        elif isinstance(pmsg, PcOutcome):
            self._check_tombstone(tid, tomb, pmsg.outcome)
            self.substrate.send(pmsg.sender,
                                PcOutcomeAck(tid=tid, sender=self.site))
        elif isinstance(pmsg, (NestedCommit, FamilyAbort)):
            # Nested transactions and the family abort protocol need the
            # application/server layer the live host does not carry.
            if isinstance(pmsg, FamilyAbort):
                self.substrate.send(pmsg.sender,
                                    FamilyAbortAck(tid=tid, sender=self.site))
        elif isinstance(pmsg, _STALE_RESPONSES):
            pass  # stale response to a machine that already finished
        else:
            raise ValueError(f"unhandled datagram payload {pmsg!r}")

    def _check_tombstone(self, tid: TID, tomb: Optional[Outcome],
                         outcome: Outcome) -> None:
        if tomb is not None and tomb is not outcome:
            raise AssertionError(
                f"{tid}: outcome {outcome} conflicts with tombstone "
                f"{tomb} at {self.site}")

    def _stateless_replicate(self, pmsg: NbReplicate,
                             tomb: Optional[Outcome]) -> None:
        tid = pmsg.tid
        if str(tid) in self.pledges or tomb is Outcome.ABORTED:
            self.substrate.send(pmsg.sender, NbReplicateAck(
                tid=tid, sender=self.site, ok=False))
            return
        if tomb is Outcome.COMMITTED:
            self.substrate.send(pmsg.sender, NbReplicateAck(
                tid=tid, sender=self.site, ok=True))
            return
        helper = NbSubordinate.helper(
            tid, self.site, pmsg,
            outcome_timeout_ms=self.cost.protocol_timeout)
        self.machines[tid] = helper
        self._push(helper, helper.on_message(pmsg) or [])

    def _stateless_abort_join(self, pmsg: NbAbortJoin,
                              tomb: Optional[Outcome]) -> None:
        tid = pmsg.tid
        if tomb is Outcome.COMMITTED:
            self.substrate.send(pmsg.sender, NbAbortJoinAck(
                tid=tid, sender=self.site, ok=False))
            return
        if str(tid) in self.pledges or tomb is Outcome.ABORTED:
            self.substrate.send(pmsg.sender, NbAbortJoinAck(
                tid=tid, sender=self.site, ok=True))
            return
        # Durable pledge: force it, then acknowledge — via a one-shot
        # effect frame so the force waits inline like every other force.
        record = abort_pledge_record(str(tid), self.site)
        pledge_machine = _PledgeAck(self.site, pmsg)
        self._push(pledge_machine,
                   [ForceLog(record, _PledgeAck.TOKEN)])

    def _stateless_prepare_pc(self, pmsg: PcPrepare,
                              tomb: Optional[Outcome]) -> None:
        tid = pmsg.tid
        if tomb is Outcome.COMMITTED:
            self.substrate.send(pmsg.sender,
                                PcOutcomeAck(tid=tid, sender=self.site))
            return
        if str(tid) in self.read_only_votes:
            targets = [a for a in pmsg.acceptors if a != self.site]
            if pmsg.sender not in targets:
                targets.append(pmsg.sender)
            for dst in targets:
                self.substrate.send(dst, PcVote(
                    tid=tid, sender=self.site, vote=Vote.READ_ONLY,
                    leader=pmsg.sender, sites=pmsg.sites,
                    acceptors=pmsg.acceptors))
            return
        if tomb is Outcome.ABORTED:
            self.substrate.send(pmsg.sender, PcOutcome(
                tid=tid, sender=self.site, outcome=Outcome.ABORTED))
            return
        if self.conservative:
            # We may have voted READ_ONLY (volatile) before the crash; an
            # RM must never propose two ballot-0 values.  Stay silent and
            # let the leader's timeout or an election resolve us.
            return
        sub = PcParticipant(tid, self.site, pmsg.sender,
                            list(pmsg.sites), list(pmsg.acceptors),
                            QuorumSpec.paxos(len(pmsg.acceptors)),
                            protocol_timeout_ms=self.cost.protocol_timeout)
        self._spawn(sub, sub.start())

    def _stateless_pc_acceptor(self, pmsg: Any,
                               tomb: Optional[Outcome]) -> None:
        tid = pmsg.tid
        if tomb is not None:
            self.substrate.send(pmsg.sender, PcOutcome(
                tid=tid, sender=self.site, outcome=tomb))
            return
        if self.site not in pmsg.acceptors:
            return  # stale / misrouted: we owe no acceptor duties
        if not self.conservative:
            # Acceptor traffic overtook the leader's PcPrepare (votes
            # come from third-party RMs, so TCP FIFO does not order
            # them): spawn the full participant, then deliver.
            sub = PcParticipant(tid, self.site,
                                pmsg.leader or pmsg.sender,
                                list(pmsg.sites), list(pmsg.acceptors),
                                QuorumSpec.paxos(len(pmsg.acceptors)),
                                protocol_timeout_ms=self.cost.protocol_timeout)
            self.machines[tid] = sub
            self._push(sub, (sub.start() or []) + (sub.on_message(pmsg) or []))
            return
        sub = PcParticipant.recovered(
            tid, self.site, leader=pmsg.leader or pmsg.sender,
            sites=list(pmsg.sites), acceptors=list(pmsg.acceptors),
            prepared=False,
            protocol_timeout_ms=self.cost.protocol_timeout)
        self.machines[tid] = sub
        self.substrate.trace("live.acceptor_rebuilt",
                             {"tid": str(tid),
                              "kind_of": type(pmsg).__name__})
        self._push(sub, sub.on_message(pmsg) or [])


class _PledgeAck:
    """One-shot pseudo-machine: ack an NbAbortJoin once the pledge forced."""

    TOKEN = "live.pledge_force"

    def __init__(self, site: str, request: NbAbortJoin):
        self.tid = request.tid
        self._site = site
        self._request = request

    def on_log_forced(self, token: str) -> List[Effect]:
        if token != self.TOKEN:
            return []
        return [SendDatagram(self._request.sender, NbAbortJoinAck(
            tid=self._request.tid, sender=self._site, ok=True))]
