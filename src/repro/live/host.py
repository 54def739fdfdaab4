"""The effect interpreter shared by the simulated and live harnesses.

:class:`SiteHost` hosts the unmodified sans-IO protocol machines
(:mod:`repro.core.twophase` / ``nonblocking`` / ``paxoscommit``) and
interprets their effects through a small :class:`Substrate` interface —
send a datagram, append/force the WAL, arm a timer.  The simulator
harness (:mod:`repro.live.simhost`) plugs the deterministic kernel +
token-ring LAN into that interface; the live harness
(:mod:`repro.live.site`) plugs asyncio TCP + an fsync-backed WAL file.
Everything above the interface is this one class, so the conformance
harness compares *substrates*, never two reimplementations of the host.
Every protocol decision made around the machines (coordinator choice,
datagram routing, the stateless edge, takeovers) is the
:class:`~repro.core.edge.ProtocolEdge` this host shares with the
simulated TranMan; what is left here is an execution engine.

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
configured), ``LocalCommit``/``LocalAbort`` are traced no-ops and
nested-commit / family-abort traffic is acknowledged but not acted on.
A fresh live site treats every transaction's family as known (no
application could have "begun" it first); one that recovered from a
non-empty WAL treats none as known, so the edge refuses prepares for
unknown transactions (vote NO / stay silent) as it does for a TranMan
whose volatile family state a crash destroyed.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Sequence, Set, Tuple

from repro.config import CostModel
from repro.core.edge import PIGGYBACK_SWEEP_MS, ProtocolEdge, Step
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
from repro.core.messages import FamilyAbort, FamilyAbortAck
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.tid import TID, TidGenerator
from repro.log.records import LogRecord
from repro.servers.recovery import RecoveryPlan, build_machines

# Same dedup memory as DatagramService.
DEDUP_WINDOW = 4096

# The short protocol names the drivers and the control channel use.
_PROTOCOLS = {"2pc": ProtocolKind.TWO_PHASE,
              "nb": ProtocolKind.NON_BLOCKING,
              "paxos": ProtocolKind.PAXOS_COMMIT}


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
        # A host that recovered from a non-empty WAL lost volatile state
        # in a crash: no transaction's family is known here any more.
        self.conservative = False
        # The edge owns the protocol tables (no retire log: demo-scale
        # host); the names below are the same objects, kept for drivers.
        self.edge = ProtocolEdge(
            site, cost.protocol_timeout,
            family_known=lambda tid: not self.conservative,
            txn_active=lambda tid: False, recorded=lambda tid_str: None)
        self.machines: Dict[TID, Any] = self.edge.machines
        self.takeovers: Dict[TID, Any] = self.edge.takeovers
        self.tombstones: Dict[str, Outcome] = self.edge.tombstones
        self.pledges: Set[str] = self.edge.pledges
        self.read_only_votes: Set[str] = self.edge.read_only_votes
        self.completions: Dict[str, Outcome] = {}
        self.held: List[str] = []
        self.duplicates = 0
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
        self._sweep_handle = self.substrate.start_timer(PIGGYBACK_SWEEP_MS, self._sweep)

    def stop_sweeps(self) -> None:
        if self._sweep_handle is not None:
            self.substrate.cancel_timer(self._sweep_handle)
            self._sweep_handle = None

    def _sweep(self) -> None:
        self.substrate.force_tail()
        for dst in list(self._lazy):
            self._flush_lazy(dst)
        self.start_sweeps()

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
        machine = self.edge.coordinator(
            tid, subordinates,
            _PROTOCOLS.get(protocol) or ProtocolKind(protocol),
            variant=variant)
        self._inbox.append(("effects", machine, machine.start()))
        self._pump()
        return tid

    def recover_from_plan(self, plan: RecoveryPlan) -> None:
        """Adopt a recovery plan built from the durable WAL prefix."""
        self.edge.restore(plan.tombstones, plan.pledges)
        self.conservative = True
        for machine, resume in build_machines(
                plan, self.site, protocol_timeout_ms=self.cost.protocol_timeout):
            self.edge.adopt(machine)
            self._inbox.append(("effects", machine, list(resume)))
        self._pump()

    # -------------------------------------------------------- inbound

    def deliver(self, src: str, message: Any) -> None:
        """One datagram from the substrate, deduplicated by its key."""
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
            if method == "on_timer" and not self.edge.is_live(machine):
                return
            self._push(machine, getattr(machine, method)(*args) or [])
        elif kind == "step":
            _, machine, thunk = item
            self._push(machine, thunk())
        elif kind == "effects":
            _, machine, effects = item
            self._push(machine, effects)

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
            self.edge.note_read_only(str(tid))
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
        note = self.edge.note_membership(record)
        if note is not None:
            note()  # one input at a time: no machine is mid-step

    def _complete(self, effect: Complete) -> None:
        tid_str = str(effect.tid)
        self.edge.note_outcome(tid_str, effect.outcome)
        self.completions[tid_str] = effect.outcome  # lint: bounded(demo-scale host, no retire log)
        self.substrate.trace("live.complete",
                             {"tid": tid_str, "outcome": effect.outcome.value})
        if self.on_complete is not None:
            self.on_complete(effect.tid, effect.outcome)

    def _forget(self, machine: Any, tid: TID) -> None:
        self.edge.forget(machine, tid)
        for key in [k for k in self._timers if k[0] is machine]:
            self.substrate.cancel_timer(self._timers.pop(key))

    def _start_takeover(self, tid: TID) -> None:
        self._run_steps(self.edge.start_takeover(tid))

    # ------------------------------------------------ message routing

    def _route(self, pmsg: Any) -> None:
        if self.edge.for_servers(pmsg):
            # Nested transactions and the family abort protocol need the
            # application/server layer the live host does not carry.
            if isinstance(pmsg, FamilyAbort):
                self.substrate.send(pmsg.sender, FamilyAbortAck(
                    tid=pmsg.tid, sender=self.site))
            return
        replies, steps = self.edge.route(pmsg)
        for dst, message in replies:
            self.substrate.send(dst, message)
        self._run_steps(steps)

    def _run_steps(self, steps: Sequence[Step]) -> None:
        """Run the first step now; each later one becomes the next input
        at the head of the inbox, so its thunk is not even called until
        the step before it has run to quiescence, force waits included
        (frames drain before the inbox)."""
        for machine, thunk in reversed(steps[1:]):
            self._inbox.appendleft(("step", machine, thunk))
        if steps:
            machine, thunk = steps[0]
            self._push(machine, thunk())
