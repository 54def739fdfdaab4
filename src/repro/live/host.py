"""The live engine: the shared effect interpreter over real IO.

:class:`SiteHost` hosts the unmodified sans-IO protocol machines under
the :class:`~repro.core.edge.ProtocolEdge` and the
:class:`~repro.core.interpreter.Interpreter` it shares with the
simulated TranMan; what is left here is a concurrency model, and the
interpreter's primitives over a small :class:`Substrate` — send a
datagram, force the WAL it carries, arm a timer.  The simulator harness
(:mod:`repro.live.simhost`) plugs the deterministic kernel + token-ring
LAN into that interface; the live harness (:mod:`repro.live.site`)
plugs asyncio TCP + an fsync-backed WAL file.

Concurrency model (what makes transcripts comparable): one inbox, one
input at a time per transaction family — the TranMan's per-family lock
rule.  An input (message, timer, durability notice, local vote) is an
interpreter generator keyed by its TID's family; it runs to quiescence —
parked on ``substrate.force`` wherever it waits for the log, resumed
from the callback — before the next input *of its family* starts.  A
parked input holds only its family: later inputs of that family wait
behind it in arrival order, and inputs of every other family run on, so
one site can have many forces in flight for its substrate to write
together.  The TranMan differs in this: its pool threads run inputs side
by side, two of one family included, and await the local prepare inline
(DESIGN.md §11 lists what follows from that).

The host itself is pure sans-IO: no asyncio, no sockets, and no clock
but ``substrate.now``, which its edge's retire log reads.  The
``live-io-fence`` lint rule would allow them here, but keeping the
engine substrate-blind is the whole point.

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
from functools import partial
from typing import (Any, Callable, Deque, Dict, List, Optional, Protocol,
                    Sequence, Set, Tuple)

from repro.config import CostModel
from repro.core.edge import PIGGYBACK_SWEEP_MS, ProtocolEdge, Step
from repro.core.effects import LocalPrepare
from repro.core.interpreter import WITHHELD, Interpreter, Run, Wait
from repro.core.messages import FamilyAbort, FamilyAbortAck
from repro.core.outcomes import PROTOCOLS, Outcome, ProtocolKind, Vote
from repro.core.tid import TID, TidGenerator
from repro.log.records import LogRecord
from repro.log.storage import LogTail
from repro.servers.recovery import RecoveryPlan, build_machines


class Substrate(Protocol):
    """What a harness must provide (see module docstring).  The host
    appends to and watches ``wal`` itself; ``force`` makes its prefix up
    to ``lsn`` durable, in the harness's own time, then calls ``done``.
    A timer handle is stopped by its own ``cancel()``; ``now`` and
    ``start_timer`` delays are protocol milliseconds, virtual or real."""

    wal: LogTail

    def now(self) -> float: ...
    def send(self, dst: str, message: Any) -> None: ...
    def force(self, lsn: int, done: Callable[[], None]) -> None: ...
    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any: ...
    def trace(self, kind: str, detail: Dict[str, Any]) -> None: ...


class SiteHost:
    """One site's machines, edge and interpreter over a substrate."""

    def __init__(self, site: str, substrate: Substrate, cost: CostModel,
                 votes: Optional[Dict[str, Vote]] = None,
                 hold_force_tokens: Sequence[str] = (),
                 prepare_delay_ms: float = 0.0):
        self.site = site
        self.substrate = substrate
        self.scripted_votes = dict(votes or {})
        self.hold_force_tokens = set(hold_force_tokens)
        self.prepare_delay_ms = prepare_delay_ms

        self.tid_gen = TidGenerator(site)
        # A host that recovered from a non-empty WAL lost volatile state
        # in a crash: no transaction's family is known here any more.
        self.conservative = False
        # The edge owns the protocol tables and their retire log; the
        # names below are the same objects, kept for drivers.
        self.edge = ProtocolEdge(
            site, cost, family_known=lambda tid: not self.conservative,
            txn_active=lambda tid: False, now=substrate.now)
        self.machines: Dict[TID, Any] = self.edge.machines
        self.takeovers: Dict[TID, Any] = self.edge.takeovers
        self.tombstones: Dict[str, Outcome] = self.edge.tombstones
        self.pledges: Set[str] = self.edge.pledges
        self.completions: Dict[str, Outcome] = self.edge.completions
        self.held: List[str] = []
        # Stays 0, kept for status readers: a retransmission must reach
        # its machine to be answered again, so none is suppressed.
        self.duplicates = 0
        self.on_complete: Optional[Callable[[TID, Outcome], None]] = None

        self.interp = Interpreter(self.edge, self, cost.protocol_timeout)
        # These primitives are the substrate's, and its WAL's, own.
        self.send = substrate.send
        self.watch_durable = substrate.wal.watch_durable
        self.start_timer = substrate.start_timer
        self.trace = substrate.trace
        # Inputs to run, each with its family and the answer it resumes
        # with; and each family parked on a force, with the inputs that
        # arrived for it since, in order.
        self._inbox: Deque[Tuple[str, Run, Any]] = deque()
        self._parked: Dict[str, Deque[Run]] = {}
        self._active = False
        self._sweep_handle: Any = None

    # ------------------------------------------------------- lifecycle

    def start_sweeps(self) -> None:
        """Arm the periodic piggyback/WAL-tail flush (re-arms itself)."""
        self._sweep_handle = self.substrate.start_timer(PIGGYBACK_SWEEP_MS, self._sweep)

    def stop_sweeps(self) -> None:
        if self._sweep_handle is not None:
            self._sweep_handle.cancel()
            self._sweep_handle = None

    def _sweep(self) -> None:
        wal = self.substrate.wal
        if wal.last_lsn > wal.durable_lsn:
            # Lazy records become durable eventually; nobody waits.
            self.substrate.force(wal.last_lsn, lambda: None)
        self.interp.sweep()
        self.start_sweeps()

    @property
    def idle(self) -> bool:
        return (not self.machines and not self.takeovers
                and not self.interp.lazy_pending
                and not self._inbox and not self._parked)

    # ----------------------------------------------------- driver API

    def begin_commit(self, protocol: str, subordinates: Sequence[str],
                     tid: Optional[TID] = None) -> TID:
        """Start commitment as coordinator; returns the transaction id."""
        if tid is None:
            tid = self.tid_gen.new_top_level()
        machine = self.edge.coordinator(
            tid, subordinates,
            PROTOCOLS.get(protocol) or ProtocolKind(protocol))
        self._enqueue(tid, self.interp.run(machine, machine.start()))
        return tid

    def recover_from_plan(self, plan: RecoveryPlan) -> None:
        """Adopt a recovery plan built from the durable WAL prefix."""
        self.edge.restore(plan.tombstones, plan.pledges)
        self.conservative = True
        for machine, resume in build_machines(plan, self.site):
            self.edge.adopt(machine)
            self._inbox.append((machine.tid.family,
                                self.interp.run(machine, list(resume)), None))
        self._pump()

    def deliver(self, src: str, message: Any) -> None:
        """One datagram from the substrate."""
        self._enqueue(message.tid, self._route(message))

    def _route(self, pmsg: Any) -> Run:
        if self.edge.for_servers(pmsg):
            # Nested transactions and the family abort protocol need the
            # application/server layer the live host does not carry.
            if isinstance(pmsg, FamilyAbort):
                self.send(pmsg.sender, FamilyAbortAck(
                    tid=pmsg.tid, sender=self.site))
            return
        yield from self.interp.deliver(pmsg)

    # --------------------------------------------------------- engine

    def _enqueue(self, tid: TID, run: Run) -> None:
        self._inbox.append((tid.family, run, None))
        self._pump()

    def _pump(self) -> None:
        if self._active:
            return
        self._active = True
        inbox, parked = self._inbox, self._parked
        try:
            while inbox:
                family, run, answer = inbox.popleft()
                behind = parked.get(family)
                if behind is not None:
                    behind.append(run)
                    continue
                try:
                    lsn, token = run.send(answer)
                except StopIteration:
                    continue
                parked[family] = deque()
                self.substrate.force(
                    lsn, partial(self._force_done, family, run, token))
        finally:
            self._active = False

    def _force_done(self, family: str, run: Run, token: str) -> None:
        answer: Any = None
        if token in self.hold_force_tokens:
            # Deterministic kill window: the record is durable but the
            # machine never re-enters — exactly the state a crash
            # between fsync and continuation would leave behind.
            self.held.append(token)
            self.substrate.trace("live.force_held", {"token": token})
            answer = WITHHELD
        # The parked run goes on first, then what queued behind it, all
        # ahead of anything of that family still to arrive.
        inbox = self._inbox
        for later in reversed(self._parked.pop(family)):
            inbox.appendleft((family, later, None))
        inbox.appendleft((family, run, answer))
        self._pump()

    # ------- the interpreter's primitives (repro.core.interpreter.Engine)

    def multicast(self, dsts: Sequence[str], message: Any) -> None:
        for dst in dsts:
            self.send(dst, message)

    def append(self, record: LogRecord) -> int:
        self.substrate.wal.append(record)
        assert record.lsn is not None
        return record.lsn

    def force(self, lsn: int, record: LogRecord, token: str) -> Wait:
        return (yield lsn, token)  # _pump parks on it, and answers

    def defer(self, note: Callable[[], None]) -> None:
        # One input at a time per family: the note's co-resident machine
        # is of the running input's family, so it is mid-step nowhere.
        note()

    def spawn(self, step: Step, label: str) -> None:
        self._enqueue(step[0].tid, self.interp.steps((step,)))

    def local_prepare(self, machine: Any, effect: LocalPrepare) -> None:
        # Async, unlike the TranMan's awaited data-server round trip:
        # the rest of this effect batch (e.g. a leader's prepare sends)
        # runs now; the vote re-enters via the inbox when it resolves —
        # at once, behind this input, when there is no delay to wait.
        if not self.prepare_delay_ms:
            self._local_prepared(machine, effect.tid)
            return
        self.substrate.start_timer(
            self.prepare_delay_ms,
            partial(self._local_prepared, machine, effect.tid))

    def _local_prepared(self, machine: Any, tid: TID) -> None:
        vote = self.scripted_votes.get(self.site, Vote.YES)
        self.substrate.trace("live.local_prepared",
                             {"tid": str(tid), "vote": vote.value})
        self._enqueue(tid, self.interp.local_prepared(machine, tid, vote))

    def local_commit(self, tid: TID) -> None:
        self.substrate.trace("live.local_commit", {"tid": str(tid)})

    def local_abort(self, tid: TID) -> None:
        self.substrate.trace("live.local_abort", {"tid": str(tid)})

    def completed(self, tid: TID, outcome: Outcome) -> None:
        self.edge.note_completion(str(tid), outcome)
        self.substrate.trace("live.complete",
                             {"tid": str(tid), "outcome": outcome.value})
        if self.on_complete is not None:
            self.on_complete(tid, outcome)

    def forgotten(self, tid: TID) -> None:
        """Nothing beyond the edge's tables: no family state here."""
