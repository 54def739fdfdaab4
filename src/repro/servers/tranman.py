"""The transaction manager process (TranMan).

"The transaction manager is essentially a protocol processor; most calls
from applications or servers invoke one protocol or another" (paper §3).
This module is the simulated *engine* of that processor.  It hosts the
sans-IO machines of :mod:`repro.core.twophase`, ``nonblocking``,
``paxoscommit`` and ``abortproto``, and leaves every protocol decision
made around them to the :class:`~repro.core.edge.ProtocolEdge` it
shares with the live host:

- a request port drained by a **C-Threads-style pool** (size is the
  experimental parameter of Figures 4-5); every thread waits for any
  type of input — application calls, server joins, inbound datagrams —
  processes it, and resumes waiting (paper §3.4).  Nothing stands
  between the wire and the pool: an arriving protocol message goes on
  the port as itself, beside the Mach messages, and a pool thread
  tells the two apart by type;
- the **family descriptor hash table**, each family protected by its own
  lock so only same-family operations contend;
- the **primitives** the shared :mod:`repro.core.interpreter` executes
  machine effects through: datagrams, log forces through the disk
  manager, local server prepare/commit/abort rounds, timers.  A pool
  thread runs the interpreter's generator as its own, blocking in the
  simulator wherever that delegates to ``force`` or ``local_prepare``;
- the **kernel clock** the edge's retire log reads, so that its
  tombstones, pledges and read-only votes expire in simulated time.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Sequence, Set

from repro.config import CostModel
from repro.core.abortproto import AbortInitiator, AbortParticipant
from repro.core.edge import PIGGYBACK_SWEEP_MS, ProtocolEdge, Step
from repro.core.effects import LocalPrepare
from repro.core.family import FamilyTable
from repro.core.interpreter import Interpreter
from repro.core.messages import FamilyAbort, NestedCommit
from repro.core.nonblocking import NbProtocolViolation
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.tid import TID, TidGenerator
from repro.core.twophase import TwoPhaseSubordinate
from repro.log.records import LogRecord
from repro.mach.ipc import IpcFabric, ReplyHandle
from repro.mach.message import Message
from repro.mach.site import Site
from repro.mach.threads import CThreadsPool
from repro.net.datagram import DatagramService
from repro.servers.diskman import DiskManager
from repro.servers.recovery import RecoveryPlan, build_machines
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.resources import SimLock
from repro.sim.tracing import Tracer


class TransactionManager:
    """One site's TranMan."""

    def __init__(self, kernel: Kernel, site: Site, fabric: IpcFabric,
                 dgram: DatagramService, diskman: DiskManager,
                 cost: CostModel, tracer: Tracer,
                 threads: int = 20, use_multicast: bool = False):
        self.kernel = kernel
        self.site = site
        self.fabric = fabric
        self.dgram = dgram
        self.diskman = diskman
        self.cost = cost
        self.tracer = tracer
        self.use_multicast = use_multicast

        self.families = FamilyTable()
        self.family_locks: Dict[str, SimLock] = {}
        self.tid_gen = TidGenerator(site.name)
        # The edge owns the protocol tables; the names below are the
        # same objects, kept for chaos oracles, recovery and tests.
        self.edge = ProtocolEdge(
            site.name, cost,
            family_known=lambda tid: self.families.family_of(tid) is not None,
            txn_active=self._is_active, now=lambda: kernel.now)
        self.machines: Dict[TID, Any] = self.edge.machines
        self.takeovers: Dict[TID, Any] = self.edge.takeovers
        self.tombstones: Dict[str, Outcome] = self.edge.tombstones
        self.pledges: Set[str] = self.edge.pledges
        self.read_only_votes: Set[str] = self.edge.read_only_votes
        self.interp = Interpreter(self.edge, self, cost.protocol_timeout)
        # Three of its primitives are the substrate's own.  ``defer``:
        # another pool thread may be inside the participant machine's
        # effect batch, so a note runs after the running step.
        self.defer = kernel.post_soon
        self.start_timer = kernel.schedule
        self.watch_durable = diskman.watch_durable
        self._pending_calls: Dict[TID, Message] = {}
        self._abort_participant = AbortParticipant(site.name)
        # Local data servers by name; filled in by system assembly.
        self.servers: Dict[str, Any] = {}

        self.stats = {
            "begun": 0, "committed": 0, "aborted": 0,
            "nested_begun": 0, "nested_committed": 0, "nested_aborted": 0,
        }

        self.port = site.create_port("tranman")
        self.pool = CThreadsPool(
            kernel, self.port, self._handle, size=threads,
            name=f"{site.name}/tranman", spawn=site.spawn)
        dgram.receiver = self._take_datagram
        self._sweeper = site.spawn(self._piggyback_sweep(), "tranman.piggyback")
        self._orphan_reaper = site.spawn(self._orphan_sweep(),
                                         "tranman.orphans")
        site.on_crash.append(self._on_site_crash)

    # ------------------------------------------------------------ wiring

    def register_server(self, server: Any) -> None:
        self.servers[server.name] = server  # lint: bounded(bounded by the site's server count)

    def _family_lock(self, family: str) -> SimLock:
        lock = self.family_locks.get(family)
        if lock is None:
            lock = SimLock(self.kernel, name=f"{self.site.name}.fam.{family}")
            self.family_locks[family] = lock
        return lock

    def _take_datagram(self, pmsg: Any) -> None:
        """An arriving datagram goes straight onto the request port, so
        the one thread pool serves 'any type of input' as the paper
        describes.  Mail for a crashed incarnation is lost.  This is the
        last act of the arrival's kernel callback (``Lan._arrive`` or
        the loopback post), so a waiting thread runs in that turn."""
        if not self.port.dead:
            self.port.queue.hand_off(pmsg)

    def _piggyback_sweep(self) -> Generator[Any, Any, None]:
        """Flush lazily queued (piggybacked) messages periodically."""
        while True:
            yield Sleep(PIGGYBACK_SWEEP_MS)
            self.interp.sweep()

    def _orphan_sweep(self) -> Generator[Any, Any, None]:
        """Abort transactions whose coordinator evidently died.

        A family with no live protocol machine and no TranMan activity
        for ``orphan_timeout`` will never commit: its coordinator never
        started commitment (had it, a machine or tombstone would exist
        here).  Aborting locally is always safe before a YES vote —
        presumed abort lets a participant abort unilaterally at any time
        until it has voted.  Without this sweep, a coordinator crash
        before prepare strands its locks at every participant forever.
        """
        interval = max(self.cost.orphan_timeout / 4.0, 500.0)
        while True:
            yield Sleep(interval)
            now = self.kernel.now
            for family_name in self.families.active_families():
                fam = self.families.family(family_name)
                if fam is None or fam.empty:
                    continue
                if any(tid.family == family_name
                       for tid in self.machines):
                    continue
                if any(tid.family == family_name
                       for tid in self.takeovers):
                    continue
                last = max(d.last_activity for d in fam.transactions.values())
                if now - last < self.cost.orphan_timeout:
                    continue
                top = TID(family_name)
                self.tracer.record(now, "tranman.orphan_abort",
                                   site=self.site.name, tid=family_name)
                self.edge.note_outcome(family_name, Outcome.ABORTED)
                self.local_abort(top)
                self.families.forget_family(family_name)
                self.family_locks.pop(family_name, None)
                self.tid_gen.forget_family(family_name)

    def _is_active(self, tid: TID) -> bool:
        desc = self.families.descriptor(tid)
        return desc is not None and desc.active

    # --------------------------------------------------------- dispatch

    def _handle(self, msg: Any) -> Generator[Any, Any, None]:
        sid = self.tracer.begin_cpu(self.kernel.now, "tranman",
                                    self.site.name, msg, self.site.cpu)
        yield from self.site.consume_cpu(self.cost.tranman_service_cpu)
        self.tracer.end(sid, self.kernel.now)
        if not isinstance(msg, Message):
            yield from self._on_datagram(msg)
            return
        kind = msg.kind
        if kind == "begin_transaction":
            yield from self._begin(msg)
        elif kind == "join":
            yield from self._join(msg)
        elif kind == "commit_transaction":
            yield from self._commit(msg)
        elif kind == "abort_transaction":
            yield from self._abort(msg)
        else:
            raise ValueError(f"tranman: unknown message kind {kind!r}")

    # ----------------------------------------------- application calls

    def _begin(self, msg: Message) -> Generator[Any, Any, None]:
        parent = msg.body.get("parent")
        if parent is None:
            tid = self.tid_gen.new_top_level()
            self.stats["begun"] += 1
        else:
            parent_desc = self.families.descriptor(parent)
            if parent_desc is None or not parent_desc.active:
                self.fabric.reply(msg, msg.reply("begin_failed",
                                                 reason="unknown parent"))
                return
            tid = self.tid_gen.new_child(parent)
            self.stats["nested_begun"] += 1
        lock = self._family_lock(tid.family)
        yield from lock.acquire()
        try:
            desc = self.families.begin(tid)
            desc.last_activity = self.kernel.now
            desc.protocol = msg.body.get("protocol", ProtocolKind.TWO_PHASE)
        finally:
            lock.release()
        self.tracer.record(self.kernel.now, "tranman.begin",
                           site=self.site.name, tid=tid)
        self.fabric.reply(msg, msg.reply("begin_ok", tid=tid),
                          flavour="immediate")

    def _join(self, msg: Message) -> Generator[Any, Any, None]:
        tid = msg.body["tid"]
        server = msg.body["server"]
        lock = self._family_lock(tid.family)
        yield from lock.acquire()
        try:
            desc = self.families.descriptor(tid)
            if desc is None:
                # A remote transaction doing its first operation here:
                # the descriptor materialises on join.
                desc = self.families.begin(tid)
            desc.note_server_joined(server)
            desc.last_activity = self.kernel.now
        finally:
            lock.release()
        self.tracer.record(self.kernel.now, "tranman.join",
                           site=self.site.name, tid=tid, server=server)

    def note_remote_site(self, tid: TID, remote: str) -> None:
        """ComMan spying, request direction."""
        desc = self.families.descriptor(tid)
        if desc is None:
            desc = self.families.begin(tid)
        desc.note_sites([remote])
        desc.last_activity = self.kernel.now

    def note_remote_sites(self, tid: TID, remotes: Sequence[str]) -> None:
        """ComMan spying, response direction (merged site lists)."""
        desc = self.families.descriptor(tid)
        if desc is None:
            desc = self.families.begin(tid)
        desc.note_sites(list(remotes))
        desc.last_activity = self.kernel.now

    def known_sites(self, tid: TID) -> Set[str]:
        fam = self.families.family_of(tid)
        if fam is None:
            return set()
        return fam.all_sites()

    # ------------------------------------------------------- commitment

    def _commit(self, msg: Message) -> Generator[Any, Any, None]:
        tid = msg.body["tid"]
        desc = self.families.descriptor(tid)
        if desc is None or not desc.active:
            self.fabric.reply(msg, msg.reply("commit_failed",
                                             reason="unknown transaction"))
            return
        if not tid.is_top_level:
            self._commit_nested(tid, msg)
            return
        protocol = msg.body.get("protocol", desc.protocol)
        variant = msg.body.get("variant", TwoPhaseVariant.OPTIMIZED)
        self._pending_calls[tid] = msg
        machine = self.edge.coordinator(
            tid, self.families.family_of(tid).all_sites(), protocol,
            variant=variant,
            quorum_policy=msg.body.get("quorum_policy", "majority"),
            use_multicast=self.use_multicast)
        self.tracer.record(self.kernel.now, "tranman.commit_call",
                           site=self.site.name, tid=tid,
                           protocol=protocol.value,
                           subs=len(machine.subordinates))
        yield from self.interp.run(machine, machine.start())

    def _commit_nested(self, tid: TID, msg: Message) -> None:
        """Moss subtransaction commit: volatile, relative to the parent."""
        desc = self.families.descriptor(tid)
        desc.outcome = Outcome.COMMITTED
        self.stats["nested_committed"] += 1
        # Local lock inheritance at every server the family touched.
        self._tell_servers(tid, "commit_child")
        # Remote inheritance: one (lazy) datagram per involved site.
        for remote in sorted(desc.sites_used):
            self.interp.send_lazily(
                remote, NestedCommit(tid=tid, sender=self.site.name))
        self.fabric.reply(msg, msg.reply("commit_ok",
                                         outcome=Outcome.COMMITTED))

    def _abort(self, msg: Message) -> Generator[Any, Any, None]:
        tid = msg.body["tid"]
        desc = self.families.descriptor(tid)
        if desc is None or not desc.active:
            self.fabric.reply(msg, msg.reply("abort_failed",
                                             reason="unknown transaction"))
            return
        machine = self.machines.get(tid)
        if machine is not None and hasattr(machine, "abort_now"):
            if getattr(machine, "outcome", None) is not None:
                # Commitment already decided: the abort loses the race.
                self.fabric.reply(msg, msg.reply(
                    "abort_failed", reason="already decided"))
                return
            try:
                effects = machine.abort_now()
            except NbProtocolViolation:
                # Non-blocking commit past the replication phase: only
                # the quorum machinery may exclude commit now.
                self.fabric.reply(msg, msg.reply(
                    "abort_failed", reason="replication phase begun"))
                return
            # The commit call is the family's pending call and hears the
            # abort through it; this call is answered once it has run.
            yield from self.interp.run(machine, effects)
            self.fabric.reply(msg, msg.reply("commit_aborted",
                                             outcome=Outcome.ABORTED))
            return
        if not tid.is_top_level:
            self.stats["nested_aborted"] += 1
            desc.outcome = Outcome.ABORTED
        fam = self.families.family_of(tid)
        known = sorted(fam.all_sites() - {self.site.name}) if fam else []
        initiator = AbortInitiator(tid, self.site.name, known)
        self.machines[tid] = initiator
        self._pending_calls[tid] = msg
        yield from self.interp.run(initiator, initiator.start())

    # ----------------------------------------------- datagram dispatch

    def _on_datagram(self, pmsg: Any) -> Generator[Any, Any, None]:
        self.tracer.record(self.kernel.now, "tranman.dgram_in",
                           site=self.site.name, kind_of=type(pmsg).__name__)
        if self.edge.for_servers(pmsg):
            if isinstance(pmsg, NestedCommit):
                self._tell_servers(pmsg.tid, "commit_child")
            else:
                yield from self._on_family_abort(pmsg)
            return
        yield from self.interp.deliver(pmsg)

    def _on_family_abort(self, pmsg: FamilyAbort) -> Generator[Any, Any, None]:
        known = sorted(self.known_sites(pmsg.tid) - {self.site.name})
        effects = self._abort_participant.on_abort(pmsg, known)
        yield from self.interp.run(None, effects)
        desc = self.families.descriptor(pmsg.tid)
        if desc is not None:
            desc.outcome = Outcome.ABORTED

    # ------- the interpreter's primitives (repro.core.interpreter.Engine)

    def send(self, dst: str, message: Any) -> None:
        self.dgram.send(dst, message)

    def multicast(self, dsts: Sequence[str], message: Any) -> None:
        self.dgram.multicast(list(dsts), message)

    def append(self, record: LogRecord) -> int:
        lsn = self.diskman.append(record).lsn
        assert lsn is not None
        return lsn

    def force(self, lsn: int, record: LogRecord,
              token: str) -> Generator[Any, Any, None]:
        sid = self.tracer.begin(self.kernel.now, "log.force",
                                site=self.site.name, tid=record.tid or None,
                                record_kind=record.kind.value)
        yield from self.diskman.force(lsn)
        self.tracer.end(sid, self.kernel.now)

    def trace(self, kind: str, detail: Dict[str, Any]) -> None:
        self.tracer.record(self.kernel.now, kind, site=self.site.name,
                           **detail)

    def spawn(self, step: Step, label: str) -> None:
        """A timer or durability notice: its machine is entered now, in
        the kernel callback; any effects run on a thread of their own."""
        if not self.site.alive:
            return
        machine, thunk = step
        more = thunk()
        if more:
            self.site.spawn(self.interp.run(machine, more),
                            f"tranman.{label}")

    # ------------------------------------------------- local participant

    def local_prepare(self, machine: Any, effect: LocalPrepare
                      ) -> Generator[Any, Any, Vote]:
        """The data-server round, awaited inline on this pool thread:
        every joined server is asked at once, and the round ends at the
        last reply."""
        tid = effect.tid
        fam = self.families.family_of(tid)
        servers = sorted(fam.all_servers()) if fam is not None else []
        votes: List[Vote] = []
        if not servers:
            combined = Vote.READ_ONLY
        else:
            asked: List[ReplyHandle] = []
            for name in servers:
                server = self.servers.get(name)
                if server is None:
                    votes.append(Vote.NO)
                    continue
                asked.append(self.fabric.ask(
                    server.port, Message(kind="prepare", body={"tid": tid}),
                    sender_site=self.site.name))
            for handle in asked:
                votes.append((yield handle.event).body["vote"])
            combined = _combine_votes(votes)
        self.tracer.record(self.kernel.now, "tranman.local_prepared",
                           site=self.site.name, tid=tid,
                           vote=combined.value)
        return combined

    def _tell_servers(self, tid: TID, kind: str) -> None:
        """One-way ``kind`` to every local server the family joined."""
        fam = self.families.family_of(tid)
        if fam is None:
            return
        for name in sorted(fam.all_servers()):
            server = self.servers.get(name)
            if server is None:
                continue
            msg = Message(kind=kind, body={"tid": tid})
            self.fabric.send(server.port, msg, flavour="oneway",
                             sender_site=self.site.name)

    def local_commit(self, tid: TID) -> None:
        """Event 11: tell joined servers to drop the family's locks."""
        self._tell_servers(tid, "drop_locks")

    def local_abort(self, tid: TID) -> None:
        self._tell_servers(tid, "abort")

    # ------------------------------------------------------ completions

    def completed(self, tid: TID, outcome: Outcome) -> None:
        if tid.is_top_level:
            if outcome is Outcome.COMMITTED:
                self.stats["committed"] += 1
            else:
                self.stats["aborted"] += 1
        call = self._pending_calls.pop(tid, None)
        self.tracer.instant(self.kernel.now, "tranman.complete",
                            site=self.site.name, tid=tid,
                            outcome=outcome.value)
        if call is not None:
            self.fabric.reply(call, call.reply(
                "commit_ok" if outcome is Outcome.COMMITTED
                else "commit_aborted",
                outcome=outcome))

    def forgotten(self, tid: TID) -> None:
        # Family state goes when the top-level transaction resolves (and
        # no takeover for it is still notifying peers).
        if tid.is_top_level and tid not in self.takeovers:
            self.families.forget_family(tid.family)
            self.family_locks.pop(tid.family, None)
            self.tid_gen.forget_family(tid.family)

    def _on_site_crash(self) -> None:
        """Volatile state dies with the site: timers, queues, machines."""
        self.interp.reset()
        self.machines.clear()
        self.takeovers.clear()
        self._pending_calls.clear()

    def heuristic_resolve(self, tid: TID, outcome: Outcome) -> None:
        """Operator/program resolution of a blocked transaction (the LU
        6.2-style "heuristic commit" of the paper's related work): drop
        the locks now by guessing the outcome.  If the coordinator later
        decides the other way, the machine reports *heuristic damage*
        (``2pc.heuristic_damage`` in the trace) — correctness is
        explicitly not guaranteed, which is the feature's whole trade.
        """
        machine = self.machines.get(tid)
        if not isinstance(machine, TwoPhaseSubordinate):
            raise ValueError(
                f"{tid}: no blocked two-phase subordinate at {self.site.name}")
        effects = machine.heuristic_resolve(outcome)
        self.site.spawn(self.interp.run(machine, effects),
                        "tranman.heuristic")

    def recover_from_plan(self, plan: RecoveryPlan) -> None:
        """Adopt a recovery plan built from the durable log, as SiteHost
        does: each rebuilt machine resumes on a thread of its own."""
        self.edge.restore(plan.tombstones, plan.pledges)
        for machine, resume in build_machines(plan, self.site.name):
            self.edge.adopt(machine)
            self.site.spawn(self.interp.run(machine, list(resume)),
                            "tranman.recovered")


def _combine_votes(votes: List[Vote]) -> Vote:
    if any(v is Vote.NO for v in votes):
        return Vote.NO
    if any(v is Vote.YES for v in votes):
        return Vote.YES
    return Vote.READ_ONLY
