"""Data servers: recoverable objects behind a message interface.

A data server "manages" one or more objects (paper §2): it does storage
layout, implements the advertised operations, serialises access by
locking, and participates in commitment.  The first time it processes an
operation on behalf of a transaction it notifies the local transaction
manager that it is joining (paper Figure 1, event 4).  Updates report
the old and new value of the object to the disk manager, "logged as late
as possible" (event 5).

Message interface (all on the server's request port):

=================  =====================================================
kind               effect
=================  =====================================================
``operation``      read or write one object under a lock
``prepare``        vote YES / READ_ONLY / NO; report the max update LSN
``drop_locks``     top-level commit: release the family's locks
``abort``          undo a (sub)transaction subtree, drop its locks
``commit_child``   Moss inheritance: parent retains the child's locks
``peek``           non-transactional read (tests/examples)
=================  =====================================================
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from repro.config import CostModel
from repro.core.outcomes import Vote
from repro.core.tid import TID
from repro.log.records import update_record
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.ports import Port
from repro.mach.site import Site
from repro.mach.threads import CThreadsPool
from repro.servers.diskman import DiskManager
from repro.servers.lockmgr import LockManager, LockMode
from repro.sim.events import SimEvent, wait_with_deadline
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.tracing import Tracer


class DataServer:
    """One data server process (with a small handler thread pool)."""

    def __init__(self, kernel: Kernel, site: Site, name: str,
                 fabric: IpcFabric, diskman: DiskManager, cost: CostModel,
                 tracer: Tracer, tranman_port: Optional[Port] = None,
                 threads: int = 4,
                 initial_objects: Optional[Dict[str, Any]] = None,
                 read_only_optimization: bool = True):
        self.kernel = kernel
        self.site = site
        self.name = name
        # Ablation toggle: vote YES even when read-only, forcing full
        # phase-two participation (paper §4.2, question 2).
        self.read_only_optimization = read_only_optimization
        self.fabric = fabric
        self.diskman = diskman
        self.cost = cost
        self.tracer = tracer
        self.tranman_port = tranman_port

        self.values: Dict[str, Any] = dict(initial_objects or {})
        self.locks = LockManager()
        # Per-object undo stacks: (tid, old_value), newest last.
        self._undo: Dict[str, List[Tuple[TID, Any]]] = {}
        self._writes: Dict[TID, List[str]] = {}
        self._reads: Dict[TID, Set[str]] = {}
        self._joined: Set[TID] = set()
        self._max_update_lsn: Dict[TID, int] = {}
        self._min_update_lsn: Dict[TID, int] = {}
        # Test hook: force the next prepare for a TID to vote NO.
        self.refuse_next_prepare: Set[TID] = set()
        # Lock waits so far: staggers each waiter's timeout (see _lock).
        self._wait_seq = 0

        self.port = site.create_port(name)
        self.pool = CThreadsPool(
            kernel, self.port, self._handle, size=threads,
            name=f"{site.name}/{name}", spawn=site.spawn)
        self.operations = 0

    # --------------------------------------------------------- dispatch

    def _handle(self, msg: Message) -> Generator[Any, Any, None]:
        sid = self.tracer.begin_cpu(self.kernel.now, "server", self.site.name,
                                    msg)
        yield from self.site.consume_cpu(self.cost.server_service_cpu)
        self.tracer.end(sid, self.kernel.now)
        kind = msg.kind
        if kind == "operation":
            yield from self._op(msg)
        elif kind == "prepare":
            self._prepare(msg)
        elif kind == "drop_locks":
            self._drop_locks(msg)
        elif kind == "abort":
            yield from self._abort(msg)
        elif kind == "commit_child":
            self._commit_child(msg)
        elif kind == "peek":
            self.fabric.reply(msg, msg.reply(
                "peek_ok", value=self.values.get(msg.body["object"])))
        else:
            raise ValueError(f"{self.name}: unknown message kind {kind!r}")

    # ------------------------------------------------------- operations

    def _op(self, msg: Message) -> Generator[Any, Any, None]:
        tid = msg.body["tid"]
        op = msg.body["op"]
        obj = msg.body["object"]
        self.operations += 1
        if tid not in self._joined:
            self._join(tid)
        # "read_update" is SELECT-FOR-UPDATE: a read under a write lock,
        # avoiding the classic read-then-upgrade deadlock.
        mode = (LockMode.WRITE if op in ("write", "read_update")
                else LockMode.READ)
        granted = yield from self._lock(obj, tid, mode)
        if not granted:
            # Lock-wait timeout: this transaction is the deadlock (or
            # starvation) victim; the application is expected to abort.
            self.tracer.record(self.kernel.now, "server.lock_timeout",
                               site=self.site.name, object=obj,
                               tid=tid)
            self.fabric.reply(msg, msg.reply("op_failed",
                                             reason="lock timeout"))
            return
        yield Sleep(self.cost.data_access_write if op == "write"
                    else self.cost.data_access_read)
        if op in ("read", "read_update"):
            self._reads.setdefault(tid, set()).add(obj)
            self.fabric.reply(msg, msg.reply("op_ok",
                                             value=self.values.get(obj)))
            return
        if op != "write":
            raise ValueError(f"unknown operation {op!r}")
        old = self.values.get(obj)
        new = msg.body["value"]
        self._undo.setdefault(obj, []).append((tid, old))
        self.values[obj] = new
        self._writes.setdefault(tid, []).append(obj)
        # Event 5: report old and new value to the disk manager; the
        # record is logged lazily.
        record = self.diskman.append(update_record(
            str(tid), self.site.name, self.name, obj, old, new))
        self._max_update_lsn[tid] = max(
            self._max_update_lsn.get(tid, 0), record.lsn or 0)
        self._min_update_lsn.setdefault(tid, record.lsn or 0)
        self.diskman.touch_page(self.name, obj, new, record.lsn or 0)
        self.fabric.reply(msg, msg.reply("op_ok", value=new))

    def _join(self, tid: TID) -> None:
        """Notify the local TranMan we are taking part (event 4).

        Sent as a one-way message: it is off the operation's critical
        path, and port FIFO order guarantees the TranMan sees the join
        before any later commit request from the application.
        """
        self._joined.add(tid)
        if self.tranman_port is not None:
            join = Message(kind="join", body={"tid": tid,
                                              "server": self.name})
            self.fabric.send(self.tranman_port, join, flavour="oneway",
                             sender_site=self.site.name)
        self.tracer.record(self.kernel.now, "server.join", site=self.site.name,
                           server=self.name, tid=tid)

    def _lock(self, obj: str, tid: TID,
              mode: LockMode) -> Generator[Any, Any, bool]:
        """Acquire a lock; False on lock-wait timeout (victim)."""
        now = self.kernel.now
        self.tracer.add(now, now + self.cost.get_lock,
                        "lock.get", site=self.site.name, tid=tid, object=obj)
        yield Sleep(self.cost.get_lock)
        granted = SimEvent(self.kernel, name=f"{self.name}.lock.{obj}",
                           ignore_retrigger=True)
        if self.locks.acquire(obj, tid, mode,
                              on_grant=lambda: granted.trigger(True)):
            return True
        self.tracer.record(self.kernel.now, "server.lock_wait",
                           site=self.site.name, tid=tid, object=obj)
        wait_sid = self.tracer.begin(self.kernel.now, "lock.wait",
                                     site=self.site.name, tid=tid, object=obj)
        # Stagger the timeout deterministically per waiter, so two
        # deadlocked transactions never give up in the same instant and
        # one of them survives as the winner.
        self._wait_seq += 1
        digest = hashlib.sha256(
            f"{self.name}:{tid}:{self._wait_seq}".encode()).digest()
        stagger = 0.75 + 0.5 * (digest[0] / 255.0)
        won, __ = yield from wait_with_deadline(
            self.kernel, granted, self.cost.lock_wait_timeout * stagger,
            name=f"{self.name}.lockwait")
        self.tracer.end(wait_sid, self.kernel.now)
        if won:
            return True
        # Timed out: withdraw from the queue (unless granted in the
        # same instant — then we keep it).
        if not self.locks.cancel_wait(obj, tid):
            return True
        return False

    # ------------------------------------------------------- commitment

    def _prepare(self, msg: Message) -> None:
        tid = msg.body["tid"]
        family_writes = [t for t in self._writes
                         if t.family == tid.family and self._writes[t]]
        if tid in self.refuse_next_prepare:
            self.refuse_next_prepare.discard(tid)
            vote = Vote.NO
        elif family_writes or not self.read_only_optimization:
            vote = Vote.YES
        else:
            vote = Vote.READ_ONLY
        max_lsn = max((self._max_update_lsn.get(t, 0) for t in family_writes),
                      default=0)
        self.tracer.record(self.kernel.now, "server.prepare",
                           site=self.site.name, server=self.name,
                           vote=vote.value)
        self.fabric.reply(msg, msg.reply("prepare_ok", vote=vote,
                                         max_lsn=max_lsn))

    def _drop_locks(self, msg: Message) -> None:
        """Top-level commit: event 11, 'drop the locks held by the
        transaction'.  Values already reflect the updates."""
        tid = msg.body["tid"]
        self.locks.release_family(tid.family)
        self._forget_family(tid.family, keep_values=True)
        self.tracer.instant(self.kernel.now, "server.drop_locks",
                            site=self.site.name, tid=tid, server=self.name)
        if msg.reply_to is not None:
            self.fabric.reply(msg, msg.reply("drop_locks_ok"))

    def _abort(self, msg: Message) -> Generator[Any, Any, None]:
        """Undo the subtree rooted at tid and release its locks."""
        tid = msg.body["tid"]
        yield Sleep(self.cost.drop_lock)
        self.undo_subtree(tid)
        if tid.is_top_level:
            self.locks.release_family(tid.family)
            self._forget_family(tid.family, keep_values=True)
        else:
            self.locks.abort_subtree(tid)
        self.tracer.record(self.kernel.now, "server.abort",
                           site=self.site.name, server=self.name, tid=tid)
        if msg.reply_to is not None:
            self.fabric.reply(msg, msg.reply("abort_ok"))

    def undo_subtree(self, tid: TID) -> None:
        """Restore old values for writes by ``tid`` or descendants, in
        reverse order (correct even when interleaved with ancestors)."""
        for obj, stack in self._undo.items():
            keep: List[Tuple[TID, Any]] = []
            for writer, old in reversed(stack):
                if writer == tid or tid.is_ancestor_of(writer):
                    self.values[obj] = old
                else:
                    keep.append((writer, old))
            keep.reverse()
            self._undo[obj] = keep
        for t in list(self._writes):
            if t == tid or tid.is_ancestor_of(t):
                del self._writes[t]
                self._max_update_lsn.pop(t, None)
                self._min_update_lsn.pop(t, None)
        for t in list(self._reads):
            if t == tid or tid.is_ancestor_of(t):
                del self._reads[t]

    def _commit_child(self, msg: Message) -> None:
        # LockManager.commit_child refuses a top-level TID.
        self.locks.commit_child(msg.body["tid"])
        # The child's writes become the parent's for undo purposes: keep
        # the entries (they carry the child's TID, which remains a
        # descendant of every ancestor — subtree undo still finds them).

    def _forget_family(self, family: str, keep_values: bool) -> None:
        for table in (self._writes, self._reads, self._max_update_lsn,
                      self._min_update_lsn):
            for t in [t for t in table if t.family == family]:
                del table[t]
        for obj in list(self._undo):
            self._undo[obj] = [(t, old) for t, old in self._undo[obj]
                               if t.family != family]
            if not self._undo[obj]:
                del self._undo[obj]
        self._joined = {t for t in self._joined if t.family != family}

    # ------------------------------------------------------- inspection

    def peek(self, obj: str) -> Any:
        """Direct committed-value read for tests (no message round trip)."""
        return self.values.get(obj)

    def committed_view(self) -> Dict[str, Any]:
        """Object values with all uncommitted writes backed out — what a
        fuzzy checkpoint must record.

        Objects whose committed value is None (never-committed creations
        of in-flight transactions) are omitted: "absent" and "None" are
        the same observable state through the read API.
        """
        view = dict(self.values)
        for obj, stack in self._undo.items():
            if stack:
                # The oldest undo entry's old-value is the committed one.
                view[obj] = stack[0][1]
        return {obj: value for obj, value in view.items()
                if value is not None or obj not in self._undo}

    def oldest_active_lsn(self) -> int:
        """First LSN of any in-flight transaction's updates (0 if none);
        the log must be retained from here for recovery to see them."""
        if not self._min_update_lsn:
            return 0
        return min(self._min_update_lsn.values())

    def load_state(self, values: Dict[str, Any]) -> None:
        """Install recovered object values after a restart."""
        self.values = dict(values)
