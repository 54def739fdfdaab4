"""Application processes: the public face of the transaction interface.

An application "initiates a transaction by getting a transaction
identifier from the transaction manager and then performs data
manipulation operations by making synchronous inter-process procedure
calls to any number of data servers, local or remote ...  Eventually,
the application orders the transaction manager to either commit or
abort" (paper §2).

:class:`Application` provides those calls as process-body coroutines;
the :class:`~repro.core.tid.TID` that ``begin`` returns names the
transaction in every later call::

    tid = yield from app.begin()
    yield from app.write(tid, "server0@b", "alice", 90)
    outcome = yield from app.commit(tid)
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Generator, List, Optional

from repro.config import CostModel
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant
from repro.core.tid import TID
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.ports import Port
from repro.mach.site import Site
from repro.servers.comman import CommunicationManager
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer


class TransactionAborted(Exception):
    """Raised by operations/commit when the transaction cannot proceed."""

    def __init__(self, tid: TID, reason: str = ""):
        super().__init__(f"{tid} aborted{': ' + reason if reason else ''}")
        self.tid = tid
        self.reason = reason


@dataclass
class TxnRecord:
    """Client-side log of one transaction (used by benchmarks)."""

    tid: TID
    began_at: float
    commit_called_at: Optional[float] = None
    committed_at: Optional[float] = None
    outcome: Optional[Outcome] = None
    operations: int = 0

    @property
    def latency_ms(self) -> Optional[float]:
        if self.committed_at is None:
            return None
        return self.committed_at - self.began_at

    @property
    def commit_latency_ms(self) -> Optional[float]:
        """Commit-call to return: the transaction-management phase only."""
        if self.committed_at is None or self.commit_called_at is None:
            return None
        return self.committed_at - self.commit_called_at


class Application:
    """One application's connection to Camelot on its site."""

    def __init__(self, kernel: Kernel, site: Site, fabric: IpcFabric,
                 comman: CommunicationManager, tranman_port: Port,
                 cost: CostModel, tracer: Tracer, name: str = "app",
                 keep_history: bool = True):
        self.kernel = kernel
        self.site = site
        self.fabric = fabric
        self.comman = comman
        self.tranman_port = tranman_port
        self.cost = cost
        self.tracer = tracer
        self.name = name
        # ``keep_history=False`` is the streaming mode: per-transaction
        # records are dropped once the transaction completes, so a
        # million-transaction open-loop run holds O(in-flight) records
        # instead of O(total).  Outcome tallies stay exact either way.
        self.keep_history = keep_history
        self.history: List[TxnRecord] = []
        self.committed = 0
        self.aborted = 0
        self._records: Dict[TID, TxnRecord] = {}

    # ------------------------------------------------------ txn control

    def begin(self, parent: Optional[TID] = None,
              protocol: ProtocolKind = ProtocolKind.TWO_PHASE
              ) -> Generator[Any, Any, TID]:
        """Get a transaction identifier (paper Figure 1, event 2)."""
        msg = Message(kind="begin_transaction", body={"protocol": protocol})
        if parent is not None:
            msg.body["parent"] = parent
        reply = yield from self.fabric.call(self.tranman_port, msg,
                                            sender_site=self.site.name,
                                            reply_flavour="immediate")
        if reply.kind != "begin_ok":
            raise RuntimeError(f"begin failed: {reply.body.get('reason')}")
        tid = reply.body["tid"]
        record = TxnRecord(tid=tid, began_at=self.kernel.now)
        self._records[tid] = record
        if self.keep_history:
            self.history.append(record)  # lint: bounded(config-gated by keep_history)
        return tid

    def commit(self, tid: TID,
               protocol: Optional[ProtocolKind] = None,
               variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED,
               quorum_policy: str = "majority"
               ) -> Generator[Any, Any, Outcome]:
        """Commit-transaction: blocks until the protocol completes.

        The protocol kind is an argument of the call, exactly as in
        Camelot (§3.3); it defaults to whatever ``begin`` declared.
        ``quorum_policy`` ("majority" or "commit_weighted") selects the
        non-blocking protocol's replication quorums.
        """
        msg = Message(kind="commit_transaction",
                      body={"tid": tid, "variant": variant,
                            "quorum_policy": quorum_policy})
        if protocol is not None:
            msg.body["protocol"] = protocol
        pre_record = self._records.get(tid)
        if pre_record is not None:
            pre_record.commit_called_at = self.kernel.now
        reply = yield from self.fabric.call(self.tranman_port, msg,
                                            sender_site=self.site.name)
        outcome = reply.body.get("outcome", Outcome.ABORTED) \
            if reply.kind in ("commit_ok", "commit_aborted") else Outcome.ABORTED
        record = self._records.get(tid)
        if record is not None:
            record.committed_at = self.kernel.now
            record.outcome = outcome
            if outcome is Outcome.COMMITTED:
                self.committed += 1
            else:
                self.aborted += 1
            if not self.keep_history:
                self._records.pop(tid, None)
            obs = self.tracer.obs
            if obs is not None:
                # Whole-transaction and commit-phase envelopes, recorded
                # post-hoc from the client-side timestamps.
                obs.add(record.began_at, record.committed_at, "txn",
                        site=self.site.name, tid=str(tid),
                        outcome=outcome.value)
                if record.commit_called_at is not None:
                    obs.add(record.commit_called_at, record.committed_at,
                            "txn.commit", site=self.site.name, tid=str(tid))
        if reply.kind == "commit_failed":
            raise TransactionAborted(tid, reply.body.get("reason", ""))
        return outcome

    def abort(self, tid: TID) -> Generator[Any, Any, Outcome]:
        msg = Message(kind="abort_transaction", body={"tid": tid})
        reply = yield from self.fabric.call(self.tranman_port, msg,
                                            sender_site=self.site.name)
        record = self._records.get(tid)
        if record is not None:
            record.committed_at = self.kernel.now
            record.outcome = Outcome.ABORTED
            self.aborted += 1
            if not self.keep_history:
                self._records.pop(tid, None)
        if reply.kind == "abort_failed":
            raise TransactionAborted(tid, reply.body.get("reason", ""))
        return Outcome.ABORTED

    # ------------------------------------------------------- operations

    def operation(self, service: str, op: str, obj: str, tid: TID,
                  value: Any = None, timeout: Optional[float] = None
                  ) -> Generator[Any, Any, Any]:
        """One data operation; every operation explicitly lists its TID."""
        body = {"tid": tid, "op": op, "object": obj}
        if op == "write":
            body["value"] = value
        msg = Message(kind="operation", body=body, trans={"tid": tid})
        record = self._records.get(tid)
        if record is not None:
            record.operations += 1
        reply = yield from self.comman.call_service(service, msg,
                                                    timeout=timeout)
        if reply is None:
            # The paper's rule: an unresponsive operation means the
            # invoker should initiate the abort protocol.
            yield from self.abort(tid)
            raise TransactionAborted(tid, f"operation on {service} timed out")
        if reply.kind == "op_failed":
            # Lock-wait timeout at the server: we are the deadlock
            # victim; abort and let the caller retry a fresh transaction.
            yield from self.abort(tid)
            raise TransactionAborted(tid, reply.body.get("reason", ""))
        return reply.body.get("value")

    # ``read`` / ``read_for_update`` / ``write`` return the operation's
    # own generator (``yield from`` them): no wrapper frame per resume.

    def read(self, tid: TID, service: str, obj: str,
             timeout: Optional[float] = None) -> Generator[Any, Any, Any]:
        return self.operation(service, "read", obj, tid, timeout=timeout)

    def read_for_update(self, tid: TID, service: str, obj: str,
                        timeout: Optional[float] = None
                        ) -> Generator[Any, Any, Any]:
        """Read under a WRITE lock (SELECT FOR UPDATE): the idiom for a
        read-modify-write without the read-then-upgrade deadlock."""
        return self.operation(service, "read_update", obj, tid,
                              timeout=timeout)

    def write(self, tid: TID, service: str, obj: str, value: Any,
              timeout: Optional[float] = None) -> Generator[Any, Any, Any]:
        return self.operation(service, "write", obj, tid, value=value,
                              timeout=timeout)

    # ------------------------------------------------------- workloads

    def minimal_transaction(self, services: List[str], op: str = "write",
                            obj: str = "x",
                            protocol: ProtocolKind = ProtocolKind.TWO_PHASE,
                            variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED
                            ) -> Generator[Any, Any, TxnRecord]:
        """The paper's 'minimal transaction': one small operation at a
        single server at each site, then commit."""
        tid = yield from self.begin(protocol=protocol)
        record = self._records[tid]
        for service in services:
            if op == "write":
                yield from self.write(tid, service, obj, self.kernel.now)
            else:
                yield from self.read(tid, service, obj)
        yield from self.commit(tid, protocol=protocol, variant=variant)
        return record

    def latencies_ms(self) -> List[float]:
        return [r.latency_ms for r in self.history
                if r.latency_ms is not None]

    def commit_latencies_ms(self) -> List[float]:
        return [r.commit_latency_ms for r in self.history
                if r.commit_latency_ms is not None]

    def committed_count(self) -> int:
        """Committed transactions so far (exact in streaming mode too)."""
        return self.committed
