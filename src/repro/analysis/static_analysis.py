"""Critical-path and completion-path formulas (the paper's Table 3).

Two events matter for commitment latency: "the moment at which all locks
have been dropped, and the moment when the synchronous
commit-transaction call returns.  The critical path ... is the shortest
sequence of actions that must be done sequentially before all locks are
dropped and the call returns.  The shortest sequence of actions before
(only) the call returns is the completion path.  In Camelot, the
critical path is always longer than the completion path."

Each formula returns a :class:`StaticPath`: an ordered list of
(primitive, count, unit-cost) terms whose sum is the prediction.  The
assumptions are the paper's: identical parallel operations proceed
perfectly in parallel with constant service time, and minor costs (CPU
inside processes) are ignored — which is why static analysis
*underestimates* the measured time, as the paper observes and this
reproduction confirms (see EXPERIMENTS.md).

Primitive-count ratios (paper §4.3): an optimized two-phase update
commit has 2 log forces + 3 datagrams on its critical path; the
non-blocking protocol has 4 + 5, whence the roughly 2:1 latency ratio
that Dwork & Skeen's lower bound says is inherent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.config import CostModel


@dataclass(frozen=True)
class PathTerm:
    """``count`` occurrences of one primitive on the path."""

    name: str
    count: float
    unit_cost: float

    @property
    def total(self) -> float:
        return self.count * self.unit_cost


@dataclass
class StaticPath:
    """An ordered breakdown of one latency path."""

    label: str
    terms: List[PathTerm]

    @property
    def total(self) -> float:
        return sum(t.total for t in self.terms)

    def count_of(self, name: str) -> float:
        return sum(t.count for t in self.terms if t.name == name)

    def rows(self) -> List[str]:
        out = [f"{t.name:38s} x{t.count:<4g} {t.total:7.1f} ms"
               for t in self.terms]
        out.append(f"{'TOTAL ' + self.label:38s}       {self.total:7.1f} ms")
        return out


def _c(cost: Optional[CostModel]) -> CostModel:
    return cost or CostModel()


def _begin_and_ops(c: CostModel, n_subs: int, write: bool) -> List[PathTerm]:
    """The non-commitment prefix: begin + one operation per site.

    Operation cost is the paper's: 3.5 ms local (3 op IPC + 0.5 lock),
    29 ms remote (28.5 RPC + 0.5 lock).  Remote operations are issued in
    sequence by the application, so they sum.
    """
    terms = [PathTerm("begin-transaction IPC", 1, c.local_ipc),
             PathTerm("local operation (IPC to server)", 1, 2 * c.local_ipc),
             PathTerm("get lock (local)", 1, c.get_lock)]
    if n_subs:
        remote_rpc = (c.netmsg_rpc + 2 * c.local_ipc
                      + 2 * c.comman_cpu_per_call)
        terms.append(PathTerm("remote operation (Camelot RPC)", n_subs,
                              remote_rpc))
        terms.append(PathTerm("get lock (remote)", n_subs, c.get_lock))
    return terms


def _commit_call(c: CostModel) -> List[PathTerm]:
    return [PathTerm("commit-transaction IPC", 1, c.local_ipc)]


def _local_vote_round(c: CostModel) -> List[PathTerm]:
    return [PathTerm("local vote round (IPC to server)", 1, 2 * c.local_ipc)]


def _reply(c: CostModel) -> List[PathTerm]:
    return [PathTerm("commit reply IPC", 1, c.local_ipc)]


# ------------------------------------------------------------- local txns


def local_update_completion(cost: Optional[CostModel] = None) -> StaticPath:
    """Local update: one log write (forced) commits it — 24.5 ms static
    against the paper's 31 ms measured."""
    c = _c(cost)
    terms = (_begin_and_ops(c, 0, write=True) + _commit_call(c)
             + _local_vote_round(c)
             + [PathTerm("log force (commit record)", 1, c.log_force)])
    return StaticPath("local update completion", terms)


def local_read_completion(cost: Optional[CostModel] = None) -> StaticPath:
    """Local read: no log writes at all — 9.5 ms static vs 13 measured."""
    c = _c(cost)
    terms = (_begin_and_ops(c, 0, write=False) + _commit_call(c)
             + _local_vote_round(c))
    return StaticPath("local read completion", terms)


# ---------------------------------------------------------- 2PC, update


def twophase_update_completion(n_subs: int,
                               cost: Optional[CostModel] = None) -> StaticPath:
    """Optimized 2PC update, call-return path: 2 forces + 2 datagrams."""
    c = _c(cost)
    terms = (_begin_and_ops(c, n_subs, write=True) + _commit_call(c)
             + _local_vote_round(c))
    if n_subs:
        terms += [
            PathTerm("datagram (prepare)", 1, c.datagram),
            PathTerm("subordinate vote round", 1, 2 * c.local_ipc),
            PathTerm("log force (subordinate prepare)", 1, c.log_force),
            PathTerm("datagram (vote)", 1, c.datagram),
        ]
    terms += [PathTerm("log force (coordinator commit)", 1, c.log_force)]
    terms += _reply(c)
    return StaticPath(f"2PC update completion, {n_subs} subs", terms)


def twophase_update_critical(n_subs: int,
                             cost: Optional[CostModel] = None) -> StaticPath:
    """Critical path: completion plus the commit notice reaching the
    subordinates and their lock drops (the paper's '2 log writes (both
    forces) and two inter-site messages' beyond the vote round)."""
    c = _c(cost)
    path = twophase_update_completion(n_subs, c)
    terms = list(path.terms)
    if n_subs:
        terms += [
            PathTerm("datagram (commit notice)", 1, c.datagram),
            PathTerm("drop locks at subordinate", 1,
                     c.local_oneway_message + c.drop_lock),
        ]
    return StaticPath(f"2PC update critical, {n_subs} subs", terms)


def twophase_read_completion(n_subs: int,
                             cost: Optional[CostModel] = None) -> StaticPath:
    """Read-only 2PC: one message round, zero log writes."""
    c = _c(cost)
    terms = (_begin_and_ops(c, n_subs, write=False) + _commit_call(c)
             + _local_vote_round(c))
    if n_subs:
        terms += [
            PathTerm("datagram (prepare)", 1, c.datagram),
            PathTerm("subordinate vote round", 1, 2 * c.local_ipc),
            PathTerm("datagram (read vote)", 1, c.datagram),
        ]
    terms += _reply(c)
    return StaticPath(f"2PC read completion, {n_subs} subs", terms)


# -------------------------------------------------------- non-blocking


def nonblocking_update_completion(n_subs: int,
                                  cost: Optional[CostModel] = None
                                  ) -> StaticPath:
    """Non-blocking update: 4 forces + 4 datagrams to the commit point
    (the 5th datagram — the outcome notice — is beyond call return,
    'the completion path is one datagram shorter')."""
    c = _c(cost)
    terms = (_begin_and_ops(c, n_subs, write=True) + _commit_call(c)
             + _local_vote_round(c)
             + [PathTerm("log force (coordinator prepare)", 1, c.log_force)])
    if n_subs:
        terms += [
            PathTerm("datagram (prepare)", 1, c.datagram),
            PathTerm("subordinate vote round", 1, 2 * c.local_ipc),
            PathTerm("log force (subordinate prepare)", 1, c.log_force),
            PathTerm("datagram (vote)", 1, c.datagram),
        ]
    terms += [PathTerm("log force (coordinator replication)", 1, c.log_force)]
    if n_subs:
        terms += [
            PathTerm("datagram (replicate)", 1, c.datagram),
            PathTerm("log force (subordinate replication)", 1, c.log_force),
            PathTerm("datagram (replicate ack)", 1, c.datagram),
        ]
    terms += _reply(c)
    return StaticPath(f"NB update completion, {n_subs} subs", terms)


def nonblocking_update_critical(n_subs: int,
                                cost: Optional[CostModel] = None
                                ) -> StaticPath:
    c = _c(cost)
    path = nonblocking_update_completion(n_subs, c)
    terms = list(path.terms)
    if n_subs:
        terms += [
            PathTerm("datagram (outcome notice)", 1, c.datagram),
            PathTerm("drop locks at subordinate", 1,
                     c.local_oneway_message + c.drop_lock),
        ]
    return StaticPath(f"NB update critical, {n_subs} subs", terms)


def nonblocking_read_completion(n_subs: int,
                                cost: Optional[CostModel] = None
                                ) -> StaticPath:
    """Fully read-only: identical critical path to two-phase commit —
    the paper's headline read-only result."""
    path = twophase_read_completion(n_subs, cost)
    return StaticPath(f"NB read completion, {n_subs} subs", path.terms)


# -------------------------------------------------------- paxos commit


def paxos_update_completion(n_subs: int,
                            cost: Optional[CostModel] = None,
                            faults_tolerated: int = 0) -> StaticPath:
    """Paxos Commit update at F faults tolerated (N = 2F+1 acceptors).

    F=0 degenerates to optimized 2PC's exact path — the leader is the
    sole acceptor, the subordinate's prepare force doubles as its
    ballot-0 acceptance, and the leader's decision force is the
    commitment point (Gray & Lamport §4: "with F=0, Paxos Commit is
    essentially 2PC").  Each extra fault tolerated adds, per
    subordinate, one vote fan-out datagram to the 2F extra acceptors,
    their acceptance forces, and their phase-2b reports; the completion
    path grows by one acceptor force + two datagrams per F on the
    slowest instance's chain.
    """
    c = _c(cost)
    terms = (_begin_and_ops(c, n_subs, write=True) + _commit_call(c)
             + _local_vote_round(c))
    if faults_tolerated:
        terms += [PathTerm("log force (leader prepare)", 1, c.log_force)]
    if n_subs:
        terms += [
            PathTerm("datagram (prepare)", 1, c.datagram),
            PathTerm("subordinate vote round", 1, 2 * c.local_ipc),
            PathTerm("log force (subordinate prepare)", 1, c.log_force),
            PathTerm("datagram (vote / ballot-0 2a)", 1, c.datagram),
        ]
        if faults_tolerated:
            terms += [
                PathTerm("log force (acceptor acceptance)",
                         faults_tolerated, c.log_force),
                PathTerm("datagram (phase-2b report)",
                         faults_tolerated, 2 * c.datagram),
            ]
    terms += [PathTerm("log force (leader decision)", 1, c.log_force)]
    terms += _reply(c)
    return StaticPath(
        f"Paxos Commit update completion, {n_subs} subs, F="
        f"{faults_tolerated}", terms)


def paxos_update_critical(n_subs: int,
                          cost: Optional[CostModel] = None,
                          faults_tolerated: int = 0) -> StaticPath:
    c = _c(cost)
    path = paxos_update_completion(n_subs, c, faults_tolerated)
    terms = list(path.terms)
    if n_subs:
        terms += [
            PathTerm("datagram (outcome notice)", 1, c.datagram),
            PathTerm("drop locks at subordinate", 1,
                     c.local_oneway_message + c.drop_lock),
        ]
    return StaticPath(
        f"Paxos Commit update critical, {n_subs} subs, F="
        f"{faults_tolerated}", terms)


def paxos_read_completion(n_subs: int,
                          cost: Optional[CostModel] = None) -> StaticPath:
    """Fully read-only Paxos Commit: votes need no durability, so the
    path collapses to the same one message round as read-only 2PC."""
    path = twophase_read_completion(n_subs, cost)
    return StaticPath(f"Paxos Commit read completion, {n_subs} subs",
                      path.terms)


# -------------------------------------------------------------- counts


def path_counts(protocol: str, op: str, n_subs: int) -> Dict[str, int]:
    """Critical-path primitive counts (the §4.3 ratios).

    Returns {'log_forces': ..., 'datagrams': ...} for one transaction
    with ``n_subs`` subordinates.
    """
    if protocol not in ("two_phase", "non_blocking", "paxos_commit"):
        raise ValueError(f"unknown protocol {protocol!r}")
    if op not in ("read", "write"):
        raise ValueError(f"unknown op {op!r} (expected 'read' or 'write')")
    if op == "read":
        return {"log_forces": 0, "datagrams": 2 if n_subs else 0}
    if protocol in ("two_phase", "paxos_commit"):
        # Paxos Commit at F=0 degenerates to optimized 2PC exactly.
        return {"log_forces": 2, "datagrams": 3 if n_subs else 0}
    return {"log_forces": 4, "datagrams": 5 if n_subs else 0}

