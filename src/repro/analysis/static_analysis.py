"""Critical-path and completion-path formulas (the paper's Table 3).

Two events matter for commitment latency: "the moment at which all locks
have been dropped, and the moment when the synchronous
commit-transaction call returns.  The critical path ... is the shortest
sequence of actions that must be done sequentially before all locks are
dropped and the call returns.  The shortest sequence of actions before
(only) the call returns is the completion path.  In Camelot, the
critical path is always longer than the completion path."

A path is a list of rows ``(action, count, primitive)``, written once
per protocol family; :func:`price` turns rows into a :class:`StaticPath`
by looking each primitive up in :func:`~repro.analysis.primitives.unit_costs`,
and the sum of the terms is the prediction.  The assumptions are the
paper's: identical parallel operations proceed
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
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.primitives import (
    CAMELOT_RPC,
    DATAGRAM_PAIR,
    IPC_ROUND_TRIP,
    REMOTE_DROP_LOCKS,
    unit_costs,
)
from repro.config import CostModel
from repro.obs.kinds import DATAGRAM, IPC, LOCK, LOG_FORCE


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


Row = Tuple[str, int, str]  # (action, count, primitive)

_FAMILY_NAMES = {"two_phase": "2PC", "non_blocking": "NB",
                 "paxos_commit": "Paxos Commit"}


def price(label: str, rows: Sequence[Row],
          cost: Optional[CostModel] = None) -> StaticPath:
    """Duchamp's sum: each row's count times its primitive's unit cost
    (a row with count 0 is not on the path)."""
    units = unit_costs(cost or CostModel())
    return StaticPath(label, [PathTerm(action, count, units[primitive])
                              for action, count, primitive in rows if count])


def _prefix(n_subs: int) -> List[Row]:
    """Begin, one operation per site, and the local half of the commit.

    Operation cost is the paper's: 3.5 ms local (3 op IPC + 0.5 lock),
    29 ms remote (28.5 RPC + 0.5 lock).  Remote operations are issued in
    sequence by the application, so they sum.
    """
    return [("begin-transaction IPC", 1, IPC),
            ("local operation (IPC to server)", 1, IPC_ROUND_TRIP),
            ("get lock (local)", 1, LOCK),
            ("remote operation (Camelot RPC)", n_subs, CAMELOT_RPC),
            ("get lock (remote)", n_subs, LOCK),
            ("commit-transaction IPC", 1, IPC),
            ("local vote round (IPC to server)", 1, IPC_ROUND_TRIP)]


def _prepare_round(rounds: int, vote: str, forces: int) -> List[Row]:
    """The subordinates' prepare round; parallel sends count once."""
    return [("datagram (prepare)", rounds, DATAGRAM),
            ("subordinate vote round", rounds, IPC_ROUND_TRIP),
            ("log force (subordinate prepare)", forces, LOG_FORCE),
            (f"datagram ({vote})", rounds, DATAGRAM)]


def _check(protocol: str, op: str) -> None:
    if protocol not in _FAMILY_NAMES:
        raise ValueError(f"unknown protocol {protocol!r}")
    if op not in ("read", "write"):
        raise ValueError(f"unknown op {op!r} (expected 'read' or 'write')")


def _rows(protocol: str, op: str, critical: bool, n_subs: int,
          faults_tolerated: int) -> List[Row]:
    """One path of one family, to call return or (``critical``) to the
    last lock drop.

    Optimized 2PC forces twice and sends two datagrams to call return.
    The non-blocking protocol forces four times and sends four (the 5th,
    the outcome notice, is beyond call return: "the completion path is
    one datagram shorter").  Paxos Commit at F faults tolerated (N =
    2F+1 acceptors) degenerates at F=0 to optimized 2PC's exact path:
    the leader is the sole acceptor, the subordinate's prepare force
    doubles as its ballot-0 acceptance, and the leader's decision force
    is the commitment point (Gray & Lamport §4).  Each extra fault
    tolerated adds one acceptor force and two datagrams on the slowest
    instance's chain.  A read-only transaction is the same one message
    round and no log write in every family, and its subordinates drop
    their locks as they vote.
    """
    _check(protocol, op)
    r = 1 if n_subs else 0  # one round reaches every subordinate
    f = faults_tolerated
    if op == "read":
        rows = _prepare_round(r, "read vote", forces=0)
    elif protocol == "two_phase":
        rows = [*_prepare_round(r, "vote", forces=r),
                ("log force (coordinator commit)", 1, LOG_FORCE)]
    elif protocol == "non_blocking":
        rows = [("log force (coordinator prepare)", 1, LOG_FORCE),
                *_prepare_round(r, "vote", forces=r),
                ("log force (coordinator replication)", 1, LOG_FORCE),
                ("datagram (replicate)", r, DATAGRAM),
                ("log force (subordinate replication)", r, LOG_FORCE),
                ("datagram (replicate ack)", r, DATAGRAM)]
    else:
        rows = [("log force (leader prepare)", 1 if f else 0, LOG_FORCE),
                *_prepare_round(r, "vote / ballot-0 2a", forces=r),
                ("log force (acceptor acceptance)", r * f, LOG_FORCE),
                ("datagram (phase-2b report)", r * f, DATAGRAM_PAIR),
                ("log force (leader decision)", 1, LOG_FORCE)]
    rows = _prefix(n_subs) + rows + [("commit reply IPC", 1, IPC)]
    if critical and op == "write":
        notice = "commit" if protocol == "two_phase" else "outcome"
        rows += [(f"datagram ({notice} notice)", r, DATAGRAM),
                 ("drop locks at subordinate", r, REMOTE_DROP_LOCKS)]
    return rows


def _priced(protocol: str, op: str, critical: bool, n_subs: int,
            cost: Optional[CostModel], faults_tolerated: int) -> StaticPath:
    rows = _rows(protocol, op, critical, n_subs, faults_tolerated)
    label = (f"{_FAMILY_NAMES[protocol]} "
             f"{'update' if op == 'write' else 'read'} "
             f"{'critical' if critical else 'completion'}, {n_subs} subs")
    if protocol == "paxos_commit" and op == "write":
        label += f", F={faults_tolerated}"
    return price(label, rows, cost)


def completion(protocol: str, op: str, n_subs: int,
               cost: Optional[CostModel] = None,
               faults_tolerated: int = 0) -> StaticPath:
    """The path to the commit call's return (``faults_tolerated``:
    Paxos Commit updates only)."""
    return _priced(protocol, op, False, n_subs, cost, faults_tolerated)


def critical(protocol: str, n_subs: int, cost: Optional[CostModel] = None,
             faults_tolerated: int = 0) -> StaticPath:
    """An update's path to the last lock drop: completion plus the
    notice reaching the subordinates and their lock drops (for 2PC, the
    paper's '2 log writes (both forces) and two inter-site messages'
    beyond the vote round)."""
    return _priced(protocol, "write", True, n_subs, cost, faults_tolerated)


def local_completion(op: str, cost: Optional[CostModel] = None) -> StaticPath:
    """A local transaction: one forced log write commits an update
    (24.5 ms static against the paper's 31 ms measured); a read writes
    no log at all (9.5 ms static vs 13 measured)."""
    _check("two_phase", op)
    forces = 1 if op == "write" else 0
    rows = _prefix(0) + [("log force (commit record)", forces, LOG_FORCE)]
    return price(f"local {'update' if forces else 'read'} completion", rows,
                 cost)


def path_counts(protocol: str, op: str, n_subs: int) -> Dict[str, int]:
    """Critical-path primitive counts (the §4.3 ratios), read off the
    F=0 critical rows.

    Returns {'log_forces': ..., 'datagrams': ...} for one transaction
    with ``n_subs`` subordinates: the summed counts of the log-force
    rows and of the datagram rows (a round's parallel sends count once).
    """
    rows = _rows(protocol, op, True, n_subs, 0)
    return {"log_forces": sum(count for _, count, primitive in rows
                              if primitive == LOG_FORCE),
            "datagrams": sum(count for _, count, primitive in rows
                             if primitive == DATAGRAM)}
