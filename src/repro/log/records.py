"""Typed log records.

Record kinds follow the paper's protocols:

- ``UPDATE``: a server's old/new value pair for one object — written as
  late as possible, forced no later than prepare (or commit for a local
  transaction, where "in the best and typical case only one log write is
  needed to commit").
- ``PREPARE``: subordinate's prepared state (presumed-abort 2PC) or any
  site's prepare in the non-blocking protocol.
- ``COMMIT``: a site's own commit record.  Under the paper's §3.2
  optimization a subordinate writes it *lazily* (not forced).
- ``COORD_COMMIT``: the coordinator's commit record — the commitment
  point of 2PC, always forced.
- ``ABORT``: presumed abort makes this lazy everywhere.
- ``REPLICATION``: the non-blocking protocol's replication-phase record;
  a commit quorum of these *is* the commitment point.
- ``END``: coordinator forgets the transaction (all acks in).

Records serialise to/from plain dicts; stable storage keeps only the
serialised form, so nothing volatile can sneak across a crash.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, Optional


class RecordKind(str, Enum):
    UPDATE = "update"
    PREPARE = "prepare"
    COMMIT = "commit"
    COORD_COMMIT = "coord_commit"
    ABORT = "abort"
    REPLICATION = "replication"
    ABORT_PLEDGE = "abort_pledge"
    CHECKPOINT = "checkpoint"
    END = "end"


@dataclass
class LogRecord:
    """One log record; ``lsn`` is assigned by the WAL at append time."""

    kind: RecordKind
    tid: str
    site: str
    payload: Dict[str, Any] = field(default_factory=dict)
    lsn: Optional[int] = None
    size_bytes: int = 64

    def to_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind.value,
            "tid": self.tid,
            "site": self.site,
            "payload": dict(self.payload),
            "lsn": self.lsn,
            "size_bytes": self.size_bytes,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogRecord":
        return cls(
            kind=RecordKind(data["kind"]),
            tid=data["tid"],
            site=data["site"],
            payload=dict(data["payload"]),
            lsn=data["lsn"],
            size_bytes=data.get("size_bytes", 64),
        )


def update_record(tid: str, site: str, server: str, obj: str,
                  old_value: Any, new_value: Any) -> LogRecord:
    """Old/new value pair reported by a data server to the disk manager."""
    return LogRecord(
        kind=RecordKind.UPDATE,
        tid=tid,
        site=site,
        payload={"server": server, "object": obj,
                 "old": old_value, "new": new_value},
        size_bytes=96,
    )


def prepare_record(tid: str, site: str, coordinator: str,
                   sites: Optional[list] = None,
                   quorum_sizes: Optional[Dict[str, int]] = None) -> LogRecord:
    """Prepared state; for non-blocking commit it also carries the site
    list and quorum sizes from the prepare message."""
    payload: Dict[str, Any] = {"coordinator": coordinator}
    if sites is not None:
        payload["sites"] = list(sites)
    if quorum_sizes is not None:
        payload["quorum_sizes"] = dict(quorum_sizes)
    return LogRecord(kind=RecordKind.PREPARE, tid=tid, site=site,
                     payload=payload, size_bytes=128)


def commit_record(tid: str, site: str) -> LogRecord:
    """A site's own commit record (lazy at optimized subordinates)."""
    return LogRecord(kind=RecordKind.COMMIT, tid=tid, site=site)


def coordinator_commit_record(tid: str, site: str,
                              subordinates: Optional[list] = None) -> LogRecord:
    """The coordinator's forced commit record: the 2PC commitment point.

    It lists the subordinates so recovery can keep answering their
    inquiries until every commit-ack arrives (the coordinator "must not
    forget about the transaction before the subordinate writes its own
    commit record").
    """
    return LogRecord(kind=RecordKind.COORD_COMMIT, tid=tid, site=site,
                     payload={"subordinates": list(subordinates or [])},
                     size_bytes=96)


def abort_record(tid: str, site: str) -> LogRecord:
    """Abort record; never forced (presumed abort)."""
    return LogRecord(kind=RecordKind.ABORT, tid=tid, site=site)


def replication_record(tid: str, site: str, decision_data: Dict[str, Any]) -> LogRecord:
    """Non-blocking replication-phase record: the coordinator's intended
    outcome plus the vote vector, forced at each replication-quorum site."""
    return LogRecord(kind=RecordKind.REPLICATION, tid=tid, site=site,
                     payload={"decision_data": dict(decision_data)},
                     size_bytes=160)


def paxos_prepare_record(tid: str, site: str, leader: str,
                         sites: list, acceptors: list) -> LogRecord:
    """A Paxos Commit RM's prepared state.  At an acceptor site this
    record doubles as the ballot-0 acceptance of the RM's own instance
    (the co-location optimization): recovery rebuilds both roles from
    it.  The ``acceptors`` key discriminates it from the non-blocking
    protocol's prepare (which carries ``sites`` but never acceptors)."""
    return LogRecord(kind=RecordKind.PREPARE, tid=tid, site=site,
                     payload={"coordinator": leader,
                              "sites": list(sites),
                              "acceptors": list(acceptors)},
                     size_bytes=144)


def paxos_acceptor_record(tid: str, site: str, promised: int,
                          accepted: list, leader: str = "",
                          sites: Optional[list] = None,
                          acceptors: Optional[list] = None) -> LogRecord:
    """An acceptor's durable Paxos state: its promise and every
    acceptance as ``[instance, ballot, vote]`` triples.  Forced before
    the acceptor sends the matching phase-1b/phase-2b — an acceptor may
    never retract what a quorum might already have counted.  Carries the
    transaction's configuration so recovery can rebuild a pure-acceptor
    site (one whose RM never prepared) from this record alone."""
    return LogRecord(kind=RecordKind.REPLICATION, tid=tid, site=site,
                     payload={"paxos": True, "promised": promised,
                              "accepted": [list(a) for a in accepted],
                              "leader": leader,
                              "sites": list(sites or []),
                              "acceptors": list(acceptors or [])},
                     size_bytes=176)


def paxos_decision_record(tid: str, site: str, update_subs: list,
                          acceptors: list) -> LogRecord:
    """The leader's (or a winning candidate's) commit decision: every
    instance chose prepared at an acceptor quorum.  Forced before any
    PcOutcome(COMMITTED) leaves the site; lists the RMs still owed the
    outcome so recovery keeps notifying."""
    return LogRecord(kind=RecordKind.COORD_COMMIT, tid=tid, site=site,
                     payload={"protocol": "paxos_commit",
                              "subordinates": list(update_subs),
                              "acceptors": list(acceptors)},
                     size_bytes=112)


def abort_pledge_record(tid: str, site: str) -> LogRecord:
    """Non-blocking abort-quorum membership: a durable pledge never to
    join this transaction's commit quorum (forced before acknowledging
    an abort-join request)."""
    return LogRecord(kind=RecordKind.ABORT_PLEDGE, tid=tid, site=site,
                     size_bytes=48)


def end_record(tid: str, site: str) -> LogRecord:
    """Coordinator's end record: every ack received, state expunged."""
    return LogRecord(kind=RecordKind.END, tid=tid, site=site, size_bytes=32)


def checkpoint_record(site: str, server_values: Dict[str, Dict[str, Any]],
                      oldest_active_lsn: int,
                      tombstones: Dict[str, str] | None = None) -> LogRecord:
    """A fuzzy checkpoint: the *committed* view of every server's
    objects, the first LSN belonging to any still-active transaction,
    and the site's resolved-outcome tombstones.

    The log may be truncated before ``min(checkpoint_lsn,
    oldest_active_lsn)``; recovery starts from the checkpoint's values
    and replays only what follows.  Tombstones must ride along: the
    truncated prefix contained the commit records that let a recovered
    site answer a blocked peer's state request — without them, a
    takeover could assemble an abort quorum against a committed
    transaction (violating the paper's change 4).
    """
    return LogRecord(
        kind=RecordKind.CHECKPOINT, tid="", site=site,
        payload={"server_values": {s: dict(v)
                                   for s, v in server_values.items()},
                 "oldest_active_lsn": oldest_active_lsn,
                 "tombstones": dict(tombstones or {})},
        size_bytes=256 + 32 * sum(len(v) for v in server_values.values()))
