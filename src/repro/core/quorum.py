"""Commit/abort quorum arithmetic for the non-blocking protocol.

The protocol's third change to two-phase commit (paper §3.3): no site
may commit or abort "until it is certain the other outcome is excluded",
enforced with quorum consensus [Gifford 79 / Skeen 82].  A commit
requires ``commit_quorum`` sites holding durable replication records; an
abort (once the replication phase may have begun) requires
``abort_quorum`` sites durably pledging never to join a commit quorum.
Safety needs the two to intersect:

    commit_quorum + abort_quorum > n_sites

and the fourth change — no site joins both kinds of quorum for one
transaction — makes membership the serialising resource, which is why
"having several simultaneous coordinators is possible, but is not a
problem".
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class QuorumSpec:
    """Quorum sizes for one transaction's replication phase.

    Carried in the non-blocking prepare message and logged in every
    prepare record, so any takeover coordinator knows the rules.
    """

    n_sites: int
    commit_quorum: int
    abort_quorum: int

    def __post_init__(self) -> None:
        if self.n_sites < 1:
            raise ValueError("a transaction involves at least one site")
        if not 1 <= self.commit_quorum <= self.n_sites:
            raise ValueError(
                f"commit quorum {self.commit_quorum} out of range for "
                f"{self.n_sites} sites")
        if not 1 <= self.abort_quorum <= self.n_sites:
            raise ValueError(
                f"abort quorum {self.abort_quorum} out of range for "
                f"{self.n_sites} sites")
        if self.commit_quorum + self.abort_quorum <= self.n_sites:
            raise ValueError(
                f"quorums must intersect: Qc={self.commit_quorum} + "
                f"Qa={self.abort_quorum} <= N={self.n_sites}")

    @classmethod
    def majority(cls, n_sites: int) -> "QuorumSpec":
        """Balanced quorums: both a strict majority.

        For odd N this survives any minority partition on both the
        commit and abort side; for even N ties block (as they must).
        """
        qc = n_sites // 2 + 1
        qa = n_sites - qc + 1
        return cls(n_sites=n_sites, commit_quorum=qc, abort_quorum=qa)

    @classmethod
    def paxos(cls, n_acceptors: int) -> "QuorumSpec":
        """Paxos Commit acceptor quorums: N = 2F+1 acceptors, any F+1 of
        which form a quorum.  Even-sized acceptor sets are rejected at
        configuration time — they pay an extra acceptor without raising
        F, and two disjoint "majorities" of size F+1 would be possible.
        """
        if n_acceptors % 2 == 0:
            raise ValueError(
                f"paxos acceptor sets must be odd (N = 2F+1), got "
                f"{n_acceptors}")
        majority = n_acceptors // 2 + 1
        return cls(n_sites=n_acceptors, commit_quorum=majority,
                   abort_quorum=majority)

    @classmethod
    def commit_weighted(cls, n_sites: int) -> "QuorumSpec":
        """Favour commit availability: Qc = 1 lets the coordinator alone
        reach the commit point (degenerates toward 2PC's behaviour);
        abort then needs every site."""
        return cls(n_sites=n_sites, commit_quorum=1, abort_quorum=n_sites)

    def can_commit(self, replication_records: int) -> bool:
        return replication_records >= self.commit_quorum

    def can_abort(self, abort_pledges: int) -> bool:
        return abort_pledges >= self.abort_quorum

    def to_dict(self) -> dict:
        return {"n_sites": self.n_sites, "commit_quorum": self.commit_quorum,
                "abort_quorum": self.abort_quorum}

    @classmethod
    def from_dict(cls, data: dict) -> "QuorumSpec":
        return cls(n_sites=data["n_sites"], commit_quorum=data["commit_quorum"],
                   abort_quorum=data["abort_quorum"])
