"""Family and transaction descriptors — TranMan's primary data structure.

Paper §3.4: "The principal data structure is a hash table of family
descriptors, each with an attached hash table of transaction
descriptors.  Each family descriptor is protected by its own lock."
Locking permits concurrency only among different transaction families,
because Camelot's applications "mostly execute small non-nested
transactions serially" — concurrent requests within one family are rare.

The descriptors here carry everything the transaction manager tracks per
transaction: nesting structure, which local servers joined, which remote
sites the transaction spread to (fed by ComMan's spying), protocol
state, and the final outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set

from repro.core.outcomes import Outcome, ProtocolKind
from repro.core.tid import TID


@dataclass
class TransactionDescriptor:
    """Per-transaction bookkeeping at one site's transaction manager."""

    tid: TID
    # Local data servers that joined this transaction (paper event 4).
    joined_servers: Set[str] = field(default_factory=set)
    # Remote sites this transaction (or its descendants) spread to,
    # merged from ComMan's response-message site lists.
    sites_used: Set[str] = field(default_factory=set)
    # Which commit family TranMan spawns machines from at top-level
    # commit: TWO_PHASE (TwoPhaseCoordinator/Subordinate), NON_BLOCKING
    # (NbCoordinator/Subordinate), or PAXOS_COMMIT (PcLeader/
    # PcParticipant, N=2F+1 acceptors).
    protocol: ProtocolKind = ProtocolKind.TWO_PHASE
    outcome: Optional[Outcome] = None
    # Children indices handed out so far (nested transactions).
    children: List[TID] = field(default_factory=list)
    # Virtual time of the last TranMan interaction; drives orphan
    # detection (a dead coordinator leaves descriptors going stale).
    last_activity: float = 0.0

    @property
    def active(self) -> bool:
        return self.outcome is None

    def note_server_joined(self, server: str) -> bool:
        """Record a join; True if this server is new to the transaction."""
        if server in self.joined_servers:
            return False
        self.joined_servers.add(server)
        return True

    def note_sites(self, sites: Iterator[str] | List[str] | Set[str]) -> None:
        self.sites_used.update(sites)


@dataclass
class FamilyDescriptor:
    """One transaction family: the tree under a top-level transaction."""

    family: str
    transactions: Dict[TID, TransactionDescriptor] = field(default_factory=dict)

    def get(self, tid: TID) -> Optional[TransactionDescriptor]:
        return self.transactions.get(tid)

    def add(self, tid: TID) -> TransactionDescriptor:
        if tid in self.transactions:
            raise ValueError(f"duplicate transaction {tid}")
        desc = TransactionDescriptor(tid=tid)
        self.transactions[tid] = desc
        parent = tid.parent
        if parent is not None:
            parent_desc = self.transactions.get(parent)
            if parent_desc is not None:
                parent_desc.children.append(tid)
        return desc

    def all_sites(self) -> Set[str]:
        """Every site any family member spread to — the participant set
        for top-level commitment."""
        sites: Set[str] = set()
        for desc in self.transactions.values():
            sites.update(desc.sites_used)
        return sites

    def all_servers(self) -> Set[str]:
        servers: Set[str] = set()
        for desc in self.transactions.values():
            servers.update(desc.joined_servers)
        return servers

    @property
    def empty(self) -> bool:
        return not self.transactions


class FamilyTable:
    """The hash of family descriptors.

    The per-family lock of the paper exists at the TranMan process level
    (a :class:`~repro.sim.resources.SimLock` per family); this class is
    the pure data structure so it stays unit-testable without a kernel.
    """

    def __init__(self) -> None:
        self._families: Dict[str, FamilyDescriptor] = {}

    def __contains__(self, family: str) -> bool:
        return family in self._families

    def family(self, family: str) -> Optional[FamilyDescriptor]:
        return self._families.get(family)

    def family_of(self, tid: TID) -> Optional[FamilyDescriptor]:
        return self._families.get(tid.family)

    def descriptor(self, tid: TID) -> Optional[TransactionDescriptor]:
        fam = self._families.get(tid.family)
        if fam is None:
            return None
        return fam.get(tid)

    def begin(self, tid: TID) -> TransactionDescriptor:
        """Register a new transaction, creating its family if needed."""
        fam = self._families.get(tid.family)
        if fam is None:
            fam = FamilyDescriptor(family=tid.family)
            self._families[tid.family] = fam
        return fam.add(tid)

    def forget_family(self, family: str) -> None:
        self._families.pop(family, None)

    def active_families(self) -> List[str]:
        return sorted(self._families)
