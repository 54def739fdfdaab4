"""Shared protocol vocabulary: votes, outcomes, protocol selection.

The type of commitment protocol to execute — two-phase versus
non-blocking — is specified as an argument to the commit-transaction
call (paper §3.3), hence :class:`ProtocolKind`.  The three measured
two-phase variants of Figure 2 are :class:`TwoPhaseVariant`.
"""

from __future__ import annotations

from enum import Enum


class Vote(str, Enum):
    """A participant's answer to prepare."""

    YES = "yes"
    NO = "no"
    READ_ONLY = "read_only"


class Outcome(str, Enum):
    """The fate of a transaction at one site."""

    COMMITTED = "committed"
    ABORTED = "aborted"
    IN_DOUBT = "in_doubt"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class ProtocolKind(str, Enum):
    """Which commitment protocol to run (a commit-transaction argument)."""

    TWO_PHASE = "two_phase"
    NON_BLOCKING = "non_blocking"
    PAXOS_COMMIT = "paxos_commit"


# The short protocol names drivers, the control channel and chaos
# scenario files use.
PROTOCOLS = {"2pc": ProtocolKind.TWO_PHASE,
             "nb": ProtocolKind.NON_BLOCKING,
             "paxos": ProtocolKind.PAXOS_COMMIT}


class TwoPhaseVariant(str, Enum):
    """The three implementations measured in Figure 2.

    - ``OPTIMIZED``: subordinate commit record *not* forced; commit-ack
      piggybacked (sent once the lazy record becomes durable).  This is
      the paper's §3.2 delayed-commit optimization.
    - ``SEMI_OPTIMIZED``: subordinate commit record forced, but the ack
      still delayed — the "dissection" case isolating the ack's cost.
    - ``UNOPTIMIZED``: subordinate commit record forced and the ack sent
      immediately as its own datagram — textbook presumed-abort 2PC.
    """

    OPTIMIZED = "optimized"
    SEMI_OPTIMIZED = "semi_optimized"
    UNOPTIMIZED = "unoptimized"
