"""The transaction manager core: Camelot's protocols, sans I/O.

Everything in this package is a *pure* protocol implementation: state
machines that consume protocol messages / completion notifications and
emit :mod:`~repro.core.effects` (send datagram, force log record, drop
locks, ...).  No simulator, no clock, no network — which is what makes
the protocols exhaustively testable, including under adversarial message
orderings and crash schedules, independent of the performance model.

Contents:

- :mod:`repro.core.tid` / :mod:`repro.core.family` — nested transaction
  identifiers and the family descriptor table (paper §3.4).
- :mod:`repro.core.twophase` — presumed-abort two-phase commit with the
  paper's delayed-commit optimization and all three measured variants
  (§3.2, Figure 2).
- :mod:`repro.core.nonblocking` — the non-blocking three-phase protocol:
  replication phase, quorum consensus, subordinate takeover (§3.3,
  Figure 3).
- :mod:`repro.core.quorum` — commit/abort quorum arithmetic.
- :mod:`repro.core.abortproto` — abort with incomplete site knowledge,
  nested abort propagation.
- :mod:`repro.core.edge` (every decision a site makes *around* its
  machines: coordinator construction, datagram routing, the stateless
  edge, takeovers) and :mod:`repro.core.interpreter` (what executing
  their effects means), shared by the two engines: the simulated
  :mod:`repro.servers.tranman` and the live :mod:`repro.live.host`.
"""

from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID

__all__ = [
    "Outcome",
    "ProtocolKind",
    "QuorumSpec",
    "TID",
    "TwoPhaseVariant",
    "Vote",
]
