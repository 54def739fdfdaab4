"""Effects: what the protocol state machines ask their host to do.

The commit protocols are implemented sans-IO: a machine method consumes
one input (a protocol message, a completion notification, a timer) and
returns a list of effects.  The host — the simulated TranMan in
production, a hand-rolled harness in tests — executes them and feeds
completions back in:

- :class:`ForceLog` completes via ``machine.on_log_forced(token)``;
- :class:`WriteLog` (lazy) completes via
  ``machine.on_log_durable(token)`` whenever a later flush covers it;
- :class:`LocalPrepare` completes via
  ``machine.on_local_prepared(vote)``;
- :class:`StartTimer` fires via ``machine.on_timer(token)`` unless a
  later :class:`CancelTimer` with the same token was emitted.  It names
  its wait as a multiple of the host's one protocol timeout — 1, or ½
  where a takeover polls, or ½·2^k for the election backoff — never in
  milliseconds: timeout/retry belongs to the transaction manager
  (PAPER §4.2 fn. 1), so the machines carry no clock value at all.

Fire-and-forget effects (sends, lock drops, completions) need no reply.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.core.outcomes import Outcome
from repro.core.tid import TID
from repro.log.records import LogRecord


@dataclass(frozen=True)
class Effect:
    """Marker base class."""


@dataclass(frozen=True)
class SendDatagram(Effect):
    """One protocol message to one site (retries reuse the dedup key)."""

    dst: str
    message: Any


@dataclass(frozen=True)
class MulticastDatagram(Effect):
    """The same protocol message to several sites in one transmission."""

    dsts: Tuple[str, ...]
    message: Any


@dataclass(frozen=True)
class LazySendDatagram(Effect):
    """A message that may be *piggybacked*: queued and flushed with the
    next datagram to the same destination, or by a periodic sweep.  Used
    for delayed commit-acks — "Camelot batches only those messages that
    are not in the critical path"."""

    dst: str
    message: Any


@dataclass(frozen=True)
class ForceLog(Effect):
    """Append ``record`` and force it; host calls ``on_log_forced(token)``."""

    record: LogRecord
    token: str


@dataclass(frozen=True)
class WriteLog(Effect):
    """Append ``record`` lazily (no force).  If ``token`` is set the host
    watches for durability and calls ``on_log_durable(token)`` when some
    later force or background flush covers the record — this implements
    the piggybacked commit-ack of the delayed-commit optimization."""

    record: LogRecord
    token: Optional[str] = None


@dataclass(frozen=True)
class LocalPrepare(Effect):
    """Ask the local participant layer to prepare this transaction:
    collect server votes, force update/prepare records as needed.  Host
    answers with ``on_local_prepared(vote)``."""

    tid: TID
    # Non-blocking prepares log the site list + quorum alongside.
    extra_payload: Dict[str, Any] = field(default_factory=dict)
    read_only_hint: bool = False


@dataclass(frozen=True)
class LocalCommit(Effect):
    """Tell local servers to drop the transaction's locks (commit path).

    Emitted *before* the commit record is durable under the optimized
    variant — that reordering is the whole point of §3.2.
    """

    tid: TID


@dataclass(frozen=True)
class LocalAbort(Effect):
    """Undo local updates and drop locks (abort path)."""

    tid: TID


@dataclass(frozen=True)
class Complete(Effect):
    """The protocol finished from the caller's point of view: answer the
    commit-transaction call with this outcome."""

    tid: TID
    outcome: Outcome


@dataclass(frozen=True)
class Forget(Effect):
    """All obligations met: the host may expunge the machine/descriptor
    (paper: only after every site has committed or aborted)."""

    tid: TID


@dataclass(frozen=True)
class StartTakeover(Effect):
    """A timed-out non-blocking participant wants to become a coordinator
    (paper §3.3, change 2).  The host constructs an
    :class:`~repro.core.nonblocking.NbTakeover` seeded with this site's
    durable state and runs it alongside the participant machine."""

    tid: TID


@dataclass(frozen=True)
class StartTimer(Effect):
    """Request ``on_timer(token)`` after ``timeouts`` protocol timeouts
    (cancellable).  Machines keep no time: how long one timeout lasts is
    the interpreter's single value."""

    token: str
    timeouts: float = 1.0


# A takeover or an election candidate polls at half a protocol timeout.
POLL = 0.5


@dataclass(frozen=True)
class CancelTimer(Effect):
    token: str


@dataclass(frozen=True)
class Trace(Effect):
    """Diagnostic breadcrumb for experiment accounting."""

    kind: str
    detail: Dict[str, Any] = field(default_factory=dict)


Effects = list  # readability alias: functions return "Effects" (list of Effect)
