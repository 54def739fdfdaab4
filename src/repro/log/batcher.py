"""Group commit ("log batching").

"If the log is implemented as a disk, then a transaction facility cannot
do more than about 30 log writes per second.  To provide throughput
rates greater than 30 TPS requires writing log records that indicate the
commitment of many transactions ... It sacrifices latency in order to
increase throughput, and is essential for any system that hopes for high
throughput and uses disks for the log.  Camelot batches log records
within the disk manager, which is the single point of access to the
log."  (paper §3.5)

The batcher collects concurrent force requests into *rounds*.  A round
opens when a force arrives while no round is open; it closes — and one
disk write covers every request in it — when either the group-commit
timer expires or the batch limit is reached.  Requests arriving while a
round's disk write is in progress open the next round.

With ``enabled=False`` the batcher degrades to the plain unbatched
force, so the disk manager can hold one object either way and the
Figure 4 experiment is a single-flag toggle.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, Optional

from repro.log.wal import WriteAheadLog
from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel, Timer
from repro.sim.process import Process, ProcessBody
from repro.sim.tracing import Tracer


class _Round:
    """One accumulating batch of force requests."""

    __slots__ = ("target_lsn", "done", "size")

    def __init__(self, kernel: Kernel):
        self.target_lsn = 0
        self.size = 0
        self.done = SimEvent(kernel, name="gc.round")


class GroupCommitBatcher:
    """Timer-based group commit in front of a WAL.

    A round is the site's volatile state: its flush runs on a process
    from ``spawn`` (:meth:`repro.mach.site.Site.spawn`, killed with the
    site) and the site's crash hook calls :meth:`drop_round`.
    """

    def __init__(self, kernel: Kernel, wal: WriteAheadLog, tracer: Tracer,
                 spawn: Callable[[ProcessBody, str], Process],
                 window_ms: float, batch_limit: int, enabled: bool = True):
        if batch_limit < 1:
            raise ValueError("batch limit must be >= 1")
        self.kernel = kernel
        self.wal = wal
        self.tracer = tracer
        self._spawn = spawn
        self.window_ms = window_ms
        self.batch_limit = batch_limit
        self.enabled = enabled
        self._round: Optional[_Round] = None
        self._timer: Optional[Timer] = None
        self.rounds_flushed = 0
        self.requests_batched = 0

    # ------------------------------------------------------------ force

    def force(self, lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Durably flush up to ``lsn``; batched when enabled."""
        target = self.wal.last_lsn if lsn is None else lsn
        if target <= self.wal.durable_lsn:
            return
        if not self.enabled:
            yield from self.wal.force(target)
            return
        rnd = self._join_round(target)
        yield rnd.done
        # The round's write may have covered a shorter prefix than this
        # request needs if the WAL grew after the timer fired; rare, but
        # force semantics must hold unconditionally.
        if target > self.wal.durable_lsn:
            yield from self.wal.force(target)

    def _join_round(self, target: int) -> _Round:
        rnd = self._round
        if rnd is None:
            rnd = _Round(self.kernel)
            self._round = rnd
            self._timer = self.kernel.schedule(self.window_ms, self._fire, rnd)
        rnd.target_lsn = max(rnd.target_lsn, target)
        rnd.size += 1
        self.requests_batched += 1
        if rnd.size >= self.batch_limit:
            if self._timer is not None:
                self._timer.cancel()
                self._timer = None
            self._fire(rnd)
        return rnd

    def _fire(self, rnd: _Round) -> None:
        if self._round is not rnd:
            return  # already fired via the batch limit
        self._round = None
        self._timer = None
        self._spawn(self._flush_round(rnd), "gc.flush")

    def drop_round(self) -> None:
        """The site crashed: the open round and its window timer were
        volatile state (its waiters are already dead)."""
        if self._timer is not None:
            self._timer.cancel()
        self._round = self._timer = None

    def _flush_round(self, rnd: _Round) -> Generator[Any, Any, None]:
        self.rounds_flushed += 1
        sid = self.tracer.begin_group_commit(self.kernel.now, self.wal.site,
                                             rnd.size, rnd.target_lsn)
        yield from self.wal.force(rnd.target_lsn)
        self.tracer.end(sid, self.kernel.now)
        rnd.done.trigger(None)

    # ------------------------------------------------------- statistics

    @property
    def mean_batch_size(self) -> float:
        if self.rounds_flushed == 0:
            return 0.0
        return self.requests_batched / self.rounds_flushed
