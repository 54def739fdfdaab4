"""The write-ahead log proper.

Append is cheap and lazy: records go to a volatile buffer ("this record
is logged as late as possible").  A *force* makes everything up to a
target LSN durable and is the expensive primitive (15 ms) that the
paper's protocol analysis counts.

Force semantics under concurrency:

- If the target LSN is already durable, force returns immediately — a
  transaction whose records were swept out by someone else's force pays
  nothing.
- Without group commit, each force writes exactly the buffered records
  up to its target, serialising on the disk: N concurrent committers
  pay N disk writes.
- With group commit (see :mod:`repro.log.batcher`), concurrent forces
  are folded into one batched write.

Crash model: the buffer is volatile.  Only records that completed a
disk write are in the :class:`~repro.log.storage.StableStore` that
recovery later reads.
"""

from __future__ import annotations

from typing import Any, Generator, List, Optional

from repro.config import CostModel
from repro.log.disk import DiskModel
from repro.log.records import LogRecord
from repro.log.storage import StableStore
from repro.sim.kernel import Kernel
from repro.sim.resources import SimLock
from repro.sim.tracing import Tracer


class WriteAheadLog:
    """One site's log: volatile tail plus durable prefix."""

    def __init__(self, kernel: Kernel, cost: CostModel, disk: DiskModel,
                 store: StableStore, site: str, tracer: Tracer):
        self.kernel = kernel
        self.cost = cost
        self.disk = disk
        self.store = store
        self.site = site
        self.tracer = tracer
        self._next_lsn = store.last_lsn() + 1
        self._buffer: List[LogRecord] = []
        self.flushed_lsn = store.last_lsn()
        self._flush_lock = SimLock(kernel, name=f"{site}.wal.flush")
        self.appends = 0
        self.forces = 0
        self.last_append_at = 0.0
        # (lsn, callback) pairs fired once flushed_lsn reaches lsn — how
        # delayed commit-acks learn their lazy record became durable.
        self._watches: List[tuple[int, Any]] = []

    # ------------------------------------------------------------ write

    def append(self, record: LogRecord) -> LogRecord:
        """Assign the next LSN and buffer the record (volatile)."""
        record.lsn = self._next_lsn
        self._next_lsn += 1
        self._buffer.append(record)
        self.appends += 1
        self.last_append_at = self.kernel.now
        self.tracer.record(self.kernel.now, "log.append", site=self.site,
                           kind_of=record.kind.value, tid=record.tid)
        return record

    @property
    def tail_lsn(self) -> int:
        """LSN of the newest (possibly volatile) record."""
        return self._next_lsn - 1

    def is_durable(self, lsn: int) -> bool:
        return lsn <= self.flushed_lsn

    # ------------------------------------------------------------ force

    def force(self, lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Make records up to ``lsn`` (default: the whole tail) durable.

        This is the *unbatched* force path; the disk manager routes
        through the batcher instead when group commit is on.
        """
        target = self.tail_lsn if lsn is None else lsn
        if target <= self.flushed_lsn:
            return
        self.forces += 1
        self.tracer.record(self.kernel.now, "log.force", site=self.site,
                           lsn=target)
        yield from self._flush_lock.acquire()
        try:
            yield from self._flush_up_to(target)
        finally:
            self._flush_lock.release()

    def _flush_up_to(self, target: int) -> Generator[Any, Any, None]:
        """Write buffered records with lsn <= target.  Caller holds the
        flush lock; durability is published only after the disk write."""
        if target <= self.flushed_lsn:
            return
        batch = [r for r in self._buffer if r.lsn <= target]
        if not batch:
            # Records were appended and flushed by someone else already.
            self.flushed_lsn = max(self.flushed_lsn, target)
            return
        total_bytes = sum(r.size_bytes for r in batch)
        yield from self.disk.write(total_bytes)
        self.store.append_many(batch)
        self._buffer = [r for r in self._buffer if r.lsn > target]
        self.flushed_lsn = max(self.flushed_lsn, batch[-1].lsn)
        self._fire_watches()

    # ------------------------------------------------ durability watches

    def add_durability_watch(self, lsn: int, callback: Any) -> None:
        """Call ``callback()`` once records up to ``lsn`` are durable.

        Fires immediately (next kernel turn) if already durable.
        """
        if lsn <= self.flushed_lsn:
            self.kernel.post_soon(callback)
        else:
            self._watches.append((lsn, callback))

    def _fire_watches(self) -> None:
        ready = [cb for lsn, cb in self._watches if lsn <= self.flushed_lsn]
        self._watches = [(lsn, cb) for lsn, cb in self._watches
                         if lsn > self.flushed_lsn]
        for cb in ready:
            self.kernel.post_soon(cb)

    # ------------------------------------------------------- inspection

    def buffered_records(self) -> List[LogRecord]:
        """Volatile tail (testing/diagnostics)."""
        return list(self._buffer)

    def durable_records(self) -> List[LogRecord]:
        return list(self.store.records())
