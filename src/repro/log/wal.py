"""The write-ahead log proper: the simulated device under the log tail.

LSNs, the volatile suffix, the durable prefix and the watches are
:class:`repro.log.storage.LogTail`'s, shared with the live WALs; this
module adds what a force costs in the simulator.

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

from typing import Any, Callable, Generator, List, Optional

from repro.config import CostModel
from repro.log.disk import DiskModel
from repro.log.records import LogRecord
from repro.log.storage import LogTail, StableStore
from repro.sim.kernel import Kernel
from repro.sim.resources import SimLock
from repro.sim.tracing import Tracer


class WriteAheadLog(LogTail):
    """One site's log: the shared tail over a flush lock, a
    :class:`DiskModel` write that takes simulated time and the
    :class:`StableStore`; satisfied watches fire on the next kernel turn.
    """

    def __init__(self, kernel: Kernel, cost: CostModel, disk: DiskModel,
                 store: StableStore, site: str, tracer: Tracer):
        super().__init__(durable_lsn=store.last_lsn())
        self.kernel = kernel
        self.disk = disk
        self.store = store
        self.site = site
        self.tracer = tracer
        self._flush_lock = SimLock(kernel, name=f"{site}.wal.flush")
        self.appends = 0
        self.forces = 0
        self.last_append_at = 0.0

    # ------------------------------------------------------------ write

    def append(self, record: LogRecord) -> LogRecord:
        """Assign the next LSN and buffer the record (volatile)."""
        super().append(record)
        self.appends += 1
        self.last_append_at = self.kernel.now
        self.tracer.record(self.kernel.now, "log.append", site=self.site,
                           kind_of=record.kind.value, tid=record.tid)
        return record

    # ------------------------------------------------------------ force

    def force(self, lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Make records up to ``lsn`` (default: the whole tail) durable.

        This is the *unbatched* force path; the disk manager routes
        through the batcher instead when group commit is on.
        """
        target = self.last_lsn if lsn is None else min(lsn, self.last_lsn)
        if target <= self.durable_lsn:
            return
        self.forces += 1
        self.tracer.record(self.kernel.now, "log.force", site=self.site,
                           lsn=target)
        yield from self._flush_lock.acquire()
        try:
            # Whoever held the lock may have swept these records out
            # (nothing left to take); durability is published only
            # after the disk write.
            batch = self.take(target)
            if batch:
                yield from self.disk.write(sum(r.size_bytes for r in batch))
                self.store.append_many(batch)
                for callback in self.publish(batch):
                    self.kernel.post_soon(callback)
        finally:
            self._flush_lock.release()

    def watch_durable(self, lsn: int, callback: Callable[[], None]) -> None:
        """Call ``callback()`` once records up to ``lsn`` are durable —
        on the next kernel turn if they already are (how delayed
        commit-acks learn their lazy record became durable)."""
        if lsn <= self.durable_lsn:
            self.kernel.post_soon(callback)
        else:
            super().watch_durable(lsn, callback)

    # ------------------------------------------------------- inspection

    def buffered_records(self) -> List[LogRecord]:
        """Volatile tail (testing/diagnostics)."""
        return list(self._volatile)

    def durable_records(self) -> List[LogRecord]:
        return list(self.store.records())
