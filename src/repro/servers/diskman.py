"""The disk manager: single point of access to the log, plus pageout.

Paper §2: "The disk manager is a virtual-memory buffer manager that
protects the disk copy of servers' data segments by cooperating with
servers and with Mach (via the external pager interface) to implement
the write-ahead log protocol.  Also, it is the only process that can
write into the log."  §3.5: "Camelot batches log records within the disk
manager, which is the single point of access to the log."

In the simulation the DiskMan is the object through which every log
append/force flows (servers and the TranMan call it in-process — the
paper's primitive costs already include this interaction), and it owns:

- the WAL + group-commit batcher + the log disk;
- a background lazy-flush sweep, which is what eventually makes
  *unforced* records (optimized subordinates' commit records, abort
  records) durable and triggers the piggybacked commit-acks;
- the buffer pool / pageout model for servers' data segments,
  enforcing the WAL invariant: a dirty page may be written back only
  when every log record up to the page's ``rec_lsn`` is durable.

Both background loops are *tickless*.  They act on a grid (every 10 ms
the sweep looks at the tail, every 500 ms the pager looks for dirty
pages, each grid restarting when a write of the loop's own returns),
but they do not wake at every grid instant to find nothing to do: the
grid is a float advanced by the same ``+=`` a chain of sleeps would
perform, a loop with nothing a tick could act on parks until
:meth:`DiskManager.append` / :meth:`~DiskManager.touch_page` wakes it,
and otherwise sleeps straight to the first tick that can fire.  What
happens, and when, is what polling did (``tests/test_diskman_tickless``
holds the polling loops as the oracle; DESIGN.md §12 has the argument
and the one tie rule); an idle site fires no disk-manager event at all.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Generator, List, Optional

from repro.config import CostModel
from repro.log.batcher import GroupCommitBatcher
from repro.log.disk import DiskModel
from repro.log.records import LogRecord
from repro.log.storage import StableStore
from repro.log.wal import WriteAheadLog
from repro.mach.site import Site
from repro.sim.events import SimEvent
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep, SleepUntil
from repro.sim.tracing import Tracer


class WalProtocolError(RuntimeError):
    """A page would have reached disk before its log records — the exact
    corruption the write-ahead-log protocol exists to prevent."""


class _BufferedPage:
    """One page of a server's data segment in the buffer pool."""

    __slots__ = ("key", "value", "dirty", "rec_lsn")

    def __init__(self, key: str):
        self.key = key
        self.value: Any = None
        self.dirty = False
        self.rec_lsn = 0  # highest log LSN describing this page's updates


class DiskManager:
    """One site's logger + buffer manager."""

    LAZY_FLUSH_POLL_MS = 10.0
    LAZY_FLUSH_DEBOUNCE_MS = 25.0
    PAGEOUT_INTERVAL_MS = 500.0

    def __init__(self, kernel: Kernel, site: Site, cost: CostModel,
                 store: StableStore, tracer: Tracer,
                 group_commit: bool = False):
        self.kernel = kernel
        self.site = site
        self.cost = cost
        self.tracer = tracer
        self.disk = DiskModel(kernel, cost, name=f"{site.name}.logdisk")
        # Data segments page out to their own spindle: the log disk is
        # dedicated to the log, as on the measured testbed.
        self.data_disk = DiskModel(kernel, cost, name=f"{site.name}.datadisk")
        self.wal = WriteAheadLog(kernel, cost, self.disk, store,
                                 site.name, tracer)
        self.batcher = GroupCommitBatcher(
            kernel, self.wal, tracer, site.spawn,
            window_ms=cost.log_batch_timer,
            batch_limit=cost.log_batch_limit,
            enabled=group_commit)
        site.on_crash.append(self.batcher.drop_round)
        # Buffer pool keyed by "server/page"; the disk image of data
        # segments (what survives a crash *besides* the log) is owned by
        # recovery, which in this model rebuilds from the log alone.
        self._pages: Dict[str, _BufferedPage] = {}
        # What a parked daemon waits on: the sweep for the next append,
        # the pager for the next dirtied page (None while it is awake).
        self._sweep_idle: Optional[SimEvent] = None
        self._pager_idle: Optional[SimEvent] = None
        self._sweeper = site.spawn(self._lazy_flush_loop(), "diskman.sweep")
        self._pager = site.spawn(self._pageout_loop(), "diskman.pager")

    # --------------------------------------------------------- log side

    def append(self, record: LogRecord) -> LogRecord:
        """Lazy log write (no disk I/O until a force or sweep)."""
        self.wal.append(record)
        idle = self._sweep_idle
        if idle is not None:
            self._sweep_idle = None
            idle.trigger()
        return record

    def force(self, lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Synchronous force through the (possibly enabled) batcher."""
        self.tracer.record(self.kernel.now, "diskman.force", site=self.site.name)
        obs = self.tracer.obs
        if obs is not None:
            sid = obs.begin_cpu(self.kernel.now, "logger", self.site.name)
        yield from self.site.consume_cpu(self.cost.logger_service_cpu)
        if obs is not None:
            obs.end(sid, self.kernel.now)
        yield from self.batcher.force(lsn)

    def watch_durable(self, lsn: int, callback: Callable[[], None]) -> None:
        """``callback()`` once the record at ``lsn`` is on stable storage."""
        self.wal.watch_durable(lsn, callback)

    # ------------------------------------------------------ checkpoints

    def checkpoint(self, servers: Dict[str, Any],
                   tombstones: Optional[Dict[str, Any]] = None
                   ) -> Generator[Any, Any, int]:
        """Write a fuzzy checkpoint and truncate the log before it.

        ``servers`` maps server name -> DataServer; ``tombstones`` is
        the TranMan's resolved-outcome map, persisted so that truncating
        old commit records never makes a recovered site answer
        "no_state" for a decided transaction.  The log is reclaimed
        before ``min(checkpoint_lsn, oldest active transaction's first
        LSN)``, so recovery never needs more history than is retained.
        Returns the number of log records reclaimed.
        """
        from repro.log.records import checkpoint_record

        views = {name: server.committed_view()
                 for name, server in servers.items()}
        active = [server.oldest_active_lsn() for server in servers.values()]
        oldest_active = min((lsn for lsn in active if lsn > 0), default=0)
        tomb_payload = {tid: getattr(outcome, "value", str(outcome))
                        for tid, outcome in (tombstones or {}).items()}
        record = self.append(checkpoint_record(self.site.name, views,
                                               oldest_active,
                                               tombstones=tomb_payload))
        yield from self.force(record.lsn)
        cut = record.lsn if oldest_active == 0 \
            else min(record.lsn, oldest_active)
        reclaimed = self.wal.store.truncate_before(cut)
        self.tracer.record(self.kernel.now, "diskman.checkpoint",
                           site=self.site.name, lsn=record.lsn,
                           reclaimed=reclaimed)
        return reclaimed

    def _lazy_flush_loop(self) -> Generator[Any, Any, None]:
        """Background sweep making lazy records durable eventually.

        Debounced: the sweep waits for the log to go quiet so it lands
        between transactions instead of queueing ahead of the next
        commit force (a background flush must never add to the critical
        path).
        """
        wal, kernel = self.wal, self.kernel
        poll, debounce = self.LAZY_FLUSH_POLL_MS, self.LAZY_FLUSH_DEBOUNCE_MS
        tick = kernel.now
        while True:
            tick += poll
            while wal.last_lsn <= wal.durable_lsn:
                self._sweep_idle = SimEvent(kernel, name="diskman.sweep.idle")
                yield self._sweep_idle
            while tick - wal.last_append_at < debounce:
                tick += poll
            yield SleepUntil(tick)
            if not self._sweep_due():
                continue
            # The polling timer for this tick was armed 10 ms ago, behind
            # every disk write and pager wake-up that ends at this very
            # instant; ours may be 35 ms old.  Step behind them too.
            yield Sleep(0.0)
            if self._sweep_due():
                self.tracer.record(kernel.now, "diskman.lazy_sweep",
                                   site=self.site.name)
                yield from wal.force(wal.last_lsn)
                tick = kernel.now

    def _sweep_due(self) -> bool:
        wal = self.wal
        return (wal.last_lsn > wal.durable_lsn
                and (self.kernel.now - wal.last_append_at)
                >= self.LAZY_FLUSH_DEBOUNCE_MS)

    # ------------------------------------------------------ buffer pool

    def touch_page(self, server: str, page: str, value: Any,
                   rec_lsn: int) -> None:
        """A server updated a page; remember the WAL constraint."""
        key = f"{server}/{page}"
        entry = self._pages.get(key)
        if entry is None:
            entry = _BufferedPage(key)
            self._pages[key] = entry  # lint: bounded(page cache bounded by working set)
        entry.value = value
        entry.dirty = True
        entry.rec_lsn = max(entry.rec_lsn, rec_lsn)
        idle = self._pager_idle
        if idle is not None:
            self._pager_idle = None
            idle.trigger()

    def dirty_pages(self) -> List[str]:
        return sorted(k for k, p in self._pages.items() if p.dirty)

    def _pageout_loop(self) -> Generator[Any, Any, None]:
        """Periodically write dirty pages back, WAL-protocol safe.

        This is the external-pager cooperation of the real disk manager:
        pageout of a page whose log records are not yet durable must
        force the log first.
        """
        kernel = self.kernel
        tick = kernel.now
        while True:
            tick += self.PAGEOUT_INTERVAL_MS
            while not any(p.dirty for p in self._pages.values()):
                self._pager_idle = SimEvent(kernel, name="diskman.pager.idle")
                yield self._pager_idle
            while tick < kernel.now:
                tick += self.PAGEOUT_INTERVAL_MS
            yield SleepUntil(tick)
            for key in self.dirty_pages():
                entry = self._pages[key]
                # The page may be re-dirtied while we wait for the
                # log; loop until its records really are durable.
                while entry.rec_lsn > self.wal.durable_lsn:
                    yield from self.wal.force(entry.rec_lsn)
                self._assert_wal_protocol(entry)
                # Clean *before* the write: a touch_page during it must
                # leave the page dirty for the next round.
                entry.dirty = False
                yield from self.data_disk.write(256)
                self.tracer.record(kernel.now, "diskman.pageout",
                                   site=self.site.name, page=key)
            tick = kernel.now

    def _assert_wal_protocol(self, entry: _BufferedPage) -> None:
        if entry.rec_lsn > self.wal.durable_lsn:
            raise WalProtocolError(
                f"page {entry.key} (rec_lsn={entry.rec_lsn}) would reach "
                f"disk before the log (durable={self.wal.durable_lsn})")

    # ------------------------------------------------------- statistics

    @property
    def disk_writes(self) -> int:
        return self.disk.writes
