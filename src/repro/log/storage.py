"""Stable storage: the part of a site that survives crashes.

Sites lose all volatile state on crash (ports, process memory, buffered
log tail); whatever was *flushed* to the :class:`StableStore` survives
and is what recovery reads.  Records are stored in serialised (dict)
form only — tests assert that nothing object-identical crosses the
crash boundary.

:class:`LogTail` is the volatile side of that boundary, written once:
the simulated :class:`~repro.log.wal.WriteAheadLog` and the live
``MemoryWal`` / ``FileWal`` are devices under it, which is why this
module imports neither the kernel nor any IO.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.log.records import LogRecord


class LogTail:
    """One log's LSN assignment, volatile suffix, durable prefix and
    durability watch list.

    A force is split in two so a device may spend time in between:
    :meth:`take` names the records to write, :meth:`publish` says they
    are written.  One take may be outstanding at a time (the simulated
    WAL holds its flush lock across the pair; a live device takes,
    writes and publishes in one synchronous call, made once per
    event-loop wake-up for every force asked for in it).
    """

    def __init__(self, durable_lsn: int = 0) -> None:
        # Plain attributes (the disk manager's sweep reads both every
        # 10 simulated ms per site).  LSNs are dense: the volatile
        # records are exactly durable_lsn+1 .. last_lsn, in order.
        self.durable_lsn = durable_lsn
        self.last_lsn = durable_lsn
        self._volatile: List[LogRecord] = []
        self._watches: List[Tuple[int, Callable[[], None]]] = []

    def append(self, record: LogRecord) -> LogRecord:
        """Assign the next LSN and buffer the record (volatile)."""
        self.last_lsn += 1
        record.lsn = self.last_lsn
        self._volatile.append(record)
        return record

    def take(self, lsn: Optional[int] = None) -> List[LogRecord]:
        """The records a force up to ``lsn`` (default: the whole tail)
        must write; they stay volatile until :meth:`publish`.  A force
        past the tail clamps to it; one behind the durable prefix takes
        nothing."""
        target = self.last_lsn if lsn is None else min(lsn, self.last_lsn)
        return self._volatile[:max(0, target - self.durable_lsn)]

    def publish(self, records: List[LogRecord]) -> List[Callable[[], None]]:
        """What :meth:`take` returned is on stable storage: advance
        the durable prefix over it and return the watches now satisfied,
        in registration order, for the device to fire its own way."""
        if not records:
            return []
        del self._volatile[:len(records)]
        durable = self.durable_lsn = self.durable_lsn + len(records)
        ready = [fn for lsn, fn in self._watches if lsn <= durable]
        if ready:
            self._watches = [(lsn, fn) for lsn, fn in self._watches
                             if lsn > durable]
        return ready

    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` once ``lsn`` is durable — at once if it already is."""
        if lsn <= self.durable_lsn:
            fn()
        else:
            self._watches.append((lsn, fn))


class StableStore:
    """Append-only durable record store for one site's log."""

    def __init__(self, site: str):
        self.site = site
        self._records: List[Dict[str, Any]] = []
        self.appends = 0

    def __len__(self) -> int:
        return len(self._records)

    def append(self, record: LogRecord) -> None:
        if record.lsn is None:
            raise ValueError("record must have an LSN before reaching disk")
        records = self._records
        if records and record.lsn <= records[-1]["lsn"]:
            raise ValueError(
                f"{self.site}: LSN {record.lsn} is not above the last one "
                f"on disk ({records[-1]['lsn']}): a second writer, or a "
                "dead incarnation's flush")
        records.append(record.to_dict())
        self.appends += 1

    def append_many(self, records: List[LogRecord]) -> None:
        for record in records:
            self.append(record)

    def records(self) -> Iterator[LogRecord]:
        """Deserialise every durable record, in LSN order."""
        for data in self._records:
            yield LogRecord.from_dict(data)

    def last_lsn(self) -> int:
        """Highest durable LSN, or 0 when the log is empty."""
        if not self._records:
            return 0
        return self._records[-1]["lsn"]

    def truncate_before(self, lsn: int) -> int:
        """Reclaim records with lsn < ``lsn`` (checkpointing).  Returns
        how many records were dropped."""
        before = len(self._records)
        self._records = [r for r in self._records if r["lsn"] >= lsn]
        return before - len(self._records)

    def first_lsn(self) -> int:
        """Lowest retained LSN, or 0 when empty."""
        if not self._records:
            return 0
        return self._records[0]["lsn"]


class StableStoreDirectory:
    """All sites' stable stores, held outside any site so crashes cannot
    touch them.  The system assembly layer owns one of these."""

    def __init__(self) -> None:
        self._stores: Dict[str, StableStore] = {}

    def for_site(self, site: str) -> StableStore:
        store = self._stores.get(site)
        if store is None:
            store = StableStore(site)
            self._stores[site] = store  # lint: bounded(one store per site)
        return store

    def sites(self) -> List[str]:
        return sorted(self._stores)
