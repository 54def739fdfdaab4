"""A real on-disk write-ahead log with the simulator WAL's semantics.

Mirrors :class:`repro.log.wal.WriteAheadLog`'s contract — ``append``
assigns an LSN to a volatile record, ``force(lsn)`` makes the prefix up
to ``lsn`` durable, durability watches fire once their LSN is covered —
but durability here is a genuine ``os.fsync`` on a file the
:mod:`repro.servers.recovery` discriminators can read back after
``kill -9``.

File layout: a 5-byte header (magic ``RWAL`` + version) followed by
records, each ``length(4) | crc32(4) | canonical-JSON(LogRecord.to_dict)``.
Loading tolerates a torn tail — a crash mid-write leaves a partial or
CRC-failing final record, which is exactly the not-yet-durable suffix
the simulator's crash model also discards.  Opening for write truncates
the file back to the valid prefix so new appends never follow garbage.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from typing import Callable, List, Optional, Tuple

from repro.log.records import LogRecord

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_HEADER = WAL_MAGIC + bytes([WAL_VERSION])
_REC = struct.Struct(">II")


def _scan(data: bytes) -> Tuple[List[LogRecord], int]:
    """Parse the durable prefix; returns (records, valid byte length)."""
    records: List[LogRecord] = []
    if len(data) < len(_HEADER) or data[:4] != WAL_MAGIC:
        return records, 0
    pos = len(_HEADER)
    while True:
        if pos + _REC.size > len(data):
            break
        length, crc = _REC.unpack_from(data, pos)
        end = pos + _REC.size + length
        if end > len(data):
            break  # torn tail: record cut short by the crash
        body = data[pos + _REC.size:end]
        if zlib.crc32(body) != crc:
            break  # torn tail: partially written payload
        try:
            records.append(LogRecord.from_dict(json.loads(body)))
        except (ValueError, KeyError):
            break
        pos = end
    return records, pos


def read_records(path: str) -> List[LogRecord]:
    """Durable records at ``path`` (recovery's view after a crash)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return []
    records, _ = _scan(data)
    return records


class MemoryWal:
    """The in-memory tail of a live-mode WAL: LSN assignment, the
    durable prefix and the durability watch list.

    On its own it is the simulator-side WAL — a force has nothing to
    write — and :class:`FileWal` is the same tail with a file under it,
    so the two substrates cannot disagree on LSNs or watch order.
    """

    def __init__(self, durable_lsn: int = 0) -> None:
        self._durable_lsn = durable_lsn
        # LSNs are dense: the volatile records are exactly those
        # numbered durable_lsn+1 .. last_lsn, in order.
        self._volatile: List[LogRecord] = []
        self._watches: List[Tuple[int, Callable[[], None]]] = []

    @property
    def durable_lsn(self) -> int:
        return self._durable_lsn

    @property
    def last_lsn(self) -> int:
        return self._durable_lsn + len(self._volatile)

    def append(self, record: LogRecord) -> LogRecord:
        record.lsn = self.last_lsn + 1
        self._volatile.append(record)
        return record

    def force(self, lsn: Optional[int] = None) -> List[Callable[[], None]]:
        """Make the prefix up to ``lsn`` (default: everything) durable.

        Returns the durability watches that became satisfied; the caller
        fires them (after any completion pacing it applies).
        """
        target = self.last_lsn if lsn is None else min(lsn, self.last_lsn)
        if target > self._durable_lsn:
            count = target - self._durable_lsn
            self._write(self._volatile[:count])
            del self._volatile[:count]
            self._durable_lsn = target
        ready = [fn for watch_lsn, fn in self._watches
                 if watch_lsn <= self._durable_lsn]
        self._watches = [(watch_lsn, fn) for watch_lsn, fn in self._watches
                         if watch_lsn > self._durable_lsn]
        return ready

    def _write(self, records: List[LogRecord]) -> None:
        """Put ``records`` on stable storage; memory has none."""

    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None:
        """Run ``fn`` once ``lsn`` is durable (immediately if it already is)."""
        if lsn <= self._durable_lsn:
            fn()
            return
        self._watches.append((lsn, fn))


class FileWal(MemoryWal):
    """One site's on-disk WAL.

    All methods are synchronous; the live substrate calls them from the
    event loop (record payloads are tiny, and force latency *is* the
    durability cost the paper measures).  ``fsync=False`` trades real
    durability for speed in harnesses that never crash-test.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        existing = b""
        try:
            with open(path, "rb") as fh:
                existing = fh.read()
        except FileNotFoundError:
            pass
        self._recovered, valid = _scan(existing)
        self._file = open(path, "r+b" if existing else "w+b")
        if valid < len(_HEADER):
            # Fresh file, or a header so mangled nothing was readable:
            # start over with a clean header.
            self._file.truncate(0)
            self._file.seek(0)
            self._file.write(_HEADER)
            self._file.flush()
            valid = len(_HEADER)
        self._file.truncate(valid)
        self._file.seek(valid)
        # LSNs restart at the durable count: recovery only ever sees the
        # durable prefix, so dense renumbering is invisible across runs.
        for i, record in enumerate(self._recovered, start=1):
            record.lsn = i
        super().__init__(durable_lsn=len(self._recovered))

    @property
    def recovered_records(self) -> List[LogRecord]:
        """The durable prefix found at open (input to recovery analysis)."""
        return list(self._recovered)

    def _write(self, records: List[LogRecord]) -> None:
        for record in records:
            body = json.dumps(record.to_dict(), sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            self._file.write(_REC.pack(len(body), zlib.crc32(body)) + body)
        self._file.flush()
        if self._fsync:
            os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()
