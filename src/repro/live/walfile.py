"""The live devices under the log tail: memory, and a real file.

LSN assignment, the durable prefix and the durability watches are
:class:`repro.log.storage.LogTail`'s — the class the simulated
:class:`repro.log.wal.WriteAheadLog` is built on too, so the three
cannot disagree on them.  :class:`FileWal` adds what the tail lacks:
durability as a genuine ``os.fsync`` on a file the
:mod:`repro.servers.recovery` discriminators can read back after
``kill -9``.

File layout: a 5-byte header (magic ``RWAL`` + version) followed by
records, each ``length(4) | crc32(4) | canonical-JSON(LogRecord.to_dict)``.
:func:`record_json` writes that text by plan, not by encoding the dict;
only a non-empty payload meets an encoder, which has no rule for a
value JSON lacks, so such a payload fails the force.
Loading tolerates a torn tail — a crash mid-write leaves a partial or
CRC-failing final record, which is exactly the not-yet-durable suffix
the simulator's crash model also discards.  Opening for write truncates
the file back to the valid prefix so new appends never follow garbage.
A damaged header is not a torn tail: opening or reading such a file
raises and leaves it as it was.

A failed write is final.  Once a write, flush or fsync has raised, the
bytes of that attempt may or may not be on the platter (after a failed
``fsync`` the kernel may already have dropped the dirty pages), so
nothing may follow them and nothing may be retried as if they were
still pending: the :class:`FileWal` is dead — it publishes nothing,
every later ``append`` / ``force`` raises — and the site above it
fail-stops.  What really reached the disk is for the next open's scan
to say.
"""

from __future__ import annotations

import json
import os
import struct
import zlib
from json.encoder import encode_basestring_ascii as _quote
from typing import Callable, List, Optional, Tuple

from repro.live.codec import compact_encoder
from repro.log.records import LogRecord, RecordKind
from repro.log.storage import LogTail

WAL_MAGIC = b"RWAL"
WAL_VERSION = 1
_HEADER = WAL_MAGIC + bytes([WAL_VERSION])
_REC = struct.Struct(">II")
# A record's text up to its LSN, per kind: the keys are sorted, so
# ``kind`` comes first and ``lsn`` next.
_OPENING = {kind: f'{{"kind":{_quote(kind.value)},"lsn":'
            for kind in RecordKind}
# No rule for a value JSON lacks: a payload holding one fails the force.
_payload_json = compact_encoder(json.JSONEncoder().default)


def record_json(record: LogRecord) -> str:
    """``record.to_dict()`` as canonical JSON, written by plan: the six
    keys are literals, the strings are quoted, the integers are their
    ``repr``, and only a non-empty payload meets an encoder."""
    lsn, payload = record.lsn, record.payload
    return (f'{_OPENING[record.kind]}'
            f'{"null" if lsn is None else int.__repr__(lsn)},"payload":'
            f'{_payload_json(payload) if payload else "{}"},"site":'
            f'{_quote(record.site)},"size_bytes":'
            f'{int.__repr__(record.size_bytes)},"tid":{_quote(record.tid)}}}')


def _scan(data: bytes, path: str) -> Tuple[List[LogRecord], int]:
    """Parse the durable prefix; returns (records, valid byte length).

    An empty file, or a strict prefix of the header (a crash during the
    first header write), holds nothing.  Any other file that does not
    start with this version's header raises: its records cannot be read,
    and treating it as empty would erase them."""
    records: List[LogRecord] = []
    if len(data) < len(_HEADER) and _HEADER.startswith(data):
        return records, 0
    if data[:len(_HEADER)] != _HEADER:
        raise ValueError(f"{path}: not a version-{WAL_VERSION} WAL "
                         f"(header {data[:len(_HEADER)]!r})")
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
    records, _ = _scan(data, path)
    return records


class MemoryWal(LogTail):
    """The tail with no device under it: a force has nothing to write.
    This is the WAL of the ``SiteHost``-over-kernel conformance leg."""

    def force(self, lsn: Optional[int] = None) -> List[Callable[[], None]]:
        """Make the prefix up to ``lsn`` (default: everything) durable;
        returns the watches that became satisfied, which the caller
        fires (after any completion pacing it applies)."""
        return self.publish(self.take(lsn))


class FileWal(LogTail):
    """One site's on-disk WAL.

    All methods are synchronous; the live substrate calls them from the
    event loop (force latency *is* the durability cost the paper
    measures).  A force hands the file every record it takes as one
    ``write``, however many were appended since the last one — the live
    substrate makes one force per event-loop wake-up, to the highest LSN
    any of that wake-up's forces asked for, so that is one write for
    all of them.  ``fsync=False`` trades real durability for speed in
    harnesses that never crash-test.
    """

    def __init__(self, path: str, fsync: bool = True):
        self.path = path
        self._fsync = fsync
        # The first write/flush/fsync error; set once, never cleared.
        self._failed: Optional[OSError] = None
        existing = b""
        try:
            with open(path, "rb") as fh:
                existing = fh.read()
        except FileNotFoundError:
            pass
        self._recovered, valid = _scan(existing, path)
        self._file = open(path, "r+b" if existing else "w+b")
        if valid < len(_HEADER):
            # Fresh file, or a torn first header write: start over.
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

    def _check_alive(self) -> None:
        if self._failed is not None:
            raise OSError(f"WAL {self.path} is dead: an earlier write "
                          f"failed ({self._failed})") from self._failed

    def append(self, record: LogRecord) -> LogRecord:
        self._check_alive()
        return super().append(record)

    def force(self, lsn: Optional[int] = None) -> List[Callable[[], None]]:
        """:meth:`MemoryWal.force`, with one write and an fsync first.
        An ``OSError`` from either kills the WAL (module docstring)."""
        self._check_alive()
        records = self.take(lsn)
        if records:
            batch = []
            for record in records:
                body = record_json(record).encode("ascii")
                batch += _REC.pack(len(body), zlib.crc32(body)), body
            try:
                self._file.write(b"".join(batch))
                self._file.flush()
                if self._fsync:
                    os.fsync(self._file.fileno())
            except OSError as exc:
                self._failed = exc
                raise
        return self.publish(records)

    def close(self) -> None:
        try:
            self._file.close()
        except OSError:
            # Closing flushes: a dead WAL fails again here, and has
            # already said so.
            if self._failed is None:
                raise
