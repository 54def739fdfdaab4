"""The common stable-storage log.

Camelot implements atomicity and permanence with a single write-ahead
log per site, accessed only through the disk manager.  This package
provides:

- :mod:`repro.log.records` — typed log records (update, prepare, commit,
  abort, replication, end) with a serialisable wire form;
- :mod:`repro.log.storage` — crash-surviving stable storage, and the
  one log tail (LSNs, volatile suffix, durable prefix, durability
  watches) every WAL here and in :mod:`repro.live` is a device under;
- :mod:`repro.log.disk` — the log device timing model (~15 ms per force,
  ~30 writes/s, the numbers the paper's Table 2 reports);
- :mod:`repro.log.wal` — the write-ahead log proper: that tail over
  the modelled disk, lazy buffered writes, synchronous forces;
- :mod:`repro.log.batcher` — group commit: folding many concurrent force
  requests into one disk write (the enabler for multithreaded TranMan
  throughput, paper §3.5 and Figure 4).
"""

from repro.log.batcher import GroupCommitBatcher
from repro.log.disk import DiskModel
from repro.log.records import (
    LogRecord,
    RecordKind,
    abort_pledge_record,
    abort_record,
    commit_record,
    coordinator_commit_record,
    end_record,
    prepare_record,
    replication_record,
    update_record,
)
from repro.log.storage import StableStore
from repro.log.wal import WriteAheadLog

__all__ = [
    "DiskModel",
    "GroupCommitBatcher",
    "LogRecord",
    "RecordKind",
    "StableStore",
    "WriteAheadLog",
    "abort_pledge_record",
    "abort_record",
    "commit_record",
    "coordinator_commit_record",
    "end_record",
    "prepare_record",
    "replication_record",
    "update_record",
]
