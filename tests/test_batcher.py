"""Unit tests for group commit."""

from functools import partial

from repro.config import rt_pc_profile
from repro.log.batcher import GroupCommitBatcher
from repro.log.disk import DiskModel
from repro.log.records import commit_record
from repro.log.storage import StableStore
from repro.log.wal import WriteAheadLog
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Sleep
from repro.sim.tracing import Tracer


def build(enabled=True, window=30.0, limit=32):
    k = Kernel()
    cost = rt_pc_profile()
    wal = WriteAheadLog(k, cost, DiskModel(k, cost), StableStore("a"),
                        "a", Tracer())
    batcher = GroupCommitBatcher(k, wal, Tracer(), partial(Process, k),
                                 window_ms=window, batch_limit=limit,
                                 enabled=enabled)
    return k, wal, batcher


def test_concurrent_forces_fold_into_one_write():
    k, wal, batcher = build()
    done = []

    def committer(i):
        rec = wal.append(commit_record(f"T{i}@a", "a"))
        yield from batcher.force(rec.lsn)
        done.append(k.now)

    for i in range(5):
        Process(k, committer(i))
    k.run()
    assert wal.disk.writes == 1
    assert batcher.mean_batch_size == 5.0
    # All five committers released together.
    assert len(set(done)) == 1


def test_window_adds_latency():
    """Group commit 'sacrifices latency in order to increase throughput'."""
    k, wal, batcher = build(window=30.0)

    def committer():
        rec = wal.append(commit_record("T1@a", "a"))
        yield from batcher.force(rec.lsn)
        return k.now

    proc = Process(k, committer())
    k.run()
    # window (30) + disk write (~15) > unbatched force (~15)
    assert proc.done.value >= 45.0


def test_batch_limit_fires_early():
    k, wal, batcher = build(window=10_000.0, limit=3)
    done = []

    def committer(i):
        rec = wal.append(commit_record(f"T{i}@a", "a"))
        yield from batcher.force(rec.lsn)
        done.append(k.now)

    for i in range(3):
        Process(k, committer(i))
    k.run()
    assert done and max(done) < 100.0  # did not wait for the huge window


def test_disabled_batcher_degrades_to_plain_force():
    k, wal, batcher = build(enabled=False)
    done = []

    def committer(i):
        rec = wal.append(commit_record(f"T{i}@a", "a"))
        yield from batcher.force(rec.lsn)
        done.append(k.now)

    for i in range(3):
        Process(k, committer(i))
    k.run()
    assert wal.disk.writes == 3
    assert batcher.rounds_flushed == 0


def test_rounds_do_not_leak_across_quiet_periods():
    k, wal, batcher = build(window=30.0)

    def committer(i, delay):
        yield Sleep(delay)
        rec = wal.append(commit_record(f"T{i}@a", "a"))
        yield from batcher.force(rec.lsn)

    Process(k, committer(0, 0.0))
    Process(k, committer(1, 500.0))
    k.run()
    assert batcher.rounds_flushed == 2


def test_force_of_already_durable_lsn_is_noop():
    k, wal, batcher = build()

    def body():
        rec = wal.append(commit_record("T1@a", "a"))
        yield from batcher.force(rec.lsn)
        t_mid = k.now
        yield from batcher.force(rec.lsn)
        assert k.now == t_mid

    Process(k, body())
    k.run()


def test_records_appended_during_round_still_covered():
    """A force request whose LSN outruns the fired round re-forces."""
    k, wal, batcher = build(window=5.0)
    done = []

    def early():
        rec = wal.append(commit_record("T1@a", "a"))
        yield from batcher.force(rec.lsn)
        done.append(("early", rec.lsn <= wal.durable_lsn))

    def late():
        yield Sleep(4.9)
        rec = wal.append(commit_record("T2@a", "a"))
        yield from batcher.force(rec.lsn)
        done.append(("late", rec.lsn <= wal.durable_lsn))

    Process(k, early())
    Process(k, late())
    k.run()
    assert dict(done) == {"early": True, "late": True}
