"""Unit tests for the write-ahead log, disk model, and stable storage."""

import pytest

from repro.config import rt_pc_profile
from repro.log.disk import DiskModel
from repro.log.records import commit_record, update_record
from repro.log.storage import StableStore, StableStoreDirectory
from repro.log.wal import WriteAheadLog
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.tracing import Tracer

from tests.conftest import run_proc


def build_wal(site="a"):
    k = Kernel()
    cost = rt_pc_profile()
    disk = DiskModel(k, cost)
    store = StableStore(site)
    wal = WriteAheadLog(k, cost, disk, store, site, Tracer())
    return k, wal, disk, store


# ------------------------------------------------------- stable store


def test_an_empty_store_has_no_lsns():
    store = StableStore("a")
    assert (store.first_lsn(), store.last_lsn()) == (0, 0)


def test_store_requires_lsn():
    store = StableStore("a")
    with pytest.raises(ValueError):
        store.append(commit_record("T1@a", "a"))


def test_store_roundtrips_records():
    store = StableStore("a")
    rec = update_record("T1@a", "a", "s", "x", 1, 2)
    rec.lsn = 1
    store.append(rec)
    got = list(store.records())
    assert len(got) == 1
    assert got[0].payload["new"] == 2
    assert got[0] is not rec  # deserialised copy, nothing shared


def test_store_last_lsn():
    store = StableStore("a")
    assert store.last_lsn() == 0
    rec = commit_record("T1@a", "a")
    rec.lsn = 42
    store.append(rec)
    assert store.last_lsn() == 42


@pytest.mark.parametrize("lsn", [41, 42])
def test_store_refuses_an_lsn_not_above_its_last(lsn):
    """Two records with one LSN, or one behind the durable prefix, is a
    second writer (a dead incarnation's flush): refused, not stored."""
    store = StableStore("a")
    first = commit_record("T1@a", "a")
    first.lsn = 42
    store.append(first)
    late = commit_record("T2@a", "a")
    late.lsn = lsn
    with pytest.raises(ValueError, match="not above"):
        store.append(late)
    assert len(store) == 1 and store.last_lsn() == 42


def test_store_directory_is_per_site_and_stable():
    directory = StableStoreDirectory()
    a = directory.for_site("a")
    assert directory.for_site("a") is a
    directory.for_site("b")
    assert directory.sites() == ["a", "b"]


# ---------------------------------------------------------------- WAL


def test_append_assigns_monotonic_lsns():
    k, wal, disk, store = build_wal()
    r1 = wal.append(commit_record("T1@a", "a"))
    r2 = wal.append(commit_record("T2@a", "a"))
    assert (r1.lsn, r2.lsn) == (1, 2)
    assert wal.last_lsn == 2


def test_append_is_volatile_until_forced():
    k, wal, disk, store = build_wal()
    wal.append(commit_record("T1@a", "a"))
    assert len(store) == 0
    assert wal.durable_lsn == 0


def test_force_writes_through_and_takes_disk_time():
    k, wal, disk, store = build_wal()
    wal.append(commit_record("T1@a", "a"))

    def body():
        yield from wal.force(1)
        return k.now

    elapsed = run_proc(k, body())
    assert elapsed >= 15.0
    assert wal.durable_lsn == 1
    assert len(store) == 1


def test_force_covers_earlier_records():
    k, wal, disk, store = build_wal()
    wal.append(update_record("T1@a", "a", "s", "x", 0, 1))
    wal.append(commit_record("T1@a", "a"))

    def body():
        yield from wal.force(2)

    run_proc(k, body())
    kinds = [r.kind.value for r in store.records()]
    assert kinds == ["update", "commit"]
    assert disk.writes == 1  # one write covered both


def test_force_already_durable_is_free():
    k, wal, disk, store = build_wal()
    wal.append(commit_record("T1@a", "a"))

    def body():
        yield from wal.force(1)
        t_mid = k.now
        yield from wal.force(1)
        return (t_mid, k.now)

    t_mid, t_end = run_proc(k, body())
    assert t_mid == t_end
    assert disk.writes == 1


def test_unbatched_concurrent_forces_serialize():
    """Without group commit, N committers pay N serial disk writes."""
    k, wal, disk, store = build_wal()
    finished = []

    def committer(i):
        rec = wal.append(commit_record(f"T{i}@a", "a"))
        yield from wal.force(rec.lsn)
        finished.append(k.now)

    for i in range(3):
        Process(k, committer(i))
    k.run()
    assert disk.writes == 3
    assert finished[-1] >= 45.0


def test_partial_force_leaves_later_records_buffered():
    k, wal, disk, store = build_wal()
    wal.append(commit_record("T1@a", "a"))
    wal.append(commit_record("T2@a", "a"))

    def body():
        yield from wal.force(1)

    run_proc(k, body())
    assert wal.durable_lsn == 1
    assert len(wal.buffered_records()) == 1


def test_force_past_the_tail_clamps_to_the_tail():
    """A force for an LSN nobody appended yet covers what exists —
    nothing, on an empty log — and must not publish the unwritten LSNs
    as durable: the record that later takes one still needs its own
    force to reach the store."""
    k, wal, disk, store = build_wal()

    def force(lsn):
        yield from wal.force(lsn)

    run_proc(k, force(5))
    assert wal.durable_lsn == 0
    assert (len(store), disk.writes) == (0, 0)
    rec = wal.append(commit_record("T1@a", "a"))
    assert rec.lsn == 1 and wal.durable_lsn == 0
    run_proc(k, force(rec.lsn))
    assert wal.durable_lsn == 1
    assert [r.lsn for r in store.records()] == [1]
    assert disk.writes == 1


def test_lsn_continuity_across_restart():
    """A WAL rebuilt over the same store continues the LSN sequence."""
    k, wal, disk, store = build_wal()
    wal.append(commit_record("T1@a", "a"))

    def body():
        yield from wal.force(1)

    run_proc(k, body())
    # Simulate a crash: buffered tail lost, new WAL over the same store.
    wal2 = WriteAheadLog(k, rt_pc_profile(), disk, store, "a", Tracer())
    rec = wal2.append(commit_record("T2@a", "a"))
    assert rec.lsn == 2
    assert wal2.durable_lsn == 1


def test_durability_watch_fires_after_flush():
    k, wal, disk, store = build_wal()
    rec = wal.append(commit_record("T1@a", "a"))
    fired = []
    wal.watch_durable(rec.lsn, lambda: fired.append(k.now))

    def body():
        yield from wal.force(rec.lsn)

    run_proc(k, body())
    k.run()
    assert len(fired) == 1
    assert fired[0] >= 15.0


def test_durability_watch_immediate_when_already_durable():
    k, wal, disk, store = build_wal()
    rec = wal.append(commit_record("T1@a", "a"))

    def body():
        yield from wal.force(rec.lsn)

    run_proc(k, body())
    fired = []
    wal.watch_durable(rec.lsn, lambda: fired.append(True))
    k.run()
    assert fired == [True]


# ---------------------------------------------------------------- disk


def test_disk_write_time_scales_with_bytes():
    k = Kernel()
    disk = DiskModel(k, rt_pc_profile())
    assert disk.write_time(0) == 15.0
    assert disk.write_time(10240) > 15.0


def test_disk_utilization_tracking():
    k = Kernel()
    disk = DiskModel(k, rt_pc_profile())

    def body():
        yield from disk.write(64)

    run_proc(k, body())
    assert disk.writes == 1
    assert disk.utilization(k.now) > 0.9
