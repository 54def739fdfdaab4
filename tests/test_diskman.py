"""Unit tests for the disk manager (logger + buffer pool)."""

import pytest

from repro import CamelotSystem, SystemConfig
from repro.log.records import commit_record, update_record
from repro.servers.diskman import WalProtocolError


@pytest.fixture
def system():
    return CamelotSystem(SystemConfig(sites={"a": 1}))


@pytest.fixture
def diskman(system):
    return system.runtime("a").diskman


def test_append_is_lazy(system, diskman):
    diskman.append(commit_record("T1@a", "a"))
    assert diskman.disk_writes == 0


def test_force_makes_durable(system, diskman):
    def body():
        rec = diskman.append(commit_record("T1@a", "a"))
        yield from diskman.force(rec.lsn)
        return rec.lsn <= diskman.wal.durable_lsn

    assert system.run_process(body())
    assert diskman.disk_writes == 1


def test_lazy_sweep_flushes_eventually(system, diskman):
    diskman.append(commit_record("T1@a", "a"))
    system.run_for(500.0)
    assert diskman.wal.durable_lsn >= 1
    assert system.tracer.count("diskman.lazy_sweep") >= 1


def test_sweep_debounces_while_log_is_hot(system, diskman):
    """Appends keep arriving: the sweep waits for a quiet gap."""
    for i in range(3):
        system.kernel.schedule(i * 10.0, diskman.append,
                               commit_record(f"T{i}@a", "a"))
    system.run_for(24.0)  # constant traffic, still inside debounce
    assert diskman.wal.durable_lsn == 0


def test_watch_durable_fires(system, diskman):
    fired = []
    rec = diskman.append(commit_record("T1@a", "a"))
    diskman.watch_durable(rec.lsn, lambda: fired.append(system.kernel.now))
    system.run_for(500.0)
    assert fired, "watch never fired"


def test_pageout_respects_wal_protocol(system, diskman):
    """A touched page whose log records are volatile forces the log
    before paging out — no WalProtocolError and both disks written."""
    rec = diskman.append(update_record("T1@a", "a", "s", "x", None, 1))
    diskman.touch_page("s", "x", 1, rec.lsn)
    system.run_for(1_200.0)
    assert system.tracer.count("diskman.pageout") >= 1
    assert diskman.wal.durable_lsn >= rec.lsn
    assert diskman.data_disk.writes >= 1


def test_a_touch_during_the_pageout_write_leaves_the_page_dirty(system, diskman):
    """The pager used to clear the dirty bit *after* its ~15 ms write,
    wiping a touch that landed inside it: the page read clean with its
    newest value never written back."""
    diskman.touch_page("s", "x", 1, 0)
    system.kernel.schedule(505.0, diskman.touch_page, "s", "x", 2, 0)
    system.run_for(605.0)  # first pageout: 500 -> ~515
    assert diskman.data_disk.writes == 1
    assert diskman.dirty_pages() == ["s/x"]
    system.run_for(2_000.0)
    assert diskman.data_disk.writes == 2
    assert diskman.dirty_pages() == []


def test_wal_protocol_assertion_guards_corruption(system, diskman):
    from repro.servers.diskman import _BufferedPage

    page = _BufferedPage("s/x")
    page.rec_lsn = 99  # far beyond anything durable
    with pytest.raises(WalProtocolError):
        diskman._assert_wal_protocol(page)


def test_group_commit_wiring(system):
    gc_system = CamelotSystem(SystemConfig(sites={"a": 1},
                                           group_commit=True))
    dm = gc_system.runtime("a").diskman
    assert dm.batcher.enabled
    dm2 = system.runtime("a").diskman
    assert not dm2.batcher.enabled


# ------------------------------------- group commit across a site crash
#
# A round is volatile state of the machine that opened it: neither its
# window timer nor its flush may outlive the site.

def _gc_system():
    return CamelotSystem(SystemConfig(sites={"a": 1}, group_commit=True))


def _force_commit(system, tid):
    """A site thread appends a commit record and forces it."""
    runtime = system.runtime("a")

    def body():
        rec = runtime.diskman.append(commit_record(tid, "a"))
        yield from runtime.diskman.force(rec.lsn)

    runtime.site.spawn(body(), "committer")


@pytest.mark.parametrize("crash_at", [
    5.0,    # the round is open, its 30 ms window timer armed
    40.0,   # the window closed at ~30 ms, the 15 ms write is in flight
])
def test_group_commit_round_dies_with_its_site(crash_at):
    system = _gc_system()
    store = system.stores.for_site("a")
    _force_commit(system, "T1@a")
    system.run_for(crash_at)
    assert system.runtime("a").diskman.wal.last_lsn == 1
    system.crash_site("a")
    assert len(store) == 0
    system.run_for(100.0)
    assert [r.tid for r in store.records()] == []


def test_restarted_site_is_not_written_by_its_dead_incarnation():
    system = _gc_system()
    store = system.stores.for_site("a")
    _force_commit(system, "OLD@a")
    system.run_for(5.0)
    system.crash_site("a")
    system.run_for(5.0)
    system.restart_site("a")       # t=10: the old window timer is due at ~30
    _force_commit(system, "NEW@a")
    system.run_for(200.0)
    lsns = [r.lsn for r in store.records()]
    assert lsns == sorted(set(lsns))
    assert [r.tid for r in store.records()] == ["NEW@a"]
