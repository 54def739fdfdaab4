"""The tickless disk-manager daemons against the polling loops they replaced.

``DiskManager``'s lazy-flush sweep and pager used to wake every 10 ms /
500 ms and look.  They now keep that grid as arithmetic, park while
there is nothing a tick could do and sleep straight to the first tick
that can fire.  The polling bodies live on here, as the reference: the
two managers differ only in how they wait, so on one schedule of
appends, foreground forces and page touches they must sweep, page out
and publish durability at the very same instants.

Scheduled operations are posted before the kernel runs, so at an
instant they share with a daemon's wake-up they run first under either
manager; that tie order is the one thing the waiting itself decides
(DESIGN.md §12).
"""

from hypothesis import example, given, settings, strategies as st

from repro import CamelotSystem, SystemConfig
from repro.config import CostModel
from repro.log.records import commit_record, update_record
from repro.log.storage import StableStore
from repro.mach.site import Site
from repro.servers.diskman import DiskManager
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.tracing import Tracer

POLL = DiskManager.LAZY_FLUSH_POLL_MS
DEBOUNCE = DiskManager.LAZY_FLUSH_DEBOUNCE_MS
HORIZON_MS = 2_600.0


class PollingDiskManager(DiskManager):
    """The parent commit's loops, verbatim but for two things: the pager
    clears the dirty bit before its write (the fix this PR makes in
    both), and each sweep wake-up is logged so a test can aim at it."""

    def _lazy_flush_loop(self):
        self.ticks = []
        while True:
            yield Sleep(self.LAZY_FLUSH_POLL_MS)
            self.ticks.append(self.kernel.now)
            if (self.wal.last_lsn > self.wal.durable_lsn
                    and (self.kernel.now - self.wal.last_append_at)
                    >= self.LAZY_FLUSH_DEBOUNCE_MS):
                self.tracer.record(self.kernel.now, "diskman.lazy_sweep",
                                   site=self.site.name)
                yield from self.wal.force(self.wal.last_lsn)

    def _pageout_loop(self):
        while True:
            yield Sleep(self.PAGEOUT_INTERVAL_MS)
            for key in self.dirty_pages():
                entry = self._pages[key]
                while entry.rec_lsn > self.wal.durable_lsn:
                    yield from self.wal.force(entry.rec_lsn)
                self._assert_wal_protocol(entry)
                entry.dirty = False
                yield from self.data_disk.write(256)
                self.tracer.record(self.kernel.now, "diskman.pageout",
                                   site=self.site.name, page=key)


def boot(manager_class):
    kernel = Kernel()
    cost = CostModel()
    site = Site(kernel, "a", cost)
    tracer = Tracer()
    return kernel, site, tracer, manager_class(
        kernel, site, cost, StableStore("a"), tracer)


def run(manager_class, schedule):
    """Drive one manager through ``schedule`` (``(at, op, page)``
    triples); return it and everything the two must agree on."""
    kernel, site, tracer, dm = boot(manager_class)
    durable = []
    publish = dm.wal.publish

    def logged_publish(batch):
        ready = publish(batch)
        durable.append((kernel.now, dm.wal.durable_lsn))
        return ready

    dm.wal.publish = logged_publish

    def do(index, op, page):
        if op == "append":
            dm.append(commit_record(f"T{index}@a", "a"))
        elif op == "force":
            site.spawn(dm.force(), f"force{index}")
        else:
            record = dm.append(
                update_record(f"T{index}@a", "a", "s", page, None, index))
            dm.touch_page("s", page, index, record.lsn)

    for index, (at, op, page) in enumerate(schedule):
        kernel.schedule(at, do, index, op, page)
    kernel.run(until=HORIZON_MS)
    observed = {
        "sweeps": [e.time for e in tracer.events
                   if e.kind == "diskman.lazy_sweep"],
        "pageouts": [(e.time, e.detail["page"]) for e in tracer.events
                     if e.kind == "diskman.pageout"],
        "durable": durable,
        "dirty": dm.dirty_pages(),
        "log_writes": dm.disk.writes,
        "data_writes": dm.data_disk.writes,
    }
    return dm, observed


# Every operation sits its own few hundredths of a millisecond off a
# quarter-millisecond lattice.  On the bare lattice two disk writes can
# start a whole number of polls apart, and the second then ends at the
# very instant of a tick on the grid the first one shifted; which of
# the two the kernel runs first is the tie the docstring sets aside.
times = st.integers(min_value=0, max_value=int(2_000 / 0.25)).map(
    lambda n: n * 0.25)
operations = st.tuples(
    times, st.sampled_from(["append", "force", "touch"]),
    st.sampled_from(["x", "y", "z"]))
schedules = st.lists(operations, max_size=14)


@settings(max_examples=150, deadline=None)
@given(schedules, st.integers(min_value=0), st.integers(min_value=0),
       st.floats(min_value=0.0, max_value=14.0))
# Two ties the model itself builds, no lattice needed, because both
# grids start at boot and every one-record log write takes as long:
# the pager's tick at 500 is also the sweep's; and the pager's own log
# force, started at 500, ends on the grid the sweep's first write set.
@example([(465.25, "touch", "x"), (465.25, "append", "x")], 0, 0, 0.0)
@example([(0.0, "touch", "x"), (480.25, "touch", "x")], 0, 0, 0.0)
def test_tickless_daemons_act_when_the_polling_ones_did(
        schedule, pick_tick, pick_sweep, into_write):
    schedule = [(at + (index + 1) * 0.0137, op, page)
                for index, (at, op, page) in enumerate(schedule)]
    polling, expected = run(PollingDiskManager, schedule)
    _, observed = run(DiskManager, schedule)
    assert observed == expected

    # Aim two more appends at the grid itself: exactly on one of the
    # reference's own wake-ups, and inside one of its sweep writes.  Up
    # to the earlier of the two the run is the one above, so the
    # instants are still what they were.
    aimed = list(schedule)
    if polling.ticks:
        aimed.append(
            (polling.ticks[pick_tick % len(polling.ticks)], "append", "x"))
    if expected["sweeps"]:
        sweeps = expected["sweeps"]
        aimed.append(
            (sweeps[pick_sweep % len(sweeps)] + into_write, "append", "x"))
    polling, expected = run(PollingDiskManager, aimed)
    _, observed = run(DiskManager, aimed)
    assert observed == expected


def test_operations_landing_on_the_unshifted_grids_to_the_bit():
    """What the off-lattice schedules above never produce: a touch at
    the parked pager's own 500 ms tick (paged out at it, not 500 ms
    later), appends on the sweep's 10 ms ticks."""
    schedule = [(500.0, "touch", "x"), (1000.0, "touch", "y"),
                (1040.0, "append", "x"), (1050.0, "append", "x")]
    _, expected = run(PollingDiskManager, schedule)
    _, observed = run(DiskManager, schedule)
    assert observed == expected
    assert expected["pageouts"][0][0] < 600.0


def test_the_daemons_park_and_skip():
    """The point of the change, as a count: a lone append costs the
    sweep a wake-up and one sleep to the tick that flushes it, not a
    wake-up every 10 ms."""
    for manager, ceiling in ((PollingDiskManager, None), (DiskManager, 12)):
        kernel, _, _, dm = boot(manager)
        kernel.schedule(103.0, dm.append, commit_record("T1@a", "a"))
        fired = 0
        while kernel.step() and kernel.now <= HORIZON_MS:
            fired += 1
        if ceiling is None:
            assert fired > HORIZON_MS / POLL
        else:
            assert fired <= ceiling
            assert dm.wal.durable_lsn == 1
            assert kernel.pending == 0  # both daemons parked: nothing armed


def test_a_sweeper_parked_at_the_crash_does_not_strand_the_restarted_site():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    system.run_for(200.0)
    assert system.runtime("a").diskman._sweep_idle is not None  # parked
    system.crash_site("a")
    system.run_for(50.0)
    diskman = system.restart_site("a").diskman
    system.run_for(33.0)
    record = diskman.append(commit_record("T1@a", "a"))
    write = diskman.disk.write_time(record.size_bytes)
    system.run_for(DEBOUNCE + POLL + write)
    assert diskman.wal.durable_lsn >= record.lsn
    assert system.tracer.count("diskman.lazy_sweep") == 1
