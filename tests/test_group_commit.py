"""Group commit on the live engine: a force parks its transaction
family, not the site, and a ``LiveSite`` writes its WAL once per
event-loop wake-up for every force asked for in it.

The first tests drive ``SiteHost`` over a substrate that holds each
force until the test completes it; the rest drive a real ``LiveSite``
(fsync off) through ``_Inbound.data_received``, so "one read" is one
call, whatever TCP would have made of the bytes."""

import asyncio
import errno
import os

import pytest

from repro.core.messages import PrepareRequest, VoteResponse
from repro.core.tid import TID
from repro.live.codec import encode_message_frame
from repro.live.host import SiteHost, Substrate
from repro.live.scenario import conformance_cost
from repro.live.site import LiveSite, _Inbound
from repro.live.walfile import MemoryWal, _scan
from repro.sim.tracing import Tracer

A, B = TID("T1@alpha"), TID("T2@alpha")


class _Timer:
    def __init__(self, fn):
        self.fn = fn

    def cancel(self):
        self.fn = None


class _HeldForces(Substrate):
    """Records sends; holds each force until the test completes it."""

    def __init__(self):
        self.wal = MemoryWal()
        self.tracer = Tracer(keep=False)
        self.sent, self.forces, self.timers = [], [], []

    def now(self):
        return 0.0

    def send(self, dst, message):
        self.sent.append(message)

    def force(self, lsn, done):
        self.forces.append((lsn, done))

    def start_timer(self, delay_ms, fn):
        timer = _Timer(fn)
        self.timers.append((delay_ms, timer))
        return timer

    def fire_due(self):
        """Fire what a zero delay armed (nothing, unless a local vote
        took a timer); protocol timeouts never fire here."""
        due = [timer for delay, timer in self.timers if not delay]
        self.timers = [(d, t) for d, t in self.timers if d]
        for timer in due:
            if timer.fn is not None:
                timer.fn()

    def complete(self, lsn):
        done = dict(self.forces).get(lsn)
        self.forces.remove((lsn, done))
        for fn in self.wal.force(lsn):
            fn()
        done()


def _beta():
    substrate = _HeldForces()
    return SiteHost("beta", substrate, conformance_cost()), substrate


def _prepare(host, substrate, tid):
    host.deliver("alpha", PrepareRequest(tid=tid, sender="alpha"))
    substrate.fire_due()


def _votes(substrate):
    return [str(m.tid) for m in substrate.sent if isinstance(m, VoteResponse)]


def test_another_family_runs_to_its_own_force_while_one_is_parked():
    host, substrate = _beta()
    _prepare(host, substrate, A)
    assert [lsn for lsn, _ in substrate.forces] == [1]   # A's prepare
    _prepare(host, substrate, B)
    assert [lsn for lsn, _ in substrate.forces] == [1, 2]
    assert not substrate.timers       # a zero-delay vote takes no timer
    substrate.complete(2)
    assert _votes(substrate) == [str(B)]   # B answers, A still parked
    substrate.complete(1)
    assert _votes(substrate) == [str(B), str(A)]
    assert not host._parked


def test_a_retransmission_waits_behind_its_family_then_runs_in_order():
    """Arrival order A, A again (the vote timer's retry), B: the retry
    waits behind A's parked run while B, which came after it, runs to
    its force; once A's force completes, A answers, then the retry."""
    host, substrate = _beta()
    _prepare(host, substrate, A)
    _prepare(host, substrate, A)
    _prepare(host, substrate, B)
    assert [lsn for lsn, _ in substrate.forces] == [1, 2]
    assert list(host._parked[A.family]) and not host._parked[B.family]
    substrate.complete(2)
    assert _votes(substrate) == [str(B)]
    substrate.complete(1)
    assert _votes(substrate) == [str(B), str(A), str(A)]
    assert not host._parked


def _frames(count):
    return b"".join(
        encode_message_frame("alpha", PrepareRequest(
            tid=TID(f"T{i}@alpha"), sender="alpha"))
        for i in range(1, count + 1))


class _Writes:
    """A file whose ``write`` is recorded (and may raise)."""

    def __init__(self, file, error=None):
        self._file, self.error, self.data = file, error, []

    def write(self, data):
        self.data.append(data)
        if self.error is not None:
            raise self.error
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)


def _records(data):
    records, _ = _scan(b"RWAL\x01" + data, "batch")
    return records


async def _beta_site(tmp_path, **kwargs):
    site = LiveSite("beta", str(tmp_path), fsync=False, **kwargs)
    writes = site.wal._file = _Writes(site.wal._file)
    await site.start()
    return site, writes


async def _until(predicate, timeout=5.0):
    async def wait():
        while not predicate():
            await asyncio.sleep(0.002)
    await asyncio.wait_for(wait(), timeout)


def test_eight_prepares_in_one_read_are_one_write_of_eight_records(
        tmp_path):
    async def scenario():
        site, writes = await _beta_site(tmp_path)
        try:
            _Inbound(site).data_received(_frames(8))
            await _until(lambda: site.tracer.count(
                "tranman.datagram") == 8)
            return writes.data, site.tracer
        finally:
            await site.stop()

    data, tracer = asyncio.run(scenario())
    assert [len(_records(d)) for d in data] == [8]
    assert {r.tid for r in _records(data[0])} == \
        {f"T{i}@alpha" for i in range(1, 9)}
    assert tracer.count("tranman.datagram") == 8    # eight YES votes


def test_a_failed_batched_write_fail_stops_with_no_completion(tmp_path):
    async def scenario():
        site, writes = await _beta_site(tmp_path)
        writes.error = OSError(errno.ENOSPC, "injected full disk")
        _Inbound(site).data_received(_frames(8))
        await asyncio.wait_for(site.serve_until_stopped(), timeout=5.0)
        return site, writes.data

    site, data = asyncio.run(scenario())
    assert isinstance(site.failure, OSError)
    assert [len(_records(d)) for d in data] == [8]   # one attempt, all 8
    # No ``done`` fired: every family is still parked, none voted.
    assert sorted(site.host._parked) == [f"T{i}@alpha" for i in range(1, 9)]
    assert site.tracer.count("tranman.datagram") == 0
    assert site.wal.durable_lsn == 0
    with pytest.raises(OSError, match="dead"):
        site.wal.force(None)
    assert os.path.getsize(site.wal.path) == 5       # the header only


def test_a_held_token_in_a_batch_withholds_only_its_own_family(tmp_path):
    """One wake-up forces a one-site commit (``2pc.commit_force``) and
    a subordinate's prepare (``2pc.prepare_force``, held): one write
    holds both, the commit completes, the prepare's family stops."""
    async def scenario():
        site, writes = await _beta_site(
            tmp_path, hold_force_tokens=("2pc.prepare_force",))
        try:
            _Inbound(site).data_received(_frames(1))
            # Behind the frame on the delay line: one batch, one wake-up.
            mine = []
            site.inbound.put(lambda: mine.append(
                site.host.begin_commit("2pc", [])))
            await _until(lambda: site.host.held and site.host.completions)
            return mine[0], writes.data, site.host, site.tracer
        finally:
            await site.stop()

    mine, data, host, tracer = asyncio.run(scenario())
    assert sorted(r.tid for r in _records(data[0])) == \
        sorted([str(mine), "T1@alpha"])
    assert host.held == ["2pc.prepare_force"]
    assert {t: o.value for t, o in host.completions.items()} == \
        {str(mine): "committed"}
    assert tracer.count("tranman.datagram") == 0    # T1 never voted
    assert not host._parked
