"""repro.live.walfile: the on-disk WAL keeps the simulator WAL's
contract — LSN-ordered appends, prefix forces, durability watches —
while surviving what real files suffer: torn tails, truncated headers,
kill -9 between append and force.  Recovery reads it with the same
:func:`repro.servers.recovery.analyze` discriminators the simulator
uses, which is the property the live kill-9 demos stand on."""

import asyncio
import errno
import json
import os
import struct
import zlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import rt_pc_profile
from repro.log import records as log_records
from repro.core.outcomes import Outcome
from repro.log.disk import DiskModel
from repro.log.records import (
    RecordKind,
    commit_record,
    coordinator_commit_record,
    end_record,
    prepare_record,
    replication_record,
)
from repro.live.walfile import FileWal, MemoryWal, read_records, record_json
from repro.log.storage import StableStore
from repro.log.wal import WriteAheadLog
from repro.servers.recovery import analyze
from repro.sim.kernel import Kernel
from repro.sim.tracing import Tracer

from tests.conftest import run_proc


def _wal(tmp_path, name="site.wal", fsync=False):
    return FileWal(str(tmp_path / name), fsync=fsync)


class TestAppendForce:
    def test_append_assigns_dense_lsns(self, tmp_path):
        wal = _wal(tmp_path)
        r1 = wal.append(prepare_record("T1@a", "b", coordinator="a"))
        r2 = wal.append(commit_record("T1@a", "a"))
        assert (r1.lsn, r2.lsn) == (1, 2)
        assert wal.durable_lsn == 0
        wal.close()

    def test_force_is_prefix_durable(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(1)
        assert wal.durable_lsn == 1
        # Reader (recovery's view) sees exactly the durable prefix.
        assert [r.kind for r in read_records(wal.path)] == \
            [RecordKind.PREPARE]
        wal.force(None)
        assert wal.durable_lsn == 2
        assert len(read_records(wal.path)) == 2
        wal.close()

    def test_watch_fires_on_covering_force_only(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        fired = []
        wal.watch_durable(2, lambda: fired.append("2"))
        ready = wal.force(1)
        assert ready == [] and fired == []
        ready = wal.force(2)
        assert len(ready) == 1
        ready[0]()
        assert fired == ["2"]
        wal.close()

    def test_watch_on_already_durable_fires_immediately(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        fired = []
        wal.watch_durable(1, lambda: fired.append("now"))
        assert fired == ["now"]
        wal.close()

    def test_fsync_true_actually_fsyncs(self, tmp_path):
        # Functional floor: records are on disk after force even if the
        # process is about to die (we can only assert readability here).
        wal = _wal(tmp_path, fsync=True)
        wal.append(commit_record("T9@a", "a"))
        wal.force(None)
        assert [r.tid for r in read_records(wal.path)] == ["T9@a"]
        wal.close()


    def test_file_and_memory_wal_agree_step_for_step(self, tmp_path):
        """The log-tail contract, one append / force / watch script
        against all three devices — ``WriteAheadLog`` driven on a
        kernel, ``MemoryWal``, ``FileWal``: the same LSNs, the same
        durable prefix after every step, watches released in the same
        order.  What a device adds (modelled disk time and next-turn
        callbacks, nothing, a file) must not show in any of them."""
        def drive(wal, force, settle=lambda: None):
            log = []

            def append():
                log.append(("lsn", wal.append(commit_record("T@a", "a")).lsn))

            def watch(lsn):
                wal.watch_durable(lsn, lambda: log.append(("fired", lsn)))
                settle()        # a device may defer the callback a turn

            def forced(lsn):
                force(lsn)
                log.append(("durable", wal.durable_lsn, wal.last_lsn))

            forced(5)           # past the tail of an empty log: clamps
            for _ in range(4):
                append()
            watch(3), watch(1), watch(2)
            forced(2)
            watch(2)            # already durable: fires without a force
            forced(1)           # behind the durable prefix: nothing moves
            append()
            watch(5), watch(4)
            forced(None)
            forced(9)           # past the tail: nothing left to cover
            append()            # LSN 6 was never published by forced(9)
            log.append(("durable", wal.durable_lsn, wal.last_lsn))
            return log

        def synchronous(wal):
            def force(lsn):
                for fn in wal.force(lsn):
                    fn()
            return force

        def on_kernel(kernel, wal):
            def force(lsn):
                run_proc(kernel, wal.force(lsn))
                kernel.run()    # watches fire on the next kernel turn
            return force, kernel.run

        kernel, cost, store = Kernel(), rt_pc_profile(), StableStore("a")
        sim_wal = WriteAheadLog(kernel, cost, DiskModel(kernel, cost), store,
                                "a", Tracer())
        memory_wal, file_wal = MemoryWal(), _wal(tmp_path)
        script = drive(file_wal, synchronous(file_wal))
        assert script == drive(memory_wal, synchronous(memory_wal))
        assert script == drive(sim_wal, *on_kernel(kernel, sim_wal))
        assert [step for step in script if step[0] != "lsn"] == [
            ("durable", 0, 0),
            ("fired", 1), ("fired", 2), ("durable", 2, 4),
            ("fired", 2), ("durable", 2, 4),
            ("fired", 3), ("fired", 5), ("fired", 4), ("durable", 5, 5),
            ("durable", 5, 5), ("durable", 5, 6)]
        assert [step[1] for step in script if step[0] == "lsn"] == \
            [1, 2, 3, 4, 5, 6]
        # The durable prefix is where each device keeps it.
        assert [r.lsn for r in read_records(file_wal.path)] == [1, 2, 3, 4, 5]
        assert [r.lsn for r in store.records()] == [1, 2, 3, 4, 5]
        file_wal.close()


class TestReopenAndTornTails:
    def test_reopen_renumbers_densely_and_appends_after(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        wal2 = _wal(tmp_path)
        assert [r.lsn for r in wal2.recovered_records] == [1, 2]
        r3 = wal2.append(end_record("T1@a", "a"))
        assert r3.lsn == 3
        wal2.force(None)
        assert len(read_records(wal2.path)) == 3
        wal2.close()

    def test_unforced_suffix_is_lost_on_crash(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.force(None)
        wal.append(commit_record("T1@a", "a"))  # never forced
        wal.close()  # "kill -9": volatile tail discarded
        wal2 = _wal(tmp_path)
        assert [r.kind for r in wal2.recovered_records] == \
            [RecordKind.PREPARE]
        wal2.close()

    def test_torn_tail_truncated_at_reopen(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        # Crash mid-write of the *last* record: chop bytes off the tail.
        path = str(tmp_path / "site.wal")
        data = open(path, "rb").read()
        open(path, "wb").write(data[:-7])
        wal2 = _wal(tmp_path)
        assert [r.kind for r in wal2.recovered_records] == \
            [RecordKind.PREPARE]
        # New appends land cleanly after the valid prefix.
        wal2.append(commit_record("T1@a", "a"))
        wal2.force(None)
        assert [r.kind for r in read_records(path)] == \
            [RecordKind.PREPARE, RecordKind.COMMIT]
        wal2.close()

    def test_corrupt_payload_stops_the_scan(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        wal.close()
        path = str(tmp_path / "site.wal")
        data = bytearray(open(path, "rb").read())
        data[-3] ^= 0xFF  # flip a bit inside the last record's payload
        open(path, "wb").write(bytes(data))
        assert [r.kind for r in read_records(path)] == [RecordKind.PREPARE]

    def _forced_file(self, tmp_path):
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@a", "b", coordinator="a"))
        wal.append(coordinator_commit_record("T1@a", "a", ["b"]))
        wal.force(None)
        wal.close()
        return wal.path

    def _refused_untouched(self, path, data):
        open(path, "wb").write(data)
        with pytest.raises(ValueError, match="site.wal"):
            FileWal(path, fsync=False)
        with pytest.raises(ValueError, match="site.wal"):
            read_records(path)
        assert open(path, "rb").read() == data

    def test_a_flipped_magic_bit_refuses_to_open(self, tmp_path):
        """A damaged header is not an empty log: opening it must not
        erase the forced records behind it."""
        path = self._forced_file(tmp_path)
        data = bytearray(open(path, "rb").read())
        data[0] ^= 0x01
        self._refused_untouched(path, bytes(data))

    def test_another_version_refuses_to_open(self, tmp_path):
        path = self._forced_file(tmp_path)
        data = open(path, "rb").read()
        self._refused_untouched(path, b"RWAL\x02" + data[5:])

    def test_a_torn_first_header_write_starts_fresh(self, tmp_path):
        path = str(tmp_path / "site.wal")
        open(path, "wb").write(b"RWA")
        wal = _wal(tmp_path)
        assert wal.recovered_records == []
        wal.append(commit_record("T1@a", "a"))
        wal.force(None)
        assert [r.tid for r in read_records(path)] == ["T1@a"]
        wal.close()

    def test_missing_file_starts_fresh(self, tmp_path):
        wal = _wal(tmp_path, name="new.wal")
        assert wal.recovered_records == []
        assert os.path.getsize(wal.path) > 0  # header written eagerly
        wal.close()


def _batch_script():
    """Forces of 1, 3, 0 and 2 records, payloads nested and non-ASCII."""
    return [
        [prepare_record("T1@a", "b", coordinator="a", sites=["a", "b"],
                        quorum_sizes={"commit": 2, "abort": 1})],
        [coordinator_commit_record("T1@a", "a", ["b", "c"]),
         replication_record("T2@a", "a", {"votes": {"b": "yes"},
                                          "note": "caf\u00e9 \"q\""}),
         commit_record("T2@a", "a")],
        [],
        [end_record("T1@a", "a"), end_record("T2@a", "a")],
    ]


def _record_at_a_time(batches):
    """The file the WAL this one replaced wrote for ``batches``: one
    ``json.dumps`` and one ``write`` per record."""
    out, lsn = b"RWAL\x01", 0
    for batch in batches:
        for record in batch:
            lsn += 1
            body = json.dumps({**record.to_dict(), "lsn": lsn}, sort_keys=True,
                              separators=(",", ":")).encode("utf-8")
            out += struct.pack(">II", len(body), zlib.crc32(body)) + body
    return out


class TestBatchedForce:
    """A force hands the file everything it takes as one ``write``; the
    bytes, and what a torn or failed one leaves, are the record-at-a-time
    WAL's."""

    def test_file_is_byte_identical_to_record_at_a_time(self, tmp_path):
        wal = _wal(tmp_path)
        writes = []
        real = wal._file.write
        wal._file = _Spy(wal._file, lambda data: writes.append(data)
                         or real(data))
        for batch in _batch_script():
            for record in batch:
                wal.append(record)
            wal.force(None)
        wal.close()
        data = open(wal.path, "rb").read()
        assert data == _record_at_a_time(_batch_script())
        # One write per force that had something to write.
        sizes = [len(_record_at_a_time(_batch_script()[:k])) for k in range(5)]
        assert [len(w) for w in writes] == [
            after - before for before, after in zip(sizes, sizes[1:])
            if after > before]

    def test_a_batch_cut_at_any_byte_reopens_to_whole_records(self, tmp_path):
        first, batch = _batch_script()[:2]
        whole = _record_at_a_time([first, batch])
        ends = [len(_record_at_a_time([first, batch[:n]]))
                for n in range(len(batch) + 1)]
        path = str(tmp_path / "site.wal")
        for cut in range(ends[0], len(whole) + 1):
            with open(path, "wb") as fh:
                fh.write(whole[:cut])
            wal = _wal(tmp_path)
            survived = sum(1 for end in ends[1:] if end <= cut)
            assert [r.lsn for r in wal.recovered_records] == \
                list(range(1, 2 + survived)), cut
            assert os.path.getsize(path) == ends[survived], cut
            wal.close()

    def test_a_write_that_fails_mid_batch_publishes_nothing(self, tmp_path):
        wal = _wal(tmp_path)
        real = wal._file

        def short_write(data):
            real.write(data[:len(data) // 2])   # half the batch lands...
            real.flush()
            raise OSError(errno.ENOSPC, "injected short write")

        wal._file = _Spy(real, short_write)
        fired = []
        for lsn, record in enumerate(_batch_script()[1], start=1):
            wal.append(record)
            wal.watch_durable(lsn, lambda lsn=lsn: fired.append(lsn))
        with pytest.raises(OSError):
            wal.force(None)
        assert wal.durable_lsn == 0 and wal.last_lsn == 3 and fired == []
        with pytest.raises(OSError):
            wal.force(None)             # dead: the batch is never retried
        with pytest.raises(OSError):
            wal.append(end_record("T1@a", "a"))
        assert fired == []
        wal.close()
        # ...and the next open keeps only the whole records among it.
        again = _wal(tmp_path)
        assert [r.kind for r in again.recovered_records] == \
            [RecordKind.COORD_COMMIT]
        again.close()


# Names with quotes, backslashes, control and non-ASCII characters.
_names = st.one_of(st.sampled_from(["a", "T1@a", "T7@alpha:2.1"]),
                   st.text(max_size=10))
_lists = st.lists(_names, max_size=4)
_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), _names),
    lambda inner: st.one_of(st.lists(inner, max_size=3),
                            st.dictionaries(_names, inner, max_size=3)),
    max_leaves=10)
_counts = st.integers(min_value=0, max_value=2**40)

# Every record factory in ``repro.log.records``, with arguments drawn so
# that each key it writes sees nested, escaped and non-ASCII values.
_FACTORIES = {
    "update_record": st.builds(log_records.update_record, _names, _names,
                               _names, _names, _values, _values),
    "prepare_record": st.builds(
        log_records.prepare_record, _names, _names, _names,
        st.one_of(st.none(), _lists),
        st.one_of(st.none(), st.dictionaries(_names, _counts, max_size=3))),
    "commit_record": st.builds(log_records.commit_record, _names, _names),
    "coordinator_commit_record": st.builds(
        log_records.coordinator_commit_record, _names, _names,
        st.one_of(st.none(), _lists)),
    "abort_record": st.builds(log_records.abort_record, _names, _names),
    "replication_record": st.builds(
        log_records.replication_record, _names, _names,
        st.dictionaries(_names, _values, max_size=4)),
    "paxos_prepare_record": st.builds(log_records.paxos_prepare_record,
                                      _names, _names, _names, _lists, _lists),
    "paxos_acceptor_record": st.builds(
        log_records.paxos_acceptor_record, _names, _names, _counts,
        st.lists(st.tuples(_names, _counts, _names), max_size=3),
        _names, st.one_of(st.none(), _lists), st.one_of(st.none(), _lists)),
    "paxos_decision_record": st.builds(log_records.paxos_decision_record,
                                       _names, _names, _lists, _lists),
    "abort_pledge_record": st.builds(log_records.abort_pledge_record,
                                     _names, _names),
    "end_record": st.builds(log_records.end_record, _names, _names),
    "checkpoint_record": st.builds(
        log_records.checkpoint_record, _names,
        st.dictionaries(_names, st.dictionaries(_names, _values, max_size=3),
                        max_size=3),
        _counts, st.one_of(st.none(), st.dictionaries(_names, _names,
                                                      max_size=3))),
}


class TestRecordPlan:
    """``record_json`` writes what ``json.dumps`` writes for
    ``to_dict()``; the file format is that text, so the plan cannot move
    a byte of a WAL."""

    def test_every_record_factory_is_covered(self):
        assert set(_FACTORIES) == {
            name for name in vars(log_records) if name.endswith("_record")}

    @settings(max_examples=400, deadline=None)
    @given(record=st.one_of(list(_FACTORIES.values())),
           lsn=st.one_of(st.none(), _counts))
    def test_plan_is_json_dumps_of_to_dict(self, record, lsn):
        record.lsn = lsn
        assert record_json(record) == json.dumps(
            record.to_dict(), sort_keys=True, separators=(",", ":"))

    def test_the_cached_encoder_recovers_after_a_raise(self):
        """The encoder is built once, so it must not keep what a failed
        encode left behind: the dict it was inside would read as a
        cycle the next time."""
        payload = {"decision_data": {"votes": {"b": object()}}}
        record = replication_record("T1@a", "a", {})
        record.payload = payload
        with pytest.raises(TypeError):
            record_json(record)
        del payload["decision_data"]["votes"]["b"]
        assert record_json(record) == json.dumps(
            record.to_dict(), sort_keys=True, separators=(",", ":"))


class _Spy:
    """A file whose ``write`` is replaced and whose rest passes through."""

    def __init__(self, file, write):
        self._file, self.write = file, write

    def __getattr__(self, name):
        return getattr(self._file, name)


class TestRecoveryIntegration:
    def test_analyze_reads_a_real_wal(self, tmp_path):
        """The same discriminators that drive simulator recovery classify
        a real on-disk WAL: forced prepare with no outcome -> in doubt."""
        wal = _wal(tmp_path)
        wal.append(prepare_record("T1@coord", "me", coordinator="coord"))
        wal.force(None)
        wal.append(commit_record("T2@coord", "me"))
        wal.force(None)
        wal.close()
        plan = analyze("me", read_records(str(tmp_path / "site.wal")))
        assert [str(e.tid) for e in plan.in_doubt] == ["T1@coord"]
        assert plan.in_doubt[0].protocol == "two_phase"
        assert plan.tombstones["T2@coord"] is Outcome.COMMITTED


class TestFailedWrite:
    """ROADMAP item 3: a failing write or fsync is final.  The bytes of
    the failed attempt may or may not be on disk, so the WAL publishes
    nothing, refuses everything afterwards, and the site fail-stops —
    a retry "as if the pages were still dirty" would write them twice."""

    @staticmethod
    def _fail_fsync_once(monkeypatch):
        real, calls = os.fsync, []

        def flaky(fd):
            calls.append(fd)
            if len(calls) == 1:
                raise OSError(errno.EIO, "injected fsync failure")
            real(fd)

        monkeypatch.setattr(os, "fsync", flaky)

    def test_failed_fsync_is_never_retried(self, tmp_path, monkeypatch):
        wal = _wal(tmp_path, fsync=True)
        self._fail_fsync_once(monkeypatch)
        wal.append(commit_record("T1@a", "a"))
        fired = []
        wal.watch_durable(1, lambda: fired.append(1))
        with pytest.raises(OSError):
            wal.force(None)
        assert wal.durable_lsn == 0 and fired == []
        # The host's sweep forces again 50 ms later: fsync would succeed
        # now, and must not be reached.
        with pytest.raises(OSError):
            wal.force(None)
        with pytest.raises(OSError):
            wal.append(end_record("T1@a", "a"))
        assert wal.durable_lsn == 0 and wal.last_lsn == 1 and fired == []
        assert [r.kind for r in read_records(wal.path)] in (
            [], [RecordKind.COMMIT])   # once at most, never twice
        wal.close()
        # The next open decides what is really there, and renumbers it.
        again = _wal(tmp_path, fsync=True)
        assert [r.lsn for r in again.recovered_records] == [1]
        assert again.durable_lsn == 1
        assert again.append(end_record("T1@a", "a")).lsn == 2
        again.close()

    def test_failed_write_kills_the_wal_and_close_stays_quiet(self, tmp_path):
        wal = _wal(tmp_path)
        wal._file.close()

        class FullDisk:
            def write(self, data=b""):
                raise OSError(errno.ENOSPC, "injected short write")

            close = flush = write

        wal._file = FullDisk()
        wal.append(commit_record("T1@a", "a"))
        with pytest.raises(OSError):
            wal.force(None)
        with pytest.raises(OSError):
            wal.force(None)
        assert wal.durable_lsn == 0
        wal.close()   # flushes, fails again, has already said so
        assert read_records(wal.path) == []

    def test_live_site_fail_stops(self, tmp_path, monkeypatch):
        """The error reaches the site: it stops serving instead of
        wedging behind a force that never completes."""
        from repro.live.ports import read_port_file
        from repro.live.site import LiveSite

        def broken(fd):
            raise OSError(errno.EIO, "injected fsync failure")

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            assert read_port_file(str(tmp_path), "alpha") == site.port
            monkeypatch.setattr(os, "fsync", broken)
            site.host.begin_commit("2pc", [])
            await asyncio.wait_for(site.serve_until_stopped(), timeout=5.0)
            return site

        site = asyncio.run(scenario())
        assert isinstance(site.failure, OSError)
        assert read_port_file(str(tmp_path), "alpha") is None
        assert site.host.completions == {}   # the caller was never told
        assert len(read_records(site.wal.path)) <= 1

    def test_live_site_fail_stops_on_a_raising_input(self, tmp_path):
        """A delivered frame whose handling raises does not wedge the
        delay line with the next one queued behind it: the site
        fail-stops on that exception and nothing after it runs."""
        from repro.core.messages import CommitAck
        from repro.core.tid import TID
        from repro.live.codec import encode_message_frame
        from repro.live.ports import read_port_file
        from repro.live.site import LiveSite

        delivered = []

        def deliver(src, message):
            delivered.append(message)
            raise RuntimeError("injected handler bug")

        async def scenario():
            site = LiveSite("alpha", str(tmp_path))
            await site.start()
            site.host.deliver = deliver
            _, writer = await asyncio.open_connection("127.0.0.1", site.port)
            writer.write(b"".join(
                encode_message_frame("beta", CommitAck(
                    tid=TID.parse(f"T{i}@alpha"), sender="beta"))
                for i in range(2)))
            await writer.drain()
            try:
                await asyncio.wait_for(site.serve_until_stopped(),
                                       timeout=5.0)
            finally:
                writer.close()
            return site

        site = asyncio.run(scenario())
        assert isinstance(site.failure, RuntimeError)
        assert read_port_file(str(tmp_path), "alpha") is None
        assert len(delivered) == 1
