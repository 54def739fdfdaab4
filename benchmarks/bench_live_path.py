"""Live message path: what a frame, a send, a force and a commit's trip
through the event loop must keep costing.

Not a paper figure — three guards for CI's live job, beside
``python -m repro.live smoke``.  (a) The compiled wire codec against the
reflective one it replaced (kept as the oracle in
``tests/test_live_codec.py``), as a ratio measured in one process, so
host speed cancels.  (b) Exact counts on a scripted optimized-2PC run
over loopback from eight clients: one file ``write`` per event-loop
wake-up that forced, which at eight clients is at most one per commit
and at least four records per write (group commit); eight messages a
commit, carried one frame and one socket write per peer per flush, so
well under one frame per commit (frame coalescing); nothing dropped.
(c) Work, not time: the asyncio callbacks one commit costs at one
client over a fixed 2PC / NB / Paxos schedule, under a ceiling.  Speed with repeats and spread is
``python -m perf``; this file writes nothing.
"""

import asyncio
import json
import time
from asyncio.selector_events import _SelectorSocketTransport

from repro.core.outcomes import Outcome
from repro.live import site as live_site
from repro.live.codec import FrameDecoder, decode_message_payload, \
    encode_message_frame
from repro.live.site import LiveSite
from repro.live.walfile import FileWal

from benchmarks.conftest import emit
from perf.micro import _FRAMES, _MESSAGES
from tests.test_live_codec import _reference_frame, _reference_from_dict
from tests.test_live_wal import _Spy

# Measured 5-7x and 1.3-1.7x; the floors are far enough below that
# only losing the plans (or the cached encoder) misses them.
ENCODE_RATIO_FLOOR = 1.5
DECODE_RATIO_FLOOR = 1.15

SITES = ("alpha", "beta", "gamma")
CLIENTS = 8
COMMITS = 50
FAMILIES = ("2pc", "nb", "paxos")
FAMILY_ROUNDS = 20
# Measured 20.4 (25.9 while a force parked the whole site and a local
# vote took a 0 ms timer; 46.8 with a reader task, a drainer task and a
# sender task per hop).  The margin, 2.1, is for what counts per second
# rather than per commit: three sites' 50 ms sweeps add 0.06 a commit
# here and 1.2 on a host twenty times slower.
CALLBACKS_PER_COMMIT_CEILING = 23
# Group commit at eight clients: measured 0.48 WAL file writes per
# commit and 12.5 records per write (3.08 and 1.95 while a force parked
# the whole site, so no two forces of one site could share a write).
FILE_WRITES_PER_COMMIT_CEILING = 1.0
RECORDS_PER_WRITE_FLOOR = 4.0
# Frame coalescing at eight clients: measured 0.64 frames per commit
# here (400 messages in 32 frames, 12.5 per frame), exact on every
# repeat; 8.0 while every message had a frame of its own.  The margin,
# 0.36 a commit (18 frames over the run), is for wake-ups that cut the
# same messages into more flushes; a frame per message fails it 8x.
FRAMES_PER_COMMIT_CEILING = 1.0


def _best_ratio(fast, slow, n: int = 4_000, trials: int = 5) -> float:
    """Best run of each side over ``trials`` alternating pairs (the host
    changes speed for seconds at a time; a pair is ~50 ms)."""
    def seconds(fn):
        started = time.perf_counter()
        fn(n)
        return time.perf_counter() - started

    pairs = [(seconds(slow), seconds(fast)) for _ in range(trials)]
    return min(s for s, _ in pairs) / min(f for _, f in pairs)


def test_compiled_codec_beats_the_reflective_reference():
    def encode_with(encode):
        def run(n):
            for i in range(n):
                message = _MESSAGES[i % len(_MESSAGES)]
                encode(message.sender, message)
        return run

    # Both sides decode the same payloads, framed and scanned once here:
    # the framing and the C scan they would share only dilute the ratio.
    payloads = [payload for _, payload in FrameDecoder().feed(
        b"".join(_FRAMES) * (4_000 // len(_FRAMES)))]

    def decode_with(from_payload):
        def run(n):
            for payload in payloads[:n]:
                from_payload(payload)
        return run

    encode = _best_ratio(encode_with(encode_message_frame),
                         encode_with(_reference_frame))
    decode = _best_ratio(
        decode_with(decode_message_payload),
        decode_with(lambda payload: [_reference_from_dict(body)
                                     for body in payload["msgs"]]))
    emit(f"compiled / reflective codec: encode {encode:.2f}x "
         f"(floor {ENCODE_RATIO_FLOOR}), decode {decode:.2f}x "
         f"(floor {DECODE_RATIO_FLOOR})")
    assert encode >= ENCODE_RATIO_FLOOR
    assert decode >= DECODE_RATIO_FLOOR


def _commits(tmp_path, monkeypatch, schedule, clients):
    """Run ``schedule`` (one family per commit) from ``clients``
    closed-loop clients at alpha over three loopback sites with fsync
    off.  Returns what it counted: WAL file writes, the event loop's
    callbacks while commits are in flight, commits that committed and
    frames dropped, and calls into the generic ``json`` encoder and
    decoder while commits are in flight."""
    counts = {"file_writes": 0, "callbacks": 0, "committed": 0,
              "generic_json": 0}
    real_run = asyncio.events.Handle._run
    in_flight = [False]

    def run_handle(handle):
        counts["callbacks"] += in_flight[0]
        return real_run(handle)

    monkeypatch.setattr(asyncio.events.Handle, "_run", run_handle)

    def generic(method):
        def counted(*args, **kwargs):
            counts["generic_json"] += in_flight[0]
            return method(*args, **kwargs)
        return counted

    # A bound ``encode`` / ``decode`` taken at import still calls
    # ``self.iterencode`` / ``self.raw_decode``, so these four see it.
    for cls, name in ((json.JSONEncoder, "encode"),
                      (json.JSONEncoder, "iterencode"),
                      (json.JSONDecoder, "decode"),
                      (json.JSONDecoder, "raw_decode")):
        monkeypatch.setattr(cls, name, generic(getattr(cls, name)))

    def counted(file):
        def write(data):
            counts["file_writes"] += 1
            return file.write(data)
        return _Spy(file, write)

    async def run():
        sites = {name: LiveSite(name, str(tmp_path), fsync=False)
                 for name in SITES}
        for site in sites.values():
            site.wal._file = counted(site.wal._file)
            await site.start()
        alpha = sites["alpha"].host
        done = asyncio.get_running_loop().create_future()
        progress = {"issued": 0, "finished": 0}

        def issue():
            progress["issued"] += 1
            alpha.begin_commit(schedule[progress["issued"] - 1],
                               ["beta", "gamma"])

        def on_complete(tid, outcome):
            progress["finished"] += 1
            counts["committed"] += outcome is Outcome.COMMITTED
            if progress["issued"] < len(schedule):
                issue()
            elif progress["finished"] == len(schedule):
                in_flight[0] = False
                done.set_result(None)

        async def settled():
            while not all(site.settled
                          and site.wal.durable_lsn >= site.wal.last_lsn
                          for site in sites.values()):
                await asyncio.sleep(0.005)

        alpha.on_complete = on_complete
        try:
            in_flight[0] = True
            for _ in range(clients):
                issue()
            await asyncio.wait_for(done, timeout=30.0)
            await asyncio.wait_for(settled(), timeout=30.0)
            return sum(site.drop_counts()["total"]
                       for site in sites.values())
        finally:
            for site in sites.values():
                await site.stop()

    counts["drops"] = asyncio.run(run())
    return counts


def test_group_commit_and_coalesced_frames(tmp_path, monkeypatch):
    counts = {"messages": 0, "framed": 0, "frames": 0, "socket_writes": 0,
              "forces": 0, "records": 0}

    real_text = live_site.message_text
    real_encode = live_site.encode_message_frame
    real_send = _SelectorSocketTransport.write
    real_force = FileWal.force

    def text(message):
        counts["messages"] += 1
        return real_text(message)

    def encode(src, *messages):
        counts["frames"] += 1
        counts["framed"] += len(messages)
        return real_encode(src, *messages)

    def send(transport, data):
        counts["socket_writes"] += 1
        real_send(transport, data)

    def force(wal, lsn=None):
        before = wal.durable_lsn
        ready = real_force(wal, lsn)
        counts["forces"] += wal.durable_lsn > before   # one that wrote
        counts["records"] += wal.durable_lsn - before
        return ready

    # ``send`` makes each message's text; the flush frames a peer's
    # outbox and hands the frame to the connection's transport.
    monkeypatch.setattr(live_site, "message_text", text)
    monkeypatch.setattr(live_site, "encode_message_frame", encode)
    monkeypatch.setattr(_SelectorSocketTransport, "write", send)
    monkeypatch.setattr(FileWal, "force", force)

    counts.update(_commits(tmp_path, monkeypatch, ["2pc"] * COMMITS,
                           CLIENTS))
    writes_per_commit = counts["file_writes"] / counts["committed"]
    records_per_write = counts["records"] / counts["file_writes"]
    frames_per_commit = counts["frames"] / counts["committed"]
    emit(f"{COMMITS} optimized-2PC commits, {CLIENTS} clients, 2 "
         f"subordinates: {counts['messages']} messages in "
         f"{counts['frames']} frames ({frames_per_commit:.2f} per commit, "
         f"ceiling {FRAMES_PER_COMMIT_CEILING}) in "
         f"{counts['socket_writes']} socket writes, {counts['records']} "
         f"records in {counts['file_writes']} file writes "
         f"({writes_per_commit:.2f} per commit, ceiling "
         f"{FILE_WRITES_PER_COMMIT_CEILING}; {records_per_write:.1f} "
         f"records per write, floor {RECORDS_PER_WRITE_FLOOR}), "
         f"{counts['drops']} drops, {counts['generic_json']} generic "
         f"json calls")
    assert counts["committed"] == COMMITS
    assert counts["messages"] == counts["framed"] == 8 * COMMITS
    assert counts["socket_writes"] == counts["frames"]
    assert frames_per_commit <= FRAMES_PER_COMMIT_CEILING
    assert counts["file_writes"] == counts["forces"] > 0
    assert writes_per_commit <= FILE_WRITES_PER_COMMIT_CEILING
    assert records_per_write >= RECORDS_PER_WRITE_FLOOR
    assert counts["drops"] == 0
    assert counts["generic_json"] == 0


def test_callbacks_per_commit_at_one_client(tmp_path, monkeypatch):
    """One client, 2PC / NB / Paxos in turn: nothing overlaps, so every
    hop of every commit is its own trip through the event loop."""
    schedule = list(FAMILIES) * FAMILY_ROUNDS
    counts = _commits(tmp_path, monkeypatch, schedule, 1)
    per_commit = counts["callbacks"] / counts["committed"]
    emit(f"{counts['committed']} commits (2PC/NB/Paxos in turn), 1 client: "
         f"{per_commit:.1f} asyncio callbacks per commit "
         f"(ceiling {CALLBACKS_PER_COMMIT_CEILING}), "
         f"{counts['generic_json']} generic json calls")
    assert counts["committed"] == len(schedule)
    assert counts["drops"] == 0
    assert counts["generic_json"] == 0
    assert per_commit <= CALLBACKS_PER_COMMIT_CEILING
