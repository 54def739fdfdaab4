"""One microbenchmark per layer: the rate of a layer's hot operation.

Each trial is short (tens of milliseconds) so that it can land wholly
inside a quiet spell of a shared host, and the *best* of up to twelve
trials is reported: a hot loop's true rate is its fastest observation,
the slower ones measure the neighbours.  These explain a move in an
end-to-end number; they are never a claim on their own.
"""

from __future__ import annotations

import asyncio
import os
import time
from typing import Any, Callable, Dict, Generator, List, Tuple

from repro.config import CostModel, SystemConfig
from repro.core.messages import (CommitAck, CommitNotice, PrepareRequest,
                                 VoteResponse)
from repro.core.tid import TID
from repro.live.codec import (FrameDecoder, decode_message_payload,
                              encode_message_frame)
from repro.live.simhost import build_sim_cluster
from repro.live.walfile import FileWal
from repro.log.disk import DiskModel
from repro.log.records import LogRecord, RecordKind
from repro.log.storage import StableStore
from repro.log.wal import WriteAheadLog
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.ports import Port
from repro.net.lan import Lan
from repro.bench.workloads import serial_minimal_txns
from repro.obs.spans import SpanRecorder
from repro.servers.lockmgr import LockManager, LockMode
from repro.servers.recovery import analyze
from repro.sim.kernel import Kernel
from repro.sim.process import Process, Sleep
from repro.sim.rng import RngStreams
from repro.sim.tracing import NullTracer
from repro.system import CamelotSystem

from perf import remove_scratch, scratch_dir
from perf.stats import quantile

MAX_TRIALS = 12

_TID = TID("T1@alpha", ())
# One of each message on optimized 2PC's happy path.
_MESSAGES = (PrepareRequest(_TID, "alpha"), VoteResponse(_TID, "beta"),
             CommitNotice(_TID, "alpha"), CommitAck(_TID, "beta"))
_FRAMES = [encode_message_frame(m.sender, m) for m in _MESSAGES]


def _rate(n: int, started: float) -> float:
    return n / (time.perf_counter() - started)


# ------------------------------------------------------------------ sim


def _spin(use_post: bool, n: int = 20_000) -> float:
    kernel = Kernel()
    left = [n]
    again = kernel.post if use_post else kernel.schedule

    def tick() -> None:
        left[0] -= 1
        if left[0]:
            again(1.0, tick)

    kernel.schedule(0.0, tick)
    started = time.perf_counter()
    kernel.run()
    return _rate(n, started)


def sim_post() -> float:
    return _spin(use_post=True)


def sim_schedule() -> float:
    return _spin(use_post=False)


def sim_cancel_heavy(n: int = 20_000) -> float:
    """Timers armed and mostly cancelled before they fire — the protocol
    timeout pattern; rate counts every timer armed."""
    kernel = Kernel()
    fired = [0]

    def fire() -> None:
        fired[0] += 1

    started = time.perf_counter()
    for i in range(n):
        timer = kernel.schedule(5_000.0 + (i % 977), fire)
        if i % 10:
            timer.cancel()
    kernel.run()
    assert fired[0] == n // 10 + (1 if n % 10 else 0)
    return _rate(n, started)


def sim_process_resumes(n: int = 10_000) -> float:
    kernel = Kernel()

    def body() -> Generator[Any, Any, None]:
        for _ in range(n):
            yield Sleep(1.0)

    Process(kernel, body())
    started = time.perf_counter()
    kernel.run()
    return _rate(n, started)


def mach_ipc_roundtrips(n: int = 3_000) -> float:
    kernel = Kernel()
    fabric = IpcFabric(kernel, CostModel(), NullTracer())
    port = Port(kernel, "a")

    def server() -> Generator[Any, Any, None]:
        while True:
            msg = yield from port.receive()
            fabric.reply(msg, msg.reply("ok"))

    def client() -> Generator[Any, Any, None]:
        for _ in range(n):
            yield from fabric.call(port, Message(kind="ping"),
                                   sender_site="a")

    Process(kernel, server())
    done = Process(kernel, client())
    started = time.perf_counter()
    while done.alive and kernel.step():
        pass
    return _rate(n, started)


class _Up:
    alive = True


def net_lan_datagrams(seed: int, n: int = 5_000) -> float:
    kernel = Kernel()
    lan = Lan(kernel, CostModel(), RngStreams(seed), NullTracer())
    lan.register_site("a", _Up())
    lan.register_site("b", _Up())
    got = [0]

    def deliver(payload: Any) -> None:
        got[0] += 1

    started = time.perf_counter()
    for i in range(n):
        lan.unicast("a", "b", i, deliver)
    kernel.run()
    assert got[0] == n
    return _rate(n, started)


def log_wal_append_force(n: int = 2_000) -> float:
    kernel = Kernel()
    cost = CostModel()
    wal = WriteAheadLog(kernel, cost, DiskModel(kernel, cost),
                        StableStore("a"), "a", NullTracer())

    def body() -> Generator[Any, Any, None]:
        for i in range(n):
            wal.append(LogRecord(RecordKind.COMMIT, f"T{i}@a", "a"))
            yield from wal.force()

    Process(kernel, body())
    started = time.perf_counter()
    kernel.run()
    assert wal.forces == n
    return _rate(n, started)


def servers_lock_cycles(n: int = 5_000) -> float:
    locks = LockManager()
    tids = [TID(f"T{i}@a", ()) for i in range(n)]
    started = time.perf_counter()
    for tid in tids:
        locks.acquire("x", tid, LockMode.WRITE)
        locks.release_family(tid.family)
    assert locks.grants == n
    return _rate(n, started)


def _distributed_txns(recorder: Any, n: int, seed: int
                      ) -> Tuple[float, CamelotSystem]:
    """Host seconds for ``n`` serial 2-site transactions."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}, seed=seed,
                                        keep_trace_events=False))
    if recorder is not None:
        system.tracer.attach_obs(recorder)
    app = system.application("a")
    started = time.perf_counter()
    committed = system.run_process(
        serial_minimal_txns(app, system.default_services(), n),
        timeout_ms=n * 60_000.0)
    elapsed = time.perf_counter() - started
    assert committed == n
    return elapsed, system


def _recovery_log(seed: int) -> List[LogRecord]:
    """~10k records of the shapes a real site writes: one site's stable
    log after 150 distributed transactions, repeated."""
    _, system = _distributed_txns(None, 150, seed)
    records = list(system.stores.for_site("a").records())
    return (records * (10_000 // len(records) + 1))[:10_000]


def servers_recovery_records(log: List[LogRecord]) -> float:
    started = time.perf_counter()
    analyze("a", log)
    return _rate(len(log), started)


def obs_txn_seconds(seed: int, counted: bool) -> float:
    recorder = SpanRecorder(keep=False) if counted else None
    return _distributed_txns(recorder, 40, seed)[0]


def bench_system_build_ms(seed: int) -> float:
    started = time.perf_counter()
    CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}, seed=seed,
                               keep_trace_events=False))
    return (time.perf_counter() - started) * 1000.0


# ----------------------------------------------------------------- live


def live_simhost_commits(family: str, n: int = 60) -> float:
    """``SiteHost`` over the simulated substrate: interpreter and
    machines, no sockets, no disk."""
    kernel, hosts, _ = build_sim_cluster(["alpha", "beta", "gamma"],
                                         CostModel())
    for host in hosts.values():
        host.start_sweeps()
    alpha = hosts["alpha"]
    finished = [0]

    def on_complete(tid: Any, outcome: Any) -> None:
        finished[0] += 1
        if finished[0] < n:
            alpha.begin_commit(family, ["beta", "gamma"])

    alpha.on_complete = on_complete
    started = time.perf_counter()
    alpha.begin_commit(family, ["beta", "gamma"])
    while finished[0] < n:
        kernel.run(until=kernel.now + 1_000.0)
    return _rate(n, started)


def live_codec_encode(n: int = 2_000) -> float:
    started = time.perf_counter()
    for i in range(n):
        message = _MESSAGES[i % len(_MESSAGES)]
        encode_message_frame(message.sender, message)
    return _rate(n, started)


def live_codec_decode(n: int = 2_000) -> float:
    stream = b"".join(_FRAMES) * (n // len(_FRAMES))
    decoder = FrameDecoder()
    started = time.perf_counter()
    for _, payload in decoder.feed(stream):
        decode_message_payload(payload)
    return _rate(n, started)


def live_codec_bytes_per_frame() -> float:
    return sum(len(frame) for frame in _FRAMES) / len(_FRAMES)


def _walfile(directory: str, fsync: bool, batch: int, forces: int) -> float:
    """Records per second through a fresh ``FileWal``."""
    path = os.path.join(directory, "micro.wal")
    if os.path.exists(path):
        os.remove(path)
    wal = FileWal(path, fsync=fsync)
    try:
        started = time.perf_counter()
        for i in range(forces):
            for j in range(batch):
                wal.append(LogRecord(RecordKind.COMMIT, f"T{i}.{j}@a", "a"))
            wal.force()
        return _rate(forces * batch, started)
    finally:
        wal.close()


def live_fsync_ms(directory: str, n: int = 40) -> float:
    samples = []
    with open(os.path.join(directory, "fsync.bin"), "wb") as handle:
        for _ in range(n):
            handle.write(b"x" * 128)
            handle.flush()
            started = time.perf_counter()
            os.fsync(handle.fileno())
            samples.append((time.perf_counter() - started) * 1000.0)
    return quantile(samples, 0.5)


async def _loopback_rtts(n: int) -> List[float]:
    """Microseconds for one codec frame to go to an echo server over
    asyncio loopback TCP and come back: no host, no WAL."""
    echoed = asyncio.Event()

    async def echo(reader: asyncio.StreamReader,
                   writer: asyncio.StreamWriter) -> None:
        try:
            while data := await reader.read(65536):
                writer.write(data)
                await writer.drain()
        finally:
            writer.close()
            echoed.set()

    server = await asyncio.start_server(echo, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    frame = _FRAMES[0]
    samples = []
    try:
        for _ in range(n):
            started = time.perf_counter()
            writer.write(frame)
            await writer.drain()
            await reader.readexactly(len(frame))
            samples.append((time.perf_counter() - started) * 1e6)
    finally:
        writer.close()
        await writer.wait_closed()
        await echoed.wait()  # the handler saw EOF: nothing left to cancel
        server.close()
        await server.wait_closed()
    return samples


def live_loopback_rtt_us(n: int = 150) -> float:
    return quantile(asyncio.run(_loopback_rtts(n)), 0.5)


# ------------------------------------------------------------- harness


def _best(trial: Callable[[], float], budget_s: float, higher: bool) -> float:
    """Best of up to MAX_TRIALS trials, stopping early once
    ``budget_s`` is spent."""
    pick = max if higher else min
    started = time.perf_counter()
    best = trial()
    for _ in range(1, MAX_TRIALS):
        if time.perf_counter() - started >= budget_s:
            break
        best = pick(best, trial())
    return best


def run_micro(budget_s: float, seed: int) -> Dict[str, float]:
    """Every microbenchmark, sharing ``budget_s`` equally."""
    directory = scratch_dir("micro")
    log = _recovery_log(seed)
    # name -> (one trial, higher is better)
    trials: Dict[str, Tuple[Callable[[], float], bool]] = {
        "sim.post_events_per_s": (sim_post, True),
        "sim.schedule_events_per_s": (sim_schedule, True),
        "sim.cancel_heavy_events_per_s": (sim_cancel_heavy, True),
        "sim.process_resumes_per_s": (sim_process_resumes, True),
        "mach.ipc_roundtrips_per_s": (mach_ipc_roundtrips, True),
        "net.lan_datagrams_per_s": (lambda: net_lan_datagrams(seed), True),
        "log.wal_append_force_per_s": (log_wal_append_force, True),
        "servers.lock_cycles_per_s": (servers_lock_cycles, True),
        "servers.recovery_records_per_s":
            (lambda: servers_recovery_records(log), True),
        "obs.plain_txn_s": (lambda: obs_txn_seconds(seed, False), False),
        "obs.counted_txn_s": (lambda: obs_txn_seconds(seed, True), False),
        "bench.system_build_ms": (lambda: bench_system_build_ms(seed), False),
        "live.simhost_2pc_commits_per_s":
            (lambda: live_simhost_commits("2pc"), True),
        "live.simhost_nb_commits_per_s":
            (lambda: live_simhost_commits("nb"), True),
        "live.simhost_paxos_commits_per_s":
            (lambda: live_simhost_commits("paxos"), True),
        "live.codec_encode_frames_per_s": (live_codec_encode, True),
        "live.codec_decode_frames_per_s": (live_codec_decode, True),
        "live.codec_bytes_per_frame": (live_codec_bytes_per_frame, False),
        "live.walfile_force_per_s":
            (lambda: _walfile(directory, True, 1, 25), True),
        "live.walfile_batch32_records_per_s":
            (lambda: _walfile(directory, True, 32, 8), True),
        "live.walfile_nofsync_force_per_s":
            (lambda: _walfile(directory, False, 1, 400), True),
        "live.fsync_ms_p50": (lambda: live_fsync_ms(directory), False),
        "live.loopback_rtt_us_p50": (live_loopback_rtt_us, False),
    }
    share = budget_s / len(trials)
    try:
        values = {name: _best(trial, share, higher)
                  for name, (trial, higher) in trials.items()}
    finally:
        remove_scratch(directory)
    # The two legs of the obs ratio are separate best-of-N so that each
    # finds its own quiet spell; only the ratio is a metric.
    values["obs.count_only_overhead_ratio"] = (
        values.pop("obs.counted_txn_s") / values.pop("obs.plain_txn_s"))
    return values
