"""The five workloads, each driven through public entry points only.

A workload hands the runner *rounds*: one round builds a fresh system
or cluster, runs a fixed batch of work inside a timed region, checks
the outputs and returns what it saw.  All times are **host** time
(``time.perf_counter`` of this process); *simulated* time appears only
inside a digest, where it is a behaviour fingerprint, not a speed.

A round's timed region is cut into *windows* of equal work, 25-50 ms
each where the workload lets us timestamp single completions, so that a
run holds a few hundred and the fast quantile in :mod:`perf.stats` can
find the host's quiet moments.  Sizes are for a 2-cpu sandbox.
``scale`` shrinks every batch for the smoke tests; speeds measured at a
scale other than 1 are not comparable.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Generator, Iterator, List, Optional, Sequence

from repro.__main__ import EXPERIMENTS
from repro.bench.openloop import run_open_loop
from repro.config import SystemConfig
from repro.core.outcomes import Outcome, ProtocolKind, Vote
from repro.live.site import LiveSite
from repro.live.walfile import read_records
from repro.log.records import RecordKind
from repro.obs.spans import SpanRecorder
from repro.servers.application import TransactionAborted
from repro.system import CamelotSystem

from perf import remove_scratch, scratch_dir
from perf.calibrate import reference_seconds
from perf.stats import quantile

SIM_FAMILIES = (ProtocolKind.TWO_PHASE, ProtocolKind.NON_BLOCKING,
                ProtocolKind.PAXOS_COMMIT)
LIVE_FAMILIES = ("2pc", "nb", "paxos")
LIVE_SITES = ("alpha", "beta", "gamma")
# A commit that makes no progress for this long counts as timed out.
LIVE_STALL_S = 5.0
LIVE_SETTLE_S = 2.0


@dataclass
class Round:
    """What one round did and saw."""

    attempted: int
    committed: int
    # Host seconds of each equal-work window of the timed region, by
    # part.  Every workload but ``figures_all`` has one part; there a
    # part is one experiment (one window a round), so each is compared
    # with its own repeats and not with its neighbours.
    parts: Dict[str, List[float]] = field(default_factory=dict)
    # Seconds the reference load took around each part's timed region
    # (see perf.calibrate): the host's speed while the part ran.
    reference_s: Dict[str, float] = field(default_factory=dict)
    # Committed ops per window (``figures_all``: one pass is one window
    # of every part).
    window_ops: float = 1.0
    digest: str = ""
    # Host milliseconds begin_commit -> on_complete, per protocol family
    # (live workloads; a failed commit has no sample).
    latencies_ms: Dict[str, List[float]] = field(default_factory=dict)
    counts: Dict[str, int] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(sum(times) for times in self.parts.values())


@dataclass
class Region:
    """One timed region: when it ran and how fast the host was."""

    started: float = 0.0
    ended: float = 0.0
    reference_s: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.ended - self.started


def window_times(started: float, stamps: Sequence[float], size: int
            ) -> List[float]:
    """Host seconds of consecutive windows of ``size`` completions, from
    the completions' timestamps; a trailing partial window is dropped."""
    out, previous = [], started
    for i in range(size - 1, len(stamps), size):
        out.append(stamps[i] - previous)
        previous = stamps[i]
    return out


def _digest(*fields: Any) -> str:
    return hashlib.sha256(repr(fields).encode("utf-8")).hexdigest()[:16]


class Workload:
    """Base: names the workload and times its regions.

    ``tracer`` is set by the traced run (see :mod:`perf.trace`); the
    profiler is switched on for exactly the timed regions, so building
    systems and checking outputs is in neither the end-to-end numbers
    nor the layer table.
    """

    name = ""
    why = ""
    op = ""

    def __init__(self, seed: int, scale: float = 1.0, device: bool = False):
        self.seed = seed
        self.scale = scale
        # Whether the live workloads fsync (see LiveWorkload).
        self.device = device
        self.tracer: Optional[Any] = None

    def sized(self, n: int, floor: int = 1) -> int:
        return max(floor, round(n * self.scale))

    @contextmanager
    def timed(self) -> Iterator[Region]:
        """A timed region, bracketed by the reference load."""
        tracer = self.tracer
        region = Region()
        before = reference_seconds()
        if tracer is not None:
            tracer.start()
        region.started = time.perf_counter()
        try:
            yield region
        finally:
            region.ended = time.perf_counter()
            if tracer is not None:
                tracer.stop()
            region.reference_s = (before + reference_seconds()) / 2

    def first_op(self) -> None:
        """The smallest unit of work, end to end: what ``setup_s`` times
        from interpreter start, and what warms a run up."""
        raise NotImplementedError

    def warm_up(self) -> None:
        self.first_op()

    def round(self) -> Round:
        raise NotImplementedError

    def close(self) -> None:
        """Remove whatever the workload left on disk."""


# ------------------------------------------------------------ simulator


class SimOpenLoop(Workload):
    name = "sim_openloop"
    why = ("24 sites, Poisson 300 tps, 85% local writes, Zipf 1.1: a deep "
           "event queue where sim, mach IPC and servers dominate; queue or "
           "generator-resume changes show here first")
    op = "committed simulated transaction"
    # One call is one window: run_open_loop offers no way to timestamp a
    # single completion from outside.  450 arrivals are 1.5 simulated
    # seconds (~0.25 host s); the rest of the call's first 5 s chunk is
    # idle sweeping, ~15% of its host time.
    TXNS = 450

    def _run(self, txns: int) -> Any:
        return run_open_loop(sites=24, rate_tps=300.0, txns=txns,
                             seed=self.seed, op="write", zipf_s=1.1,
                             remote_fraction=0.15)

    def first_op(self) -> None:
        self._run(1)

    def warm_up(self) -> None:
        self._run(self.sized(150, floor=10))

    def round(self) -> Round:
        txns = self.sized(self.TXNS, floor=20)
        # run_open_loop builds its own 24-site system (~6 ms, 2% of the
        # round): there is no public way to time it apart.
        with self.timed() as region:
            result = self._run(txns)
        out = Round(attempted=txns, committed=result.committed,
                    parts={"run": [region.elapsed]},
                    reference_s={"run": region.reference_s},
                    window_ops=result.committed)
        out.digest = _digest(
            result.committed, result.aborted, result.unfinished,
            result.measured_tps, result.mean_ms, result.p50_ms, result.p95_ms,
            result.p99_ms, result.max_ms, result.peak_in_flight,
            sorted(result.counters.items()))
        if result.unfinished:
            out.errors.append(f"{result.unfinished} transactions unfinished")
        if result.committed + result.aborted != txns:
            out.errors.append("committed + aborted != attempted")
        return out


class SimFamilies(Workload):
    name = "sim_families"
    why = ("3 sites, 4 closed-loop clients, every commit distributed over 2 "
           "subordinates, 2PC/NB/Paxos in rotation: shallow queue, core "
           "machines, net and log forces cost 3-4x more per transaction")
    op = "committed simulated transaction"
    CLIENTS = 4
    TXNS_PER_CLIENT = 75
    WINDOW = 25  # completions, ~40 ms

    def _run(self, per_client: int) -> Round:
        system = CamelotSystem(SystemConfig(
            sites={"a": 1, "b": 1, "c": 1}, seed=self.seed,
            keep_trace_events=False))
        recorder = SpanRecorder(keep=False)
        system.tracer.attach_obs(recorder)
        services = system.default_services()
        kernel = system.kernel
        apps = [system.application("a", name=f"client{i}", keep_history=False)
                for i in range(self.CLIENTS)]
        latencies: List[float] = []
        stamps: List[float] = []
        last_done = [0.0]

        def client(i: int) -> Generator[Any, Any, None]:
            for k in range(per_client):
                began = kernel.now
                try:
                    yield from apps[i].minimal_transaction(
                        services, obj=f"o{i}",
                        protocol=SIM_FAMILIES[(i + k) % len(SIM_FAMILIES)])
                    latencies.append(kernel.now - began)
                except TransactionAborted:
                    pass
                last_done[0] = kernel.now
                stamps.append(time.perf_counter())

        procs = [system.spawn(client(i), f"client{i}")
                 for i in range(self.CLIENTS)]
        attempted = per_client * self.CLIENTS
        # A distributed commit takes ~0.1-0.4 simulated seconds; ten per
        # transaction is a bound no healthy run comes near.
        deadline = kernel.now + attempted * 10_000.0
        with self.timed() as region:
            while any(p.alive for p in procs) and kernel.now < deadline:
                system.run_for(250.0)
        committed = sum(app.committed for app in apps)
        aborted = sum(app.aborted for app in apps)
        size = min(self.WINDOW, attempted)
        out = Round(attempted=attempted, committed=committed,
                    parts={"run": window_times(region.started, stamps, size)},
                    reference_s={"run": region.reference_s},
                    window_ops=size)
        out.digest = _digest(
            committed, aborted, last_done[0],
            [quantile(latencies, q) for q in (0.5, 0.95, 0.99)]
            if latencies else [],
            sorted(recorder.counters.items()))
        unfinished = sum(1 for p in procs if p.alive)
        if unfinished:
            out.errors.append(f"{unfinished} clients unfinished")
        if committed + aborted != attempted:
            out.errors.append("committed + aborted != attempted")
        return out

    def first_op(self) -> None:
        self._run(1)

    def warm_up(self) -> None:
        self._run(self.sized(30))

    def round(self) -> Round:
        return self._run(self.sized(self.TXNS_PER_CLIENT))


class FiguresAll(Workload):
    name = "figures_all"
    why = ("every paper table and figure, serial and uncached: hundreds of "
           "short-lived system builds, group commit on and off, reads, "
           "multicast; the only workload with repro.bench on the path")
    op = "full regeneration pass"

    def __init__(self, *args: Any, **kwargs: Any):
        super().__init__(*args, **kwargs)
        # The experiments take no seed (they are the paper's, fixed);
        # the seed sets the order they run in, so allocator and cache
        # state differ between seeds while the work does not.
        self.order = sorted(EXPERIMENTS)
        random.Random(self.seed).shuffle(self.order)
        self.args = argparse.Namespace(
            trials=self.sized(20),
            duration=max(500.0, 8_000.0 * self.scale),
            jobs=1, cache=None)

    def first_op(self) -> None:
        EXPERIMENTS["table1"](self.args)

    def warm_up(self) -> None:
        for name in ("table1", "figure2"):
            EXPERIMENTS[name](self.args)

    def round(self) -> Round:
        out = Round(attempted=1, committed=1)
        hasher = hashlib.sha256()
        for name in self.order:
            with self.timed() as region:
                text = EXPERIMENTS[name](self.args)
            out.parts[name] = [region.elapsed]
            out.reference_s[name] = region.reference_s
            hasher.update(name.encode("utf-8"))
            hasher.update(text.encode("utf-8"))
        out.digest = hasher.hexdigest()[:16]
        return out


# ----------------------------------------------------------------- live


def filesystem_type(path: str) -> str:
    """Type of the filesystem holding ``path`` (longest mount prefix)."""
    path = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts", encoding="utf-8") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1]
                if len(mount) >= len(best) and (
                        path == mount
                        or path.startswith(mount.rstrip("/") + "/")):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


class LiveWorkload(Workload):
    """Three ``LiveSite`` on one asyncio loop in this process, real
    loopback TCP between them, one ``FileWal`` each in a directory
    inside the checkout, all pacing floors zero; closed-loop clients at
    alpha issue the next commit from ``on_complete``.  Zero client
    connections: the only sockets are the sites' own peer links.

    ``device`` decides ``FileWal(fsync=...)``.  The end-to-end run keeps
    it **off**: on the sandbox this was sized on, the shared virtio disk
    makes fsync-bound commits swing 3x for minutes at a time (README
    "Noise"), which no bound of a quarter can hold, so the bounded
    number is the commit path up to and including the ``write``.  The
    per-layer run turns it **on**: its rows (fsync share, force times,
    commit latency per family) have no bound and describe the path with
    the device in it.
    """

    op = "committed transaction"
    clients = 1
    commits = 0
    window = 1  # completions per window, ~30 ms
    families: Sequence[str] = ()

    def __init__(self, seed: int, scale: float = 1.0, device: bool = False,
                 votes: Optional[Dict[str, Vote]] = None):
        super().__init__(seed, scale, device)
        self.votes = votes
        self.base_dir = scratch_dir(self.name)
        self._rounds = 0

    def schedule(self, commits: int) -> List[str]:
        """The protocol family of each commit, in issue order."""
        raise NotImplementedError

    def first_op(self) -> None:
        self._run([self.families[0]])

    def warm_up(self) -> None:
        self._run(self.schedule(self.sized(self.commits // 10,
                                           floor=len(self.families))))

    def round(self) -> Round:
        return self._run(self.schedule(
            self.sized(self.commits, floor=len(self.families))))

    def close(self) -> None:
        remove_scratch(self.base_dir)

    def _run(self, schedule: List[str]) -> Round:
        self._rounds += 1
        run_dir = os.path.join(self.base_dir, f"round{self._rounds}")
        try:
            # A fresh loop per round: no asyncio state outlives it.
            return asyncio.run(self._round(run_dir, schedule))
        finally:
            shutil.rmtree(run_dir, ignore_errors=True)

    async def _round(self, run_dir: str, schedule: List[str]) -> Round:
        sites = {name: LiveSite(name, run_dir, votes=self.votes,
                                fsync=self.device)
                 for name in LIVE_SITES}
        for site in sites.values():
            await site.start()
        alpha = sites["alpha"].host
        peers = [name for name in LIVE_SITES if name != "alpha"]
        loop = asyncio.get_running_loop()
        done = loop.create_future()
        begun: Dict[Any, Any] = {}          # TID -> (family, started)
        outcomes: Dict[str, Outcome] = {}   # str(TID) -> alpha's outcome
        latencies: Dict[str, List[float]] = {f: [] for f in self.families}
        stamps: List[float] = []
        progress = {"issued": 0, "finished": 0}

        def issue() -> None:
            family = schedule[progress["issued"]]
            progress["issued"] += 1
            tid = alpha.tid_gen.new_top_level()
            begun[tid] = (family, time.perf_counter())
            alpha.begin_commit(family, peers, tid=tid)

        def on_complete(tid: Any, outcome: Outcome) -> None:
            now = time.perf_counter()
            family, started = begun[tid]
            outcomes[str(tid)] = outcome
            if outcome is Outcome.COMMITTED:
                latencies[family].append((now - started) * 1000.0)
                stamps.append(now)
            progress["finished"] += 1
            if progress["issued"] < len(schedule):
                issue()
            elif progress["finished"] == len(schedule) and not done.done():
                done.set_result(None)

        alpha.on_complete = on_complete
        try:
            with self.timed() as region:
                for _ in range(min(self.clients, len(schedule))):
                    issue()
                while not done.done():
                    before = progress["finished"]
                    await asyncio.wait([done], timeout=LIVE_STALL_S)
                    if progress["finished"] == before:
                        break  # stalled: whatever is left has timed out
            # Subordinates learn the outcome after the coordinator
            # reports it, and a lazily written record (NB's coordinator
            # commit) is forced by the next 50 ms sweep: let both land
            # before comparing sites and reading the WAL back.
            settle_by = loop.time() + LIVE_SETTLE_S
            while loop.time() < settle_by and not all(
                    site.settled
                    and site.wal.durable_lsn >= site.wal.last_lsn
                    for site in sites.values()):
                await asyncio.sleep(0.005)
            seen = {name: {**site.host.tombstones, **site.host.completions}
                    for name, site in sites.items()}
            drops = sum(site.substrate.drop_counts()["total"]
                        for site in sites.values())
            duplicates = sum(site.host.duplicates for site in sites.values())
        finally:
            for site in sites.values():
                await site.stop()

        size = min(self.window, len(schedule))
        out = Round(attempted=len(schedule), committed=0,
                    parts={"run": window_times(region.started, stamps, size)},
                    reference_s={"run": region.reference_s},
                    window_ops=size, latencies_ms=latencies,
                    counts={"drops": drops, "duplicates": duplicates})
        durable = {record.tid for record in
                   read_records(os.path.join(run_dir, "alpha.wal"))
                   if record.kind in (RecordKind.COMMIT,
                                      RecordKind.COORD_COMMIT)}
        for tid in begun:
            key = str(tid)
            if outcomes.get(key) is not Outcome.COMMITTED:
                continue  # aborted, unfinished or timed out: a failure
            if any(seen[name].get(key) is not Outcome.COMMITTED
                   for name in LIVE_SITES):
                out.errors.append(f"{key}: sites disagree on the outcome")
            elif key not in durable:
                out.errors.append(f"{key}: committed but alpha's WAL holds "
                                  "no commit record")
            else:
                out.committed += 1
        if drops:
            out.errors.append(f"{drops} frames dropped")
        return out


class LiveC1Families(LiveWorkload):
    name = "live_c1_families"
    why = ("1 closed-loop client, 2PC/NB/Paxos in turn: nothing to batch, so "
           "the bare per-commit critical path per family; the bypass "
           "workload every batching optimisation must leave unchanged")
    clients = 1
    commits = 150
    window = 6
    families = LIVE_FAMILIES

    def schedule(self, commits: int) -> List[str]:
        # Blocks of one commit per family, each block in a seeded order:
        # every window of two blocks is then the same work.
        rng = random.Random(self.seed)
        order: List[str] = []
        for _ in range(max(1, commits // len(self.families))):
            block = list(self.families)
            rng.shuffle(block)
            order += block
        return order


class LiveC8TwoPhase(LiveWorkload):
    name = "live_c8_2pc"
    why = ("8 closed-loop clients, optimized 2PC only: concurrent forces and "
           "frames exist, so group commit, fsync off the loop and frame "
           "coalescing can show here; fsync is ~a quarter of host time")
    clients = 8
    commits = 400
    window = 16
    families = ("2pc",)

    def schedule(self, commits: int) -> List[str]:
        # No random input: every commit is the same optimized 2PC over
        # the same three sites.  The seed only names the run directory.
        return ["2pc"] * commits


WORKLOADS = {cls.name: cls for cls in (
    SimOpenLoop, SimFamilies, FiguresAll, LiveC1Families, LiveC8TwoPhase)}
