"""Figure 4 on real IO: live commit throughput against closed-loop
clients, with every force fsync'd.

Three ``LiveSite``s share one event loop over loopback TCP, each with
its own fsync'd ``FileWal`` in a temporary directory; ``clients``
closed-loop clients at ``alpha`` run optimized two-phase commits with
``beta`` and ``gamma`` as subordinates.  For each client count the
script reports commits per second (median and quartile distance over
the repeats), then WAL records and commits per file write summed over
the three sites, and beside them the paper's logger ceiling from
``repro.analysis.throughput_model.predict``: ``1000 / disk_occ * B``
commits per second, with ``disk_occ`` this host's median fsync time
(measured here, on the same file system) and ``B`` the measured commits
per write.  The three sites run on one loop and one disk, so their
writes queue for one device: that is the logger the ceiling prices.

    PYTHONPATH=src python examples/live_throughput_curve.py
    PYTHONPATH=src python examples/live_throughput_curve.py --repeats 5 --commits 400

The last line printed is the same numbers as JSON.
"""

import argparse
import asyncio
import dataclasses
import json
import os
import statistics
import tempfile
import time

from repro.analysis.throughput_model import predict
from repro.config import CostModel
from repro.core.outcomes import Outcome
from repro.live.site import LiveSite

SITES = ("alpha", "beta", "gamma")
CLIENTS = (1, 2, 4, 8, 16)


class _CountedWrites:
    """A WAL file whose ``write`` calls are counted."""

    def __init__(self, file, counts):
        self._file, self._counts = file, counts

    def write(self, data):
        self._counts["writes"] += 1
        return self._file.write(data)

    def __getattr__(self, name):
        return getattr(self._file, name)


def fsync_ms_p50(directory: str, samples: int = 200) -> float:
    """Median milliseconds of a small append plus ``os.fsync``."""
    path = os.path.join(directory, "fsync.probe")
    times = []
    with open(path, "wb") as fh:
        for _ in range(samples):
            fh.write(b"x" * 64)
            fh.flush()
            started = time.perf_counter()
            os.fsync(fh.fileno())
            times.append((time.perf_counter() - started) * 1000.0)
    os.remove(path)
    return statistics.median(times)


async def _point(run_dir: str, clients: int, commits: int):
    """One run: ``commits`` commits from ``clients`` clients.  Returns
    (commits per second, WAL file writes, records written)."""
    counts = {"writes": 0}
    sites = {name: LiveSite(name, run_dir, fsync=True) for name in SITES}
    for site in sites.values():
        site.wal._file = _CountedWrites(site.wal._file, counts)
        await site.start()
    alpha = sites["alpha"].host
    done = asyncio.get_running_loop().create_future()
    progress = {"issued": 0, "finished": 0, "committed": 0}

    def issue():
        progress["issued"] += 1
        alpha.begin_commit("2pc", ["beta", "gamma"])

    def on_complete(tid, outcome):
        progress["finished"] += 1
        progress["committed"] += outcome is Outcome.COMMITTED
        if progress["issued"] < commits:
            issue()
        elif progress["finished"] == commits:
            done.set_result(time.perf_counter())

    alpha.on_complete = on_complete
    try:
        started = time.perf_counter()
        for _ in range(min(clients, commits)):
            issue()
        ended = await asyncio.wait_for(done, timeout=120.0)
        if progress["committed"] != commits:
            raise RuntimeError(f"{progress['committed']} of {commits} "
                               "commits committed")
        # Let the subordinates' outcomes and the lazy records land.
        while not all(site.settled
                      and site.wal.durable_lsn >= site.wal.last_lsn
                      for site in sites.values()):
            await asyncio.sleep(0.005)
        records = sum(site.wal.durable_lsn for site in sites.values())
    finally:
        for site in sites.values():
            await site.stop()
    return commits / (ended - started), counts["writes"], records


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    return tuple(statistics.quantiles(values, n=4))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument("--commits", type=int, default=100,
                        help="commits per run")
    args = parser.parse_args()

    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        disk_ms = fsync_ms_p50(scratch)
        cost = dataclasses.replace(CostModel(), log_force=disk_ms)
        runs = {clients: [] for clients in CLIENTS}
        for repeat in range(args.repeats):
            for clients in CLIENTS:
                run_dir = os.path.join(scratch, f"r{repeat}c{clients}")
                runs[clients].append(asyncio.run(
                    _point(run_dir, clients, args.commits)))
        for clients in CLIENTS:
            rates = [rate for rate, _, _ in runs[clients]]
            writes = sum(w for _, w, _ in runs[clients])
            records = sum(r for _, _, r in runs[clients])
            q1, median, q3 = _quartiles(rates)
            per_write = args.commits * args.repeats / writes
            ceiling = predict(clients, threads=1, group_commit=True,
                              cost=cost, batching_factor=per_write)
            rows.append({"clients": clients, "runs": rates,
                         "commits_per_s": median,
                         "q1": q1, "q3": q3, "iqr": q3 - q1,
                         "records_per_write": records / writes,
                         "commits_per_write": per_write,
                         "logger_ceiling": ceiling.disk_ceiling_tps})

    print(f"fsync p50 {disk_ms:.3f} ms; {args.repeats} runs of "
          f"{args.commits} optimized-2PC commits per point, 3 sites")
    print("| clients | commits/s (median) | IQR | records/write "
          "| commits/write | logger ceiling |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        print(f"| {row['clients']} | {row['commits_per_s']:,.0f} "
              f"| {row['iqr']:,.0f} | {row['records_per_write']:.1f} "
              f"| {row['commits_per_write']:.2f} "
              f"| {row['logger_ceiling']:,.0f} |")
    print(json.dumps({"fsync_ms_p50": disk_ms, "rows": rows}))


if __name__ == "__main__":
    main()
