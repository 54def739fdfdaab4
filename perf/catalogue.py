"""Every metric the benchmark reports: name, unit, which way is better.

``BENCHMARK.json`` at the repo root must list exactly these (a test
compares them), and every run prints exactly these: all of
``END_TO_END`` with ``--trace 0``, all of ``PER_LAYER`` with
``--trace 1``, on every workload.  A per-layer metric that does not
apply to a workload (``live.*`` on a simulator workload, ``sim.*`` on a
live one) reads 0 there.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

LOWER, HIGHER = "lower", "higher"

# The repo's packages, then what they stand on.  ``bench`` also takes
# the assembly code outside any package (system.py, config.py,
# __main__.py, analysis/): it is what a figure pays to set a system up.
# ``driver`` is this package's own code inside the timed regions.
REPRO_LAYERS = ("sim", "mach", "net", "log", "core", "servers", "obs",
                "bench", "live")
LAYERS = REPRO_LAYERS + ("fsync", "asyncio", "stdlib", "builtins", "driver")

# (name, unit, better, bound).  The bound is the share of the parent's
# median by which a later change may worsen the metric; see README
# "Noise" for the A/A measurements they come from.
END_TO_END: List[Tuple[str, str, str, float]] = [
    ("setup_s", "s", LOWER, 0.25),
    ("ops_per_s", "1/s", HIGHER, 0.25),
    ("peak_rss_mb", "MiB", LOWER, 0.2),
]

PER_LAYER: List[Tuple[str, str, str]] = (
    [(f"{layer}.self_us_per_op", "us", LOWER) for layer in LAYERS]
    + [(f"{layer}.calls_per_op", "count", LOWER) for layer in LAYERS]
    + [
        ("trace.coverage", "ratio", HIGHER),
        ("trace.unassigned_share", "ratio", LOWER),
        ("trace.overhead_ratio", "ratio", LOWER),
        # exact counts from the simulated systems' public counters
        ("sim.events_per_op", "count", LOWER),
        ("sim.peak_pending", "count", LOWER),
        ("log.forces_per_op", "count", LOWER),
        ("log.appends_per_op", "count", LOWER),
        ("net.datagrams_per_op", "count", LOWER),
        ("mach.ipc_per_op", "count", LOWER),
        ("servers.lock_waits_per_op", "count", LOWER),
        ("obs.spans_counted_per_op", "count", LOWER),
        # spans at the live layer boundaries
        ("live.forces_per_commit", "count", LOWER),
        ("live.records_per_force", "count", HIGHER),
        ("live.force_ms_p50", "ms", LOWER),
        ("live.force_ms_p95", "ms", LOWER),
        ("live.frames_per_commit", "count", LOWER),
        ("live.bytes_per_commit", "B", LOWER),
        ("live.deliver_us_p50", "us", LOWER),
        ("live.duplicates_per_commit", "count", LOWER),
        ("live.loop_idle_share", "ratio", HIGHER),
        # what the closed-loop driver saw, tracing off
        ("driver.commit_p50_ms", "ms", LOWER),
        ("driver.commit_p95_ms", "ms", LOWER),
        ("driver.commit_p99_ms", "ms", LOWER),
        ("driver.commit_p50_ms.2pc", "ms", LOWER),
        ("driver.commit_p50_ms.nb", "ms", LOWER),
        ("driver.commit_p50_ms.paxos", "ms", LOWER),
        ("driver.rounds", "count", HIGHER),
        ("driver.windows", "count", HIGHER),
        ("driver.window_spread", "ratio", LOWER),
        # microbenchmarks, best of up to 12 short trials
        ("sim.post_events_per_s", "1/s", HIGHER),
        ("sim.schedule_events_per_s", "1/s", HIGHER),
        ("sim.cancel_heavy_events_per_s", "1/s", HIGHER),
        ("sim.process_resumes_per_s", "1/s", HIGHER),
        ("mach.ipc_roundtrips_per_s", "1/s", HIGHER),
        ("net.lan_datagrams_per_s", "1/s", HIGHER),
        ("log.wal_append_force_per_s", "1/s", HIGHER),
        ("servers.lock_cycles_per_s", "1/s", HIGHER),
        ("servers.recovery_records_per_s", "1/s", HIGHER),
        ("obs.count_only_overhead_ratio", "ratio", LOWER),
        ("bench.system_build_ms", "ms", LOWER),
        ("live.simhost_2pc_commits_per_s", "1/s", HIGHER),
        ("live.simhost_nb_commits_per_s", "1/s", HIGHER),
        ("live.simhost_paxos_commits_per_s", "1/s", HIGHER),
        ("live.codec_encode_frames_per_s", "1/s", HIGHER),
        ("live.codec_decode_frames_per_s", "1/s", HIGHER),
        ("live.codec_bytes_per_frame", "B", LOWER),
        ("live.walfile_force_per_s", "1/s", HIGHER),
        ("live.walfile_batch32_records_per_s", "1/s", HIGHER),
        ("live.walfile_nofsync_force_per_s", "1/s", HIGHER),
        ("live.fsync_ms_p50", "ms", LOWER),
        ("live.loopback_rtt_us_p50", "us", LOWER),
    ]
)

UNITS: Dict[str, str] = {name: unit for name, unit, *_ in END_TO_END}
UNITS.update({name: unit for name, unit, _ in PER_LAYER})
