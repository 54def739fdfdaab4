"""Core experiment runners: latency and throughput measurements.

Both runners build a fresh seeded system per call, so results are
deterministic given (parameters, seed) and experiments never bleed into
each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.analysis.primitives import CAMELOT_RPC, IPC_ROUND_TRIP, unit_costs
from repro.analysis.stats import Summary, summarize
from repro.config import SystemConfig, rt_pc_profile, vax_mp_profile
from repro.core.outcomes import ProtocolKind, TwoPhaseVariant
from repro.bench.workloads import closed_loop, serial_minimal_txns
from repro.system import CamelotSystem


@dataclass
class LatencyResult:
    """One latency experiment cell (a point in Figure 2 or 3)."""

    label: str
    n_subs: int
    op: str
    protocol: str
    variant: str
    summary: Summary                # full transaction latency
    tm_summary: Summary             # transaction-management-only (derived)
    commit_summary: Summary         # commit-call to return (measured)
    forces_per_txn: float           # disk-manager force requests
    datagrams_per_txn: float        # TranMan protocol datagrams


@dataclass
class ThroughputResult:
    """One throughput experiment cell (a point in Figure 4 or 5)."""

    pairs: int
    threads: int
    group_commit: bool
    op: str
    tps: float
    committed: int
    duration_ms: float
    log_writes: int = 0
    mean_batch: float = 0.0


def _operation_cost(cost, n_subs: int) -> float:
    """The paper's per-transaction operation cost to subtract: 3.5 ms
    local plus 29 ms per remote operation."""
    units = unit_costs(cost)
    local = units[IPC_ROUND_TRIP] + cost.get_lock
    remote = units[CAMELOT_RPC] + cost.get_lock
    return local + n_subs * remote


def measure_latency(n_subs: int, op: str = "write",
                    protocol: ProtocolKind = ProtocolKind.TWO_PHASE,
                    variant: TwoPhaseVariant = TwoPhaseVariant.OPTIMIZED,
                    trials: int = 30, warmup: int = 3, seed: int = 0,
                    use_multicast: bool = False,
                    label: Optional[str] = None) -> LatencyResult:
    """The paper's basic experiment: a minimal transaction on a
    coordinator plus ``n_subs`` subordinate sites, repeated serially.

    Returns both the raw latency and the derived transaction-management
    time (latency minus operation costs, the paper's derivation for the
    'Tran Mgmt' series of Figures 2-3).
    """
    sites = {f"s{i}": 1 for i in range(n_subs + 1)}
    config = SystemConfig(cost=rt_pc_profile(), sites=sites, seed=seed,
                          use_multicast=use_multicast, group_commit=False,
                          keep_trace_events=False)
    system = CamelotSystem(config)
    app = system.application("s0")
    services = system.default_services()

    total = warmup + trials
    before = system.tracer.snapshot()
    system.run_process(
        serial_minimal_txns(app, services, total, op=op, protocol=protocol,
                            variant=variant),
        timeout_ms=total * 60_000.0, name="latency-workload")
    after = system.tracer.snapshot()
    delta = system.tracer.delta(before, after)

    latencies = app.latencies_ms()[warmup:]
    commit_lats = app.commit_latencies_ms()[warmup:]
    op_cost = _operation_cost(config.cost, n_subs)
    tm_only = [max(0.0, lat - op_cost) for lat in latencies]
    forces = delta.get("diskman.force", 0) / total
    datagrams = (delta.get("tranman.datagram", 0)
                 + delta.get("tranman.multicast", 0)) / total
    return LatencyResult(
        label=label or f"{protocol.value}/{op}/{variant.value}/{n_subs}sub",
        n_subs=n_subs, op=op, protocol=protocol.value, variant=variant.value,
        summary=summarize(latencies), tm_summary=summarize(tm_only),
        commit_summary=summarize(commit_lats),
        forces_per_txn=forces, datagrams_per_txn=datagrams)


def measure_throughput(pairs: int, threads: int, group_commit: bool,
                       op: str = "write", duration_ms: float = 20_000.0,
                       warmup_ms: float = 2_000.0, seed: int = 0
                       ) -> ThroughputResult:
    """The paper's §4.4 experiment: ``pairs`` application/server pairs
    execute minimal local transactions on a multiprocessor site, with
    the TranMan thread count and group commit as parameters.

    Separate pairs (separate servers, separate objects) ensure operation
    processing is never the bottleneck — the load lands on the TranMan,
    the message system, and (for updates) the logger.
    """
    config = SystemConfig(cost=vax_mp_profile(), sites={"vax": pairs},
                          seed=seed, tranman_threads=threads,
                          group_commit=group_commit,
                          keep_trace_events=False)
    system = CamelotSystem(config)
    apps = [system.application("vax", name=f"pair{i}") for i in range(pairs)]

    counters: Dict[int, int] = {}
    done_flags: List[bool] = [False] * pairs

    def pair_body(i: int):
        committed = yield from closed_loop(
            apps[i], [f"server{i}@vax"], until_ms=warmup_ms + duration_ms,
            op=op, obj=f"obj{i}")
        counters[i] = committed
        done_flags[i] = True

    for i in range(pairs):
        system.spawn(pair_body(i), name=f"pair{i}")
    # Run past the deadline far enough for in-flight commits to settle.
    system.run_for(warmup_ms + duration_ms + 5_000.0)

    # Count only transactions that *committed* inside the window.
    from repro.core.outcomes import Outcome

    committed = 0
    for app in apps:
        for rec in app.history:
            if (rec.outcome is Outcome.COMMITTED
                    and rec.committed_at is not None
                    and warmup_ms <= rec.committed_at
                    <= warmup_ms + duration_ms):
                committed += 1
    diskman = system.runtime("vax").diskman
    return ThroughputResult(
        pairs=pairs, threads=threads, group_commit=group_commit, op=op,
        tps=committed / (duration_ms / 1000.0), committed=committed,
        duration_ms=duration_ms, log_writes=diskman.disk_writes,
        mean_batch=diskman.batcher.mean_batch_size)
