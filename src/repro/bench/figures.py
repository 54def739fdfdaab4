"""One function per paper table/figure.

Every function is deterministic given its arguments (fresh seeded
system per measurement) and returns plain data structures the
``benchmarks/`` suite asserts on and renders.  Trial counts default to
values that keep a full regeneration to a few seconds of wall time;
crank them up for smoother curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.primitives import (
    PrimitiveRow,
    rpc_breakdown_rows,
    table1_rows,
    table2_rows,
)
from repro.analysis.static_analysis import (
    StaticPath,
    completion,
    local_completion,
)
from repro.analysis.stats import Summary, summarize
from repro.bench.experiment import (
    LatencyResult,
    ThroughputResult,
    measure_latency,
    measure_throughput,
)
from repro.config import SystemConfig, rt_pc_profile
from repro.core.outcomes import ProtocolKind, TwoPhaseVariant
from repro.mach.message import Message
from repro.system import CamelotSystem

SUBS_RANGE = (0, 1, 2, 3)


# ------------------------------------------------------------- Table 1/2


def table1_report() -> List[PrimitiveRow]:
    """Table 1: the machine/Mach benchmark rows (model parameters)."""
    return table1_rows(rt_pc_profile())


@dataclass
class MeasuredPrimitive:
    name: str
    configured: float
    measured: float


def table2_measured(trials: int = 50) -> List[MeasuredPrimitive]:
    """Table 2, live: measure each Camelot primitive in the simulator
    and compare with its configured Table 2 row."""
    cost = rt_pc_profile()
    configured = {row.name: row.value for row in table2_rows(cost)}
    system = CamelotSystem(SystemConfig(cost=cost,
                                        sites={"s0": 1, "s1": 1}))
    out: List[MeasuredPrimitive] = []

    def measured(name: str, value: float) -> None:
        out.append(MeasuredPrimitive(name, configured[name], value))

    # Local in-line IPC to server: a peek round trip is two legs.
    rt0 = system.runtime("s0")
    server = rt0.servers["server0@s0"]

    def ipc_probe():
        samples = []
        for _ in range(trials):
            t0 = system.kernel.now
            yield from system.fabric.call(
                server.port, Message(kind="peek", body={"object": "x"}),
                sender_site="s0")
            samples.append(system.kernel.now - t0)
        return samples

    samples = system.run_process(ipc_probe(), name="ipc-probe")
    measured("Local in-line IPC to server", summarize(samples).mean)

    # Log force.
    from repro.log.records import commit_record

    def force_probe():
        samples = []
        for i in range(trials):
            record = rt0.diskman.append(commit_record(f"probe{i}", "s0"))
            t0 = system.kernel.now
            yield from rt0.diskman.force(record.lsn)
            samples.append(system.kernel.now - t0)
        return samples

    samples = system.run_process(force_probe(), name="force-probe")
    measured("Log force", summarize(samples).mean)

    # Datagram: TranMan-to-TranMan one-way, timed send-to-arrival via
    # the trace (paced so NIC serialization does not skew the samples).
    from repro.core.messages import TxnInquiry
    from repro.core.tid import TID
    from repro.sim.process import Sleep

    before = len(system.tracer.events)
    send_times: List[float] = []

    def dgram_probe():
        for i in range(trials):
            send_times.append(system.kernel.now)
            rt0.dgram.send("s1", TxnInquiry(tid=TID(f"P{i}@s0"), sender="s0"))
            yield Sleep(20.0)

    system.run_process(dgram_probe(), name="dgram-probe")
    arrivals = [e.time for e in system.tracer.events[before:]
                if e.kind == "tranman.dgram_in" and e.site == "s1"]
    deltas = [a - s for s, a in zip(send_times, arrivals)]
    measured("Datagram", summarize(deltas).mean if deltas else 0.0)

    # Remote RPC through the full ComMan path.
    app = system.application("s0")

    def rpc_probe():
        samples = []
        tid = yield from app.begin()
        for _ in range(trials):
            t0 = system.kernel.now
            yield from app.read(tid, "server0@s1", "x")
            samples.append(system.kernel.now - t0)
        yield from app.commit(tid)
        return samples

    samples = system.run_process(rpc_probe(), name="rpc-probe")
    measured("Remote RPC", summarize(samples).mean)

    measured("Get lock", cost.get_lock)
    measured("Drop lock", cost.drop_lock)
    return out


# --------------------------------------------------------- §4.1 breakdown


@dataclass
class RpcBreakdown:
    measured_mean_ms: float
    measured_n: int
    components: List[PrimitiveRow]

    @property
    def accounted_ms(self) -> float:
        return self.components[-1].value


def rpc_breakdown(calls: int = 200) -> RpcBreakdown:
    """§4.1: measure N RPCs, divide, and compare with the component
    accounting (19.1 + 3 + 3.2 + 3.2 = 28.5)."""
    cost = rt_pc_profile()
    system = CamelotSystem(SystemConfig(cost=cost, sites={"s0": 1, "s1": 1}))
    app = system.application("s0")

    def probe():
        samples = []
        tid = yield from app.begin()
        for _ in range(calls):
            t0 = system.kernel.now
            yield from app.read(tid, "server0@s1", "x")
            samples.append(system.kernel.now - t0)
        yield from app.commit(tid)
        return samples

    samples = system.run_process(probe(), timeout_ms=calls * 1000.0,
                                 name="rpc-breakdown")
    # Subtract the server-side lock acquisition: the paper's 28.5 is the
    # bare RPC; its Table 2 "remote RPC 29" adds locking/data access.
    mean = summarize(samples).mean - cost.get_lock
    return RpcBreakdown(measured_mean_ms=mean, measured_n=len(samples),
                        components=rpc_breakdown_rows(cost))


# ------------------------------------------------------------- Figure 2


@dataclass
class FigureSeries:
    """One curve: label -> list of (n_subs, LatencyResult)."""

    label: str
    points: List[Tuple[int, LatencyResult]] = field(default_factory=list)

    def means(self) -> List[float]:
        return [r.summary.mean for _, r in self.points]

    def stdevs(self) -> List[float]:
        return [r.summary.stdev for _, r in self.points]


def figure2(trials: int = 25,
            subs_range: Tuple[int, ...] = SUBS_RANGE
            ) -> Dict[str, FigureSeries]:
    """Figure 2: two-phase commit latency vs number of subordinates for
    the three write variants plus read, with derived TM-only series."""
    variants = [
        ("optimized write", "write", TwoPhaseVariant.OPTIMIZED),
        ("semi-optimized write", "write", TwoPhaseVariant.SEMI_OPTIMIZED),
        ("unoptimized write", "write", TwoPhaseVariant.UNOPTIMIZED),
        ("read", "read", TwoPhaseVariant.OPTIMIZED),
    ]
    return {label: FigureSeries(label=label, points=[
                (subs, measure_latency(
                    n_subs=subs, op=op, protocol=ProtocolKind.TWO_PHASE,
                    variant=variant, trials=trials,
                    label=f"{label}/{subs} subs"))
                for subs in subs_range])
            for label, op, variant in variants}


# -------------------------------------------------------------- Table 3


@dataclass
class Table3Row:
    label: str
    static_path: StaticPath
    measured: Summary
    paper_static: Optional[float] = None
    paper_measured: Optional[float] = None

    @property
    def static_ms(self) -> float:
        return self.static_path.total


def table3(trials: int = 25) -> List[Table3Row]:
    """Table 3: static versus empirical analysis for the three anchor
    cases the paper tabulates, with the paper's own numbers attached."""
    nb = ProtocolKind.NON_BLOCKING
    anchors = [
        ("local update", local_completion("write"), 24.5, 31.0,
         dict(n_subs=0, op="write")),
        ("1-subordinate update", completion("two_phase", "write", 1),
         99.5, 110.0, dict(n_subs=1, op="write")),
        ("local read", local_completion("read"), 9.5, 13.0,
         dict(n_subs=0, op="read")),
        ("1-subordinate NB update", completion("non_blocking", "write", 1),
         150.0, 145.0, dict(n_subs=1, op="write", protocol=nb)),
        ("1-subordinate NB read", completion("non_blocking", "read", 1),
         70.0, 107.0, dict(n_subs=1, op="read", protocol=nb)),
    ]
    return [Table3Row(label, static,
                      measure_latency(trials=trials, **kwargs).summary,
                      paper_static=p_static, paper_measured=p_measured)
            for label, static, p_static, p_measured, kwargs in anchors]


# ------------------------------------------------------------- Figure 3


def figure3(trials: int = 25,
            subs_range: Tuple[int, ...] = SUBS_RANGE
            ) -> Dict[str, FigureSeries]:
    """Figure 3: non-blocking commit latency vs subordinates."""
    return {label: FigureSeries(label=label, points=[
                (subs, measure_latency(
                    n_subs=subs, op=label, protocol=ProtocolKind.NON_BLOCKING,
                    trials=trials, label=f"NB {label}/{subs} subs"))
                for subs in subs_range])
            for label in ("write", "read")}


# ----------------------------------------------------------- Figures 4-5


@dataclass
class ThroughputCurve:
    label: str
    points: List[ThroughputResult] = field(default_factory=list)

    def tps(self) -> List[float]:
        return [p.tps for p in self.points]


def _throughput_curves(configs: List[Tuple[str, int, bool]], op: str,
                       pairs_range: Tuple[int, ...],
                       duration_ms: float) -> Dict[str, ThroughputCurve]:
    """One curve per ``(label, threads, group_commit)`` over ``pairs_range``."""
    return {label: ThroughputCurve(label=label, points=[
                measure_throughput(pairs=pairs, threads=threads,
                                   group_commit=group_commit, op=op,
                                   duration_ms=duration_ms)
                for pairs in pairs_range])
            for label, threads, group_commit in configs}


def figure4(pairs_range: Tuple[int, ...] = (1, 2, 3, 4),
            duration_ms: float = 8_000.0) -> Dict[str, ThroughputCurve]:
    """Figure 4: update throughput vs application/server pairs, for
    TranMan thread counts 1/5/20 and with group commit."""
    return _throughput_curves(
        [("group commit, 20 threads", 20, True),
         ("20 threads", 20, False),
         ("5 threads", 5, False),
         ("1 thread", 1, False)],
        "write", pairs_range, duration_ms)


def figure5(pairs_range: Tuple[int, ...] = (1, 2, 3, 4),
            duration_ms: float = 8_000.0) -> Dict[str, ThroughputCurve]:
    """Figure 5: read throughput vs pairs for 1/5/20 TranMan threads."""
    return _throughput_curves(
        [("20 threads", 20, False),
         ("5 threads", 5, False),
         ("1 thread", 1, False)],
        "read", pairs_range, duration_ms)


# ------------------------------------------------- multicast variance


@dataclass
class MulticastComparison:
    unicast: Summary
    multicast: Summary

    @property
    def variance_reduction(self) -> float:
        """Fraction of latency stddev removed by multicasting."""
        if self.unicast.stdev == 0:
            return 0.0
        return 1.0 - self.multicast.stdev / self.unicast.stdev


def multicast_variance(trials: int = 40,
                       subs: int = 3) -> MulticastComparison:
    """§4.2: multicasting coordinator->subordinate messages does not
    reduce mean commit latency but substantially reduces its variance.

    Compared on the *commit phase* (commit call to return), which is the
    window the coordinator's repeated sends actually sit in — the
    operation RPCs before it are identical in both modes and would
    otherwise swamp the comparison.
    """
    uni = measure_latency(n_subs=subs, op="write", trials=trials,
                          use_multicast=False, label="unicast")
    multi = measure_latency(n_subs=subs, op="write", trials=trials,
                            use_multicast=True, label="multicast")
    return MulticastComparison(unicast=uni.commit_summary,
                               multicast=multi.commit_summary)


# ------------------------------------------------- §4.2 lock contention


@dataclass
class LockContention:
    """Back-to-back transactions on one object: how often the second
    transaction's remote operation waits for the first's locks, per
    protocol variant."""

    per_variant: Dict[str, int]


def lock_contention(txns: int = 20) -> LockContention:
    """The paper's §4.2 analysis: with the unoptimized protocol, the
    second transaction's operation reaches the remote data element
    before the first transaction drops its lock (a ~5 ms wait by static
    analysis); the optimized protocol's early lock drop removes most of
    it."""
    waits: Dict[str, int] = {}
    for label, variant in (("optimized", TwoPhaseVariant.OPTIMIZED),
                           ("unoptimized", TwoPhaseVariant.UNOPTIMIZED)):
        system = CamelotSystem(SystemConfig(cost=rt_pc_profile(),
                                            sites={"s0": 1, "s1": 1}))
        app = system.application("s0")
        services = system.default_services()

        from repro.bench.workloads import serial_minimal_txns
        system.run_process(
            serial_minimal_txns(app, services, txns, op="write",
                                variant=variant),
            timeout_ms=txns * 60_000.0, name=f"contention-{label}")
        waits[label] = system.tracer.count("server.lock_wait")
    return LockContention(per_variant=waits)
