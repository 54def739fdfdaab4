"""Open-loop workloads: past the closed-loop ceiling, at scale.

The paper's throughput experiments (§4.4) are closed-loop: N
application threads each wait for their own commit before starting the
next transaction, so offered load can never exceed N in-flight
transactions and latency feedback throttles the generator.  An
*open-loop* generator arrives transactions on a Poisson process at a
configured rate regardless of completions — the standard way to probe
saturation and queueing behaviour, and the regime a real Camelot
deployment (Avalon servers, many independent clients) actually sees.

Three pieces make million-transaction runs practical:

- **Streaming applications** (``keep_history=False``): per-transaction
  records are dropped at completion, so client-side state is
  O(in-flight), not O(total).
- **Fixed-size latency sketch** (:class:`LatencySketch`): latencies land
  in geometric buckets (quarter-powers-of-two, ~9% relative error), so
  percentiles over a million transactions cost a 160-slot array.
- **Count-only span recording**: a ``SpanRecorder(keep=False)`` tallies
  per-primitive counts without retaining span objects, which still
  supports a Table-3-style per-transaction attribution — counts are
  exact, and each primitive class has a configured unit cost.

Access skew follows a Zipf law over both coordinator sites and objects
(:class:`ZipfSampler`), so a few hot sites/objects carry most of the
load — the contention profile §4.2 dissects, at dozens-to-hundreds of
sites.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from math import log2
from typing import Any, Dict, Generator, List

from repro.analysis.primitives import unit_costs
from repro.config import SystemConfig, rt_pc_profile
from repro.obs.kinds import PRIMITIVE_CLASSES, classify
from repro.obs.spans import SpanRecorder
from repro.servers.application import TransactionAborted
from repro.sim.process import Sleep
from repro.system import CamelotSystem


class ZipfSampler:
    """Zipf(s)-distributed ranks ``0..n-1`` by inverse-CDF lookup.

    Rank ``k`` has weight ``1/(k+1)**s``.  Cumulative weights are
    precomputed once; each sample is one uniform draw plus a bisect —
    deterministic given the caller's ``random.Random``.
    """

    def __init__(self, n: int, s: float = 1.1):
        if n < 1:
            raise ValueError("ZipfSampler needs n >= 1")
        self.n = n
        self.s = s
        self._cum: List[float] = []
        total = 0.0
        for k in range(n):
            total += (k + 1) ** -s
            self._cum.append(total)
        self.total = total

    def sample(self, rng) -> int:
        return bisect_left(self._cum, rng.random() * self.total)

    def pmf(self, k: int) -> float:
        """Analytic probability of rank ``k`` (for distribution tests)."""
        return (k + 1) ** -self.s / self.total


class LatencySketch:
    """Fixed-size geometric histogram of latencies (milliseconds).

    Buckets are quarter-powers-of-two starting at ``LO`` ms: bucket 0
    holds ``ms <= LO`` and bucket ``i >= 1`` covers
    ``[LO * 2**((i-1)/4), LO * 2**(i/4))``, so any reported percentile
    is within ~9% of the true value.  The top bucket also takes
    everything from ~9.7e10 ms up; memory is constant no matter how
    many samples land.
    """

    LO = 0.125
    BUCKETS = 160

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        self.counts = [0] * self.BUCKETS
        self.count = 0
        self.total = 0.0
        self.min = float("inf")
        self.max = 0.0

    def add(self, ms: float) -> None:
        self.count += 1
        self.total += ms
        if ms < self.min:
            self.min = ms
        if ms > self.max:
            self.max = ms
        if ms <= self.LO:
            i = 0
        else:
            i = min(self.BUCKETS - 1, int(log2(ms / self.LO) * 4.0) + 1)
        self.counts[i] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def _bucket_value(self, i: int) -> float:
        if i == 0:
            return self.LO
        # Geometric midpoint of the bucket's edges.
        return self.LO * 2.0 ** ((i - 0.5) / 4.0)

    def quantile(self, q: float) -> float:
        """Approximate q-quantile (0 < q <= 1) from the histogram; 0.0
        when empty (``max`` starts at 0.0 and clamps the answer)."""
        target = q * self.count
        seen = 0
        for i, n in enumerate(self.counts):
            seen += n
            if seen >= target:
                return min(max(self._bucket_value(i), self.min), self.max)
        return self.max


@dataclass
class AttributionRow:
    """One primitive class: exact per-txn count, estimated ms at the
    configured unit cost (0.0 where no single unit cost exists)."""

    cls: str
    per_txn: float
    est_ms: float


@dataclass
class OpenLoopResult:
    """One open-loop run: throughput, latency sketch, attribution."""

    sites: int
    offered_tps: float
    txns: int
    committed: int
    aborted: int
    unfinished: int
    measured_tps: float
    mean_ms: float
    p50_ms: float
    p95_ms: float
    p99_ms: float
    max_ms: float
    peak_in_flight: int
    attribution: List[AttributionRow] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)

    @property
    def commit_fraction(self) -> float:
        return self.committed / self.txns if self.txns else 0.0


def _attribute_counts(counters: Dict[str, int], cost,
                      committed: int) -> List[AttributionRow]:
    """Table-3-style breakdown from exact per-kind counters.

    A class is priced per span at its :func:`unit_costs` entry.  CPU
    service and lock waits have no single unit (component- and
    contention-dependent), so their rows report exact counts with est 0.
    """
    units = unit_costs(cost)
    per_class: Dict[str, float] = {}
    for kind, n in counters.items():
        cls = classify(kind)
        if cls in PRIMITIVE_CLASSES:
            per_class[cls] = per_class.get(cls, 0.0) + n
    rows: List[AttributionRow] = []
    denom = committed or 1
    for cls in PRIMITIVE_CLASSES:
        if cls not in per_class:
            continue
        per_txn = per_class[cls] / denom
        rows.append(AttributionRow(cls=cls, per_txn=per_txn,
                                   est_ms=per_txn * units.get(cls, 0.0)))
    return rows


def run_open_loop(sites: int = 24, rate_tps: float = 300.0,
                  txns: int = 5_000, seed: int = 0, op: str = "write",
                  zipf_s: float = 1.1, remote_fraction: float = 0.15,
                  objects: int = 64, drain_ms: float = 120_000.0
                  ) -> OpenLoopResult:
    """Drive ``txns`` open-loop transactions through a ``sites``-site
    deployment at ``rate_tps`` Poisson arrivals per second.

    Transactions originate uniformly across sites (clients are
    everywhere), but *data access* is Zipf(``zipf_s``)-skewed: the
    object touched, and — for the ``remote_fraction`` of transactions
    that run a 2-site distributed commit — the remote site, so a few
    hot sites and objects carry most of the shared load.  Memory is
    bounded: the system runs streaming applications, a count-only span
    recorder, and a fixed-size latency sketch, so ``txns`` can be
    millions.
    """
    site_names = [f"s{i}" for i in range(sites)]
    # Periodic checkpoints let each site's in-memory WAL truncate behind
    # the oldest active transaction — without them log growth is O(txns)
    # and a million-transaction run cannot stay memory-bounded.
    cost = rt_pc_profile().with_overrides(checkpoint_interval=15_000.0)
    # Generous server pools: a lock waiter parks a worker for up to
    # lock_wait_timeout, and with the default 4 threads a Zipf-hot
    # site's pool fills with waiters while the lock-releasing
    # drop_locks/prepare messages queue behind them (priority
    # inversion -> five-second convoys -> open-loop collapse).
    config = SystemConfig(cost=cost,
                          sites={name: 1 for name in site_names},
                          seed=seed, keep_trace_events=False,
                          server_threads=16)
    system = CamelotSystem(config)
    recorder = SpanRecorder(keep=False)
    system.tracer.attach_obs(recorder)
    kernel = system.kernel
    apps = [system.application(name, name="ol", keep_history=False)
            for name in site_names]

    rng = system.rng.stream("openloop")
    site_zipf = ZipfSampler(sites, zipf_s)
    obj_zipf = ZipfSampler(objects, zipf_s)
    rate_per_ms = rate_tps / 1000.0

    sketch = LatencySketch()
    state = {"in_flight": 0, "peak": 0, "done": 0, "last_done_at": 0.0}

    def txn_body(coord: int, remote: int, obj: str
                 ) -> Generator[Any, Any, None]:
        began = kernel.now
        state["in_flight"] += 1
        if state["in_flight"] > state["peak"]:
            state["peak"] = state["in_flight"]
        services = [f"server0@{site_names[coord]}"]
        if remote >= 0:
            services.append(f"server0@{site_names[remote]}")
            # Canonical lock order: every transaction visits sites in
            # sorted order, so two distributed transactions can wait on
            # each other but never cycle — open-loop backlogs must come
            # from queueing, not from 5-second deadlock timeouts.
            services.sort()
        try:
            yield from apps[coord].minimal_transaction(services, op=op,
                                                       obj=obj)
            sketch.add(kernel.now - began)
        except TransactionAborted:
            pass
        state["in_flight"] -= 1
        state["done"] += 1
        state["last_done_at"] = kernel.now

    def driver() -> Generator[Any, Any, None]:
        for _ in range(txns):
            yield Sleep(rng.expovariate(rate_per_ms))
            coord = rng.randrange(sites)
            remote = -1
            if sites > 1 and rng.random() < remote_fraction:
                remote = site_zipf.sample(rng)
                if remote == coord:
                    remote = (coord + 1) % sites
            txn_obj = f"o{obj_zipf.sample(rng)}"
            system.spawn(txn_body(coord, remote, txn_obj), "ol-txn")

    system.spawn(driver(), "ol-driver")
    started_at = kernel.now
    # Arrivals take ~txns/rate seconds of sim time; run in bounded
    # chunks until every spawned transaction resolves (or the drain
    # budget expires — stragglers are reported, never spun on forever).
    deadline = started_at + txns / rate_per_ms + drain_ms
    while state["done"] < txns and kernel.now < deadline:
        system.run_for(min(5_000.0, deadline - kernel.now))

    committed = sum(app.committed for app in apps)
    aborted = sum(app.aborted for app in apps)
    span_ms = state["last_done_at"] - started_at
    return OpenLoopResult(
        sites=sites, offered_tps=rate_tps, txns=txns,
        committed=committed, aborted=aborted,
        unfinished=txns - state["done"],
        measured_tps=committed / (span_ms / 1000.0) if span_ms > 0 else 0.0,
        mean_ms=sketch.mean, p50_ms=sketch.quantile(0.50),
        p95_ms=sketch.quantile(0.95), p99_ms=sketch.quantile(0.99),
        max_ms=sketch.max if sketch.count else 0.0,
        peak_in_flight=state["peak"],
        attribution=_attribute_counts(recorder.counters, config.cost,
                                      committed),
        counters=dict(recorder.counters))


def scale_curve(site_counts=(8, 24, 48, 96), per_site_tps: float = 6.0,
                txns: int = 3_000, seed: int = 0,
                **kwargs: Any) -> List[OpenLoopResult]:
    """Open-loop throughput as the deployment grows: one run per site
    count, offered load scaling with the site count."""
    return [run_open_loop(sites=n, rate_tps=per_site_tps * n, txns=txns,
                          seed=seed, **kwargs)
            for n in site_counts]
