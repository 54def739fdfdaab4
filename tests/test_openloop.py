"""Open-loop workload generator: distribution correctness, sketch
accuracy, seed determinism, and streaming boundedness (ISSUE 6)."""

import random

import pytest

from repro.bench.openloop import (
    LatencySketch,
    ZipfSampler,
    run_open_loop,
    scale_curve,
)
from repro.config import rt_pc_profile


# ------------------------------------------------------------- sampler


def test_zipf_sampler_matches_analytic_pmf():
    """Empirical rank frequencies track the analytic Zipf pmf."""
    sampler = ZipfSampler(16, s=1.1)
    rng = random.Random(42)
    n = 40_000
    counts = [0] * 16
    for _ in range(n):
        counts[sampler.sample(rng)] += 1
    for k in range(16):
        expected = sampler.pmf(k) * n
        # 5-sigma binomial tolerance, floor of 25 for the rare tail.
        sigma = max(25.0, 5.0 * (expected * (1 - sampler.pmf(k))) ** 0.5)
        assert abs(counts[k] - expected) < sigma, (
            f"rank {k}: observed {counts[k]}, expected {expected:.0f}")


def test_zipf_sampler_is_skewed_and_normalized():
    sampler = ZipfSampler(64, s=1.1)
    pmf = [sampler.pmf(k) for k in range(64)]
    assert abs(sum(pmf) - 1.0) < 1e-9
    assert pmf[0] > 5 * pmf[15] > 0  # head dominates the tail
    assert pmf == sorted(pmf, reverse=True)


def test_zipf_sampler_deterministic_given_rng():
    sampler = ZipfSampler(32, s=1.2)
    a = [sampler.sample(random.Random(7)) for _ in range(50)]
    b = [sampler.sample(random.Random(7)) for _ in range(50)]
    assert a == b


def test_zipf_sampler_rejects_empty():
    with pytest.raises(ValueError):
        ZipfSampler(0)


def test_poisson_interarrival_mean():
    """The driver draws expovariate(rate) gaps; their mean is 1/rate."""
    rng = random.Random(0)
    rate_per_ms = 0.3  # 300 tps
    n = 20_000
    gaps = [rng.expovariate(rate_per_ms) for _ in range(n)]
    mean = sum(gaps) / n
    # Standard error of an exponential mean is mean/sqrt(n): ~2%.
    assert abs(mean - 1.0 / rate_per_ms) < 0.1 / rate_per_ms


# -------------------------------------------------------------- sketch


def test_latency_sketch_quantiles_within_relative_error():
    sketch = LatencySketch()
    rng = random.Random(1)
    samples = [rng.lognormvariate(3.0, 1.0) for _ in range(10_000)]
    for ms in samples:
        sketch.add(ms)
    samples.sort()
    for q in (0.50, 0.95, 0.99):
        exact = samples[int(q * len(samples)) - 1]
        approx = sketch.quantile(q)
        # Bucket width is 2**(1/4): ~19% worst-case band, generous here.
        assert approx == pytest.approx(exact, rel=0.25), f"q={q}"


def test_latency_sketch_exact_mean_min_max():
    sketch = LatencySketch()
    for ms in (1.0, 2.0, 4.0, 9.0):
        sketch.add(ms)
    assert sketch.count == 4
    assert sketch.mean == pytest.approx(4.0)
    assert sketch.min == 1.0
    assert sketch.max == 9.0
    # Quantiles are clamped into [min, max].
    assert sketch.min <= sketch.quantile(0.01) <= sketch.max
    assert sketch.min <= sketch.quantile(0.999) <= sketch.max


def test_latency_sketch_fixed_size():
    sketch = LatencySketch()
    for i in range(50_000):
        sketch.add(0.1 + (i % 1000) * 3.7)
    assert len(sketch.counts) == LatencySketch.BUCKETS
    assert sketch.count == 50_000


# ------------------------------------------------------------ open loop


def _small_run(**kw):
    defaults = dict(sites=4, rate_tps=120.0, txns=150, seed=3)
    defaults.update(kw)
    return run_open_loop(**defaults)


def test_open_loop_smoke_all_transactions_resolve():
    result = _small_run()
    assert result.committed + result.aborted == result.txns
    assert result.unfinished == 0
    assert result.measured_tps > 0
    assert result.peak_in_flight >= 1
    assert 0.0 < result.p50_ms <= result.p99_ms <= result.max_ms


def test_open_loop_seed_deterministic():
    a = _small_run()
    b = _small_run()
    assert (a.committed, a.aborted, a.measured_tps, a.mean_ms,
            a.peak_in_flight) == \
        (b.committed, b.aborted, b.measured_tps, b.mean_ms,
         b.peak_in_flight)
    assert a.counters == b.counters


def test_open_loop_seeds_differ():
    a = _small_run(seed=3)
    b = _small_run(seed=4)
    assert a.mean_ms != b.mean_ms


def test_open_loop_attribution_is_populated():
    result = _small_run()
    classes = {row.cls for row in result.attribution}
    # Every committed transaction does local IPC and forces the log.
    assert "ipc" in classes
    assert "log_force" in classes
    for row in result.attribution:
        assert row.per_txn > 0
    est = {row.cls: row.est_ms for row in result.attribution}
    assert est["log_force"] > 0  # unit-cost classes carry an estimate
    # CPU has no single unit cost: counted, never priced.
    if "cpu" in est:
        assert est["cpu"] == 0.0


def test_open_loop_prices_an_rpc_span_as_one_leg():
    """Each remote operation is one NetMsgServer round trip: two
    ``rpc.netmsg`` spans, request and reply, each half of netmsg_rpc."""
    result = _small_run(rate_tps=20.0, txns=60, seed=1, remote_fraction=1.0)
    rpc = next(row for row in result.attribution if row.cls == "rpc")
    assert rpc.per_txn == pytest.approx(2.0)
    assert rpc.est_ms == pytest.approx(
        rpc.per_txn * rt_pc_profile().netmsg_rpc / 2)


def test_scale_curve_shape_and_load_scaling():
    results = scale_curve(site_counts=(2, 4), per_site_tps=15.0, txns=80,
                          seed=1)
    assert [r.sites for r in results] == [2, 4]
    assert results[0].offered_tps == pytest.approx(30.0)
    assert results[1].offered_tps == pytest.approx(60.0)
    for r in results:
        assert r.unfinished == 0
