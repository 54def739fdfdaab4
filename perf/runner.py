"""Run one workload for a fixed time and reduce its rounds to metrics.

``end_to_end`` produces the untraced numbers the driver bounds;
``per_layer`` (in :mod:`perf.trace`) reuses :func:`measure` for its
untraced baseline.  Both report every metric ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from perf import ROOT
from perf.calibrate import REFERENCE_S
from perf.catalogue import UNITS
from perf.stats import fast_time, spread
from perf.workloads import LiveWorkload, Round, Workload, filesystem_type

# Child interpreters started per run to time set-up (each costs
# 0.3-0.6 s on the reference sandbox); summarised like every other time
# here, at the fast quantile.
SETUP_PROBES = 7


@dataclass
class Measurement:
    """The rounds of one measuring phase, and what they reduce to."""

    rounds: List[Round] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(r.attempted for r in self.rounds)

    @property
    def committed(self) -> int:
        return sum(r.committed for r in self.rounds)

    @property
    def failed(self) -> int:
        return self.attempted - self.committed

    def _pooled(self) -> Dict[str, List[float]]:
        """Every window's host seconds restated at reference host speed,
        by part, over all rounds."""
        pooled: Dict[str, List[float]] = {}
        for r in self.rounds:
            for part, times in r.parts.items():
                speed = REFERENCE_S / r.reference_s[part]
                pooled.setdefault(part, []).extend(
                    seconds * speed for seconds in times)
        return pooled

    @property
    def host_speed(self) -> float:
        """Mean host speed over the timed regions, 1 = reference."""
        speeds = [REFERENCE_S / seconds for r in self.rounds
                  for seconds in r.reference_s.values()]
        return sum(speeds) / len(speeds)

    @property
    def s_per_op(self) -> float:
        """Host seconds per committed op at reference speed with nothing
        interfering: per part, the fast quantile of its windows; summed
        over parts (0 if no window completed)."""
        pooled = self._pooled()
        if not any(pooled.values()):
            return 0.0
        return sum(fast_time(times) for times in pooled.values()
                   if times) / self.rounds[0].window_ops

    @property
    def ops_per_s(self) -> float:
        seconds = self.s_per_op
        return 1.0 / seconds if seconds else 0.0

    @property
    def ops_per_round(self) -> float:
        return self.committed / len(self.rounds)

    @property
    def windows(self) -> int:
        return sum(len(times) for times in self._pooled().values())

    @property
    def window_spread(self) -> float:
        """IQR/median of the windows' own times, the widest part: how
        disturbed this run was (0 with fewer than two windows)."""
        return max((spread(times) for times in self._pooled().values()
                    if len(times) > 1), default=0.0)

    def latencies(self, family: Optional[str] = None) -> List[float]:
        """Commit latencies pooled over all rounds."""
        return [ms for r in self.rounds
                for name, samples in r.latencies_ms.items()
                if family is None or name == family
                for ms in samples]

    def count(self, name: str) -> int:
        return sum(r.counts.get(name, 0) for r in self.rounds)

    @property
    def digests(self) -> List[str]:
        return sorted({r.digest for r in self.rounds if r.digest})

    @property
    def errors(self) -> List[str]:
        errors = [e for r in self.rounds for e in r.errors]
        if len(self.digests) > 1:
            errors.append("digest differs between rounds of one seed: "
                          + " ".join(self.digests))
        return errors


def measure(workload: Workload, seconds: float,
            max_rounds: Optional[int] = None,
            warm_up: bool = True) -> Measurement:
    """Warm up, then run rounds until ``seconds`` have passed.

    A new round starts only while half a typical round still fits, so
    the phase ends within half a round of the budget either way.  GC
    stays on (it is part of the cost) but each round starts collected.
    """
    if warm_up:
        workload.warm_up()
    measurement = Measurement()
    started = time.perf_counter()
    while True:
        gc.collect()
        measurement.rounds.append(workload.round())
        elapsed = time.perf_counter() - started
        done = len(measurement.rounds)
        if max_rounds is not None and done >= max_rounds:
            break
        if elapsed + 0.5 * elapsed / done >= seconds:
            break
    return measurement


def probe_setup(name: str, seed: int) -> float:
    """Seconds from starting a fresh interpreter to its first finished
    unit of work (imports, first system or cluster build, one op),
    restated by the child at reference host speed."""
    started = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "first-op", "--workload", name,
         "--seed", str(seed), "--since", repr(started)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def host_warnings(workload: Workload) -> List[str]:
    """Conditions under which the numbers say more about the sandbox
    than about the code."""
    warnings = []
    # This benchmark is itself one always-busy process, so its own
    # earlier runs put the average at 1: count what is above that.
    others = os.getloadavg()[0] - 1.0
    cpus = os.cpu_count() or 1
    if others > cpus / 2 - 0.5:
        warnings.append(f"1-minute load average is {others + 1.0:.2f} on "
                        f"{cpus} cpus: another job is competing")
    if isinstance(workload, LiveWorkload):
        fstype = filesystem_type(os.path.dirname(workload.base_dir))
        if fstype in ("tmpfs", "ramfs"):
            warnings.append(f"live run directory is on {fstype}: fsync "
                            "costs nothing, latency is the sandbox's")
    return warnings


def end_to_end(workload: Workload, seconds: float,
               max_rounds: Optional[int] = None) -> Dict[str, Any]:
    """The ``--trace 0`` run: every end-to-end metric, tracing off.
    ``max_rounds`` (smoke tests) also caps the set-up probes."""
    for warning in host_warnings(workload):
        print(f"warning: {warning}")
    setups = [probe_setup(workload.name, workload.seed)
              for _ in range(min(SETUP_PROBES, max_rounds or SETUP_PROBES))]
    measurement = measure(workload, seconds, max_rounds)
    describe(workload, measurement)
    return result(measurement, {
        "setup_s": fast_time(setups),
        "ops_per_s": measurement.ops_per_s,
        "peak_rss_mb": peak_rss_mb(),
    })


def describe(workload: Workload, measurement: Measurement) -> None:
    """Human-readable lines above the JSON result."""
    print(f"{workload.name}: seed {workload.seed}, "
          f"{len(measurement.rounds)} rounds of "
          f"{measurement.ops_per_round:g} x '{workload.op}', "
          f"{measurement.windows} windows, "
          f"window spread {measurement.window_spread:.3f}, "
          f"host speed {measurement.host_speed:.2f}")
    for digest in measurement.digests:
        print(f"{workload.name}: digest {digest}")
    for error in measurement.errors[:10]:
        print(f"{workload.name}: FAILED CHECK: {error}")


def result(measurement: Measurement,
           values: Dict[str, float]) -> Dict[str, Any]:
    """The object the contract asks for; units come from the catalogue."""
    return {
        "correct": not measurement.errors and measurement.failed == 0,
        "attempted": measurement.attempted,
        "failed": measurement.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }


def emit(outcome: Dict[str, Any]) -> int:
    """Print the result as the last line; the exit code says whether
    every check passed and every operation succeeded."""
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["correct"] else 1
