"""The benchmark's own checks; not part of the tier-1 suite.

Run with ``python -m pytest perf/tests -q``.
"""

import json
import math
import re
import subprocess
import sys

import pytest

from perf import ROOT
from perf.catalogue import END_TO_END, PER_LAYER
from perf.runner import emit, measure, result
from perf.trace import UNASSIGNED, layer_of, per_layer
from perf.workloads import (WORKLOADS, FiguresAll, LiveC8TwoPhase,
                            SimFamilies, SimOpenLoop)
from repro.core.outcomes import Vote

CONTRACT = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def test_contract_lists_exactly_the_catalogue():
    assert [(m["name"], m["unit"], m["better"], m["bound"])
            for m in CONTRACT["end_to_end"]] == END_TO_END
    assert [(m["name"], m["unit"], m["better"])
            for m in CONTRACT["per_layer"]] == PER_LAYER
    assert [(w["name"], w["why"]) for w in CONTRACT["workloads"]] == [
        (name, cls.why) for name, cls in WORKLOADS.items()]


def test_contract_is_within_the_drivers_limits():
    assert set(CONTRACT) == {"command", "paths", "run_seconds", "workloads",
                             "end_to_end", "per_layer"}
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in CONTRACT[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(m["unit"]) for key in ("end_to_end", "per_layer")
               for m in CONTRACT[key])
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in CONTRACT["workloads"])
    assert 2 <= len(CONTRACT["workloads"]) <= 8
    assert 1 <= len(CONTRACT["end_to_end"]) <= 16
    assert 1 <= len(CONTRACT["per_layer"]) <= 128
    assert all(0 < m["bound"] <= 0.25 for m in CONTRACT["end_to_end"])
    setup = next(m for m in CONTRACT["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in CONTRACT["end_to_end"])
    runs = 4 + 22 * len(CONTRACT["workloads"])
    assert runs * (CONTRACT["run_seconds"] + 8) <= 3420


def test_smoke_prints_every_metric_of_the_contract_and_no_other():
    proc = subprocess.run(
        [sys.executable, "-m", "perf", "all", "--scale", "0.02",
         "--repeats", "1", "--seconds", "0.5", "--seed", "3"],
        cwd=str(ROOT), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    units = {m["name"]: m["unit"]
             for key in ("end_to_end", "per_layer") for m in CONTRACT[key]}
    seen = {name: set() for name in WORKLOADS}
    for line in proc.stdout.splitlines():
        fields = line.split()
        if len(fields) == 4 and fields[0] in seen:
            workload, metric, value, unit = fields
            assert metric in units, f"metric outside the contract: {line}"
            assert unit == units[metric]
            assert math.isfinite(float(value))
            seen[workload].add(metric)
    for workload, metrics in seen.items():
        assert metrics == set(units), (workload, set(units) ^ metrics)


@pytest.mark.parametrize("cls", [SimOpenLoop, SimFamilies, FiguresAll])
def test_same_seed_same_digest_other_seed_other_digest(cls):
    first, again, other = (cls(seed, scale=0.03).round().digest
                           for seed in (1, 1, 2))
    assert first and first == again
    assert first != other


def test_layer_map():
    assert layer_of("<built-in method posix.fsync>") == "fsync"
    assert layer_of("<method 'poll' of 'select.epoll' objects>") == "asyncio"
    assert layer_of("<built-in method builtins.len>") == "builtins"
    assert layer_of(SimFamilies.round.__code__) == "driver"
    assert layer_of(json.dumps.__code__) == "stdlib"
    assert layer_of(compile("1", "<string>", "eval")) == UNASSIGNED
    import repro.sim.kernel, repro.system, repro.live.host
    assert layer_of(repro.sim.kernel.Kernel.run.__code__) == "sim"
    assert layer_of(repro.live.host.SiteHost.deliver.__code__) == "live"
    assert layer_of(repro.system.CamelotSystem.run_for.__code__) == "bench"


def test_traced_run_leaves_under_one_percent_unassigned():
    workload = SimFamilies(seed=1, scale=0.1)
    metrics = per_layer(workload, seconds=0.3, max_rounds=1)["metrics"]
    assert metrics["trace.unassigned_share"]["value"] < 0.01
    assert metrics["trace.coverage"]["value"] >= 0.95
    assert metrics["core.self_us_per_op"]["value"] > 0
    assert metrics["sim.events_per_op"]["value"] > 0


def test_a_scripted_no_vote_fails_every_commit_and_the_run(capsys):
    workload = LiveC8TwoPhase(seed=1, scale=0.05, votes={"beta": Vote.NO})
    try:
        measurement = measure(workload, seconds=0.1, max_rounds=1)
    finally:
        workload.close()
    assert measurement.attempted > 0
    assert measurement.failed == measurement.attempted  # fail_frac == 1.0
    assert measurement.latencies() == []
    outcome = result(measurement, {"ops_per_s": measurement.ops_per_s})
    assert outcome["correct"] is False
    assert emit(outcome) != 0
