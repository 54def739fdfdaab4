"""CLI for deterministic chaos exploration.

Explore::

    PYTHONPATH=src python -m repro.chaos --protocol 2pc --schedules 50 --seed 7
    PYTHONPATH=src python -m repro.chaos --protocol nb --mode systematic

Replay a saved repro and verify byte-determinism::

    PYTHONPATH=src python -m repro.chaos --replay chaos-repros/repro-000.json

Exit status: 0 all schedules clean (or replay reproduced), 1 at least
one invariant violation (failing schedules are shrunk and written to
``--out``), 2 replay diverged or bad usage.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List

from repro.chaos.boundaries import systematic_schedules
from repro.chaos.scenario import (
    DEFAULT_SETTLE_MS,
    PROTOCOLS,
    RunResult,
    ScenarioSpec,
    run_schedule,
)
from repro.chaos.schedule import (
    FaultSchedule,
    leader_failover_schedules,
    random_schedules,
)
from repro.chaos.shrinker import replay, shrink_schedule, write_repro
from repro.chaos.bugs import BUGS

MAX_SHRINKS = 5   # shrinking re-runs the scenario many times; cap it


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.chaos",
        description="Deterministic fault exploration with invariant "
                    "oracles, shrinking, and replayable repros.")
    parser.add_argument("--protocol", choices=sorted(PROTOCOLS),
                        default="2pc", help="commit protocol under test")
    parser.add_argument("--schedules", type=int, default=50,
                        help="number of random schedules (default 50)")
    parser.add_argument("--seed", type=int, default=7,
                        help="base seed for random schedules (default 7)")
    parser.add_argument("--mode",
                        choices=("random", "systematic", "both", "failover"),
                        default="both",
                        help="schedule source (default both); failover "
                             "sweeps coordinator crashes and "
                             "crash-restarts through the commit window")
    parser.add_argument("--sites", default="a,b,c",
                        help="comma-separated site names (default a,b,c)")
    parser.add_argument("--settle", type=float, default=DEFAULT_SETTLE_MS,
                        help="virtual ms to run past the last fault "
                             f"(default {DEFAULT_SETTLE_MS:g})")
    parser.add_argument("--bug", choices=sorted(BUGS), default=None,
                        help="seed a deliberate protocol bug (oracle "
                             "self-test)")
    parser.add_argument("--out", default="chaos-repros",
                        help="directory for shrunk repro files")
    parser.add_argument("--replay", metavar="FILE", default=None,
                        help="re-execute a saved repro and verify its "
                             "signature (ignores exploration options)")
    return parser


def _do_replay(path: str) -> int:
    reproduced, fresh, expected = replay(path)
    print(f"replay {path}")
    print(f"  schedule:  {fresh.schedule.describe()}")
    print(f"  signature: {fresh.signature}")
    for violation in fresh.violations:
        print(f"  violation: {violation.describe()}")
    if reproduced:
        print("  result: reproduced (signature and failure match)")
        return 0
    print(f"  result: DIVERGED (expected signature {expected})")
    return 2


def _explore(args: argparse.Namespace) -> int:
    sites = tuple(s for s in args.sites.split(",") if s)
    spec = ScenarioSpec(protocol=args.protocol, sites=sites,
                        settle_ms=args.settle, bug=args.bug)
    schedules: List[FaultSchedule] = []
    if args.mode in ("random", "both"):
        schedules += random_schedules(sites, args.seed, args.schedules)
    if args.mode in ("systematic", "both"):
        schedules += systematic_schedules(spec)
    if args.mode == "failover":
        schedules += leader_failover_schedules(sites, spec.coordinator)
    print(f"chaos: {len(schedules)} schedule(s), protocol={args.protocol}, "
          f"sites={','.join(sites)}, seed={args.seed}, mode={args.mode}"
          + (f", bug={args.bug}" if args.bug else ""))

    failures: List[RunResult] = []
    for schedule in schedules:
        result = run_schedule(spec, schedule)
        if not result.ok:
            failures.append(result)
            print(f"FAIL {schedule.describe()}")
            for violation in result.violations:
                print(f"     {violation.describe()}")
    if not failures:
        print(f"ok: {len(schedules)} schedule(s), no invariant violations")
        return 0

    print(f"{len(failures)} failing schedule(s); shrinking up to "
          f"{MAX_SHRINKS} and writing repros to {args.out}/")
    os.makedirs(args.out, exist_ok=True)
    for index, failure in enumerate(failures[:MAX_SHRINKS]):
        _, minimal = shrink_schedule(spec, failure)
        path = os.path.join(args.out, f"repro-{args.protocol}-{index:03d}.json")
        write_repro(path, minimal)
        print(f"  {path}: {len(minimal.schedule)} event(s) — "
              f"{minimal.schedule.describe()}")
    return 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.replay:
        return _do_replay(args.replay)
    return _explore(args)


if __name__ == "__main__":
    sys.exit(main())
