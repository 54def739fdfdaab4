"""Command line of the benchmark.

The driver's contract (``BENCHMARK.json``)::

    python3 -m perf --workload NAME --seed N --seconds S --trace 0|1

prints, as the last line of stdout, one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``, and exits non-zero if a check
failed.  For people::

    python -m perf all [--seed N]     every workload, untraced and traced,
                                      each in its own child interpreter
    python -m perf micro              the per-layer microbenchmarks alone
    python -m perf aa [--runs 10]     two interleaved sets of the same code
    python -m perf check              reduced sizes, under 30 s
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from perf import ROOT
from perf.calibrate import REFERENCE_S, reference_seconds
from perf.catalogue import END_TO_END, UNITS
from perf.micro import run_micro
from perf.runner import emit, end_to_end
from perf.stats import quartiles
from perf.trace import per_layer
from perf.workloads import WORKLOADS, filesystem_type


def run_one(args: argparse.Namespace) -> int:
    # The per-layer run includes the storage device, the bounded
    # end-to-end run does not: see LiveWorkload.
    workload = WORKLOADS[args.workload](args.seed, args.scale,
                                        device=bool(args.trace))
    try:
        if args.trace:
            outcome = per_layer(workload, args.seconds, args.repeats)
        else:
            outcome = end_to_end(workload, args.seconds, args.repeats)
    finally:
        workload.close()
    return emit(outcome)


def first_op(args: argparse.Namespace) -> int:
    """The set-up probe's child: one unit of work, then report how long
    ago the parent started this interpreter."""
    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        workload.first_op()
    finally:
        workload.close()
    elapsed = time.monotonic() - args.since
    print(repr(elapsed * REFERENCE_S / reference_seconds()))
    return 0


def child(workload: str, args: argparse.Namespace, trace: int
          ) -> Optional[Dict[str, Any]]:
    """One workload run in a fresh interpreter; its parsed result, or
    None if it printed none.  Its other output is passed through."""
    command = [sys.executable, "-m", "perf", "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(trace), "--scale", str(args.scale)]
    if args.repeats is not None:
        command += ["--repeats", str(args.repeats)]
    proc = subprocess.run(command, cwd=str(ROOT), capture_output=True,
                          text=True)
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(f"  {line}")
    if proc.stderr.strip():
        print(proc.stderr.rstrip(), file=sys.stderr)
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def machine_context() -> Dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "live_run_dir_fs": filesystem_type(str(ROOT)),
        "loadavg_1m_at_start": os.getloadavg()[0],
    }


def run_all(args: argparse.Namespace) -> int:
    """Every workload, each pass in its own child; one row per metric."""
    context = machine_context()
    print(f"machine: {json.dumps(context)}")
    passes = [args.trace] if args.trace is not None else [0, 1]
    failed = False
    record: Dict[str, Any] = {"machine": context, "seed": args.seed,
                              "seconds": args.seconds, "workloads": {}}
    for name in WORKLOADS:
        for trace in passes:
            print(f"== {name}, trace {trace}")
            outcome = child(name, args, trace)
            if outcome is None or not outcome["correct"]:
                failed = True
                print(f"  FAILED: {name} trace {trace}")
            if outcome is None:
                continue
            row = record["workloads"].setdefault(name, {})
            row[f"attempted.trace{trace}"] = outcome["attempted"]
            row[f"failed.trace{trace}"] = outcome["failed"]
            for metric, entry in outcome["metrics"].items():
                row[metric] = entry["value"]
                print(f"  {name:<18} {metric:<36} "
                      f"{entry['value']:>16.6g} {entry['unit']}")
    if args.record:
        with open(args.record, "w", encoding="utf-8") as handle:
            json.dump(record, handle, indent=1, sort_keys=True)
            handle.write("\n")
        print(f"recorded in {args.record}")
    return 1 if failed else 0


def run_micro_only(args: argparse.Namespace) -> int:
    for name, value in sorted(run_micro(args.seconds, args.seed).items()):
        print(f"{name:<40} {value:>16.6g} {UNITS[name]}")
    return 0


def run_aa(args: argparse.Namespace) -> int:
    """Two interleaved sets of untraced runs of this same checkout.

    For each (end-to-end metric, workload): each set's median and
    quartiles, the spread (IQR/median) of each, the ratio of medians,
    and PASS or FAIL against the metric's bound — the same two tests
    the driver applies before it accepts the benchmark.
    """
    bounds = {name: (better, bound) for name, _, better, bound in END_TO_END}
    failed = False
    for name in (args.workloads or list(WORKLOADS)):
        sets: List[Dict[str, List[float]]] = [
            {metric: [] for metric in bounds} for _ in range(2)]
        for run in range(args.runs):
            # ABBA: neither set is always the one that runs second.
            for which in ((0, 1) if run % 2 == 0 else (1, 0)):
                args.seed = args.first_seed + run
                outcome = child(name, args, trace=0)
                if outcome is None or not outcome["correct"]:
                    print(f"{name}: run failed")
                    return 1
                for metric in bounds:
                    sets[which][metric].append(
                        outcome["metrics"][metric]["value"])
        for metric, (better, bound) in bounds.items():
            (a1, a2, a3), (b1, b2, b3) = (quartiles(s[metric]) for s in sets)
            worse = (a2 - b2) / a2 if better == "higher" else (b2 - a2) / a2
            spreads = [(a3 - a1) / a2, (b3 - b1) / b2]
            # The driver exempts setup_s from the spread test only.
            ok = worse <= bound and (metric == "setup_s"
                                     or max(spreads) <= bound)
            failed = failed or not ok
            print(f"{name:<18} {metric:<12} "
                  f"A {a2:.5g} [{a1:.5g}, {a3:.5g}] spread {spreads[0]:.3f}  "
                  f"B {b2:.5g} [{b1:.5g}, {b3:.5g}] spread {spreads[1]:.3f}  "
                  f"B/A {b2 / a2:.3f}  bound {bound:g}  "
                  f"{'PASS' if ok else 'FAIL'}")
    return 1 if failed else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m perf",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("mode", nargs="?", default="run",
                        choices=["run", "all", "micro", "aa", "check",
                                 "first-op"])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long one run measures (default: the "
                             "contract's run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=None,
                        help="0: end-to-end metrics, tracing off; "
                             "1: per-layer metrics (all: default both)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="shrink every batch (smoke tests only: speeds "
                             "at another scale are not comparable)")
    parser.add_argument("--repeats", type=int, default=None,
                        help="at most this many rounds per phase")
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="all: also write the numbers and machine "
                             "context to FILE as JSON")
    parser.add_argument("--runs", type=int, default=10,
                        help="aa: runs per set")
    parser.add_argument("--first-seed", type=int, default=1,
                        help="aa: run k of both sets uses seed first+k")
    parser.add_argument("--workloads", nargs="*", default=None,
                        help="aa: restrict to these workloads")
    parser.add_argument("--since", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.mode == "check":
        args.mode, args.scale, args.repeats = "all", 0.1, 2
        if args.seconds is None:
            args.seconds = 1.0
    if args.mode == "first-op":
        return first_op(args)
    if args.seconds is None:
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
            args.seconds = float(json.load(handle)["run_seconds"])
    if args.mode == "run":
        if args.workload is None:
            parser.error("--workload is required")
        return run_one(args)
    if args.mode == "all":
        return run_all(args)
    if args.mode == "micro":
        return run_micro_only(args)
    return run_aa(args)


if __name__ == "__main__":
    sys.exit(main())
