"""Command-line entry point: regenerate any table/figure directly.

Usage::

    python -m repro list
    python -m repro figure2 --trials 30
    python -m repro figure4 --duration 10000
    python -m repro all

Each experiment prints in the paper's format; see EXPERIMENTS.md for a
recorded run and the benchmarks/ suite for the asserted shape checks.
Every measurement builds its own seeded system in this process, so a
run's output depends only on the source tree and the flags.
"""

from __future__ import annotations

import argparse
import sys
from typing import Callable, Dict

from repro.analysis.primitives import table2_rows
from repro.bench import ablations, figures
from repro.bench.report import (
    render_figure,
    render_multicast,
    render_primitive_table,
    render_rpc_breakdown,
    render_table,
    render_table3,
    render_throughput,
)


def run_table1(args: argparse.Namespace) -> str:
    return render_primitive_table("Table 1  Benchmarks of PC-RT and Mach",
                                  figures.table1_report())


def run_table2(args: argparse.Namespace) -> str:
    measured = figures.table2_measured(trials=args.trials)
    configured = render_primitive_table(
        "Table 2  Latency of Camelot primitives (configured)",
        table2_rows())
    live = render_table(
        "Table 2  configured vs measured in the simulator",
        ["PRIMITIVE", "CONFIGURED ms", "MEASURED ms"],
        [(m.name, f"{m.configured:6.2f}", f"{m.measured:6.2f}")
         for m in measured])
    return configured + "\n\n" + live


def run_rpc(args: argparse.Namespace) -> str:
    return render_rpc_breakdown(figures.rpc_breakdown(calls=args.trials * 4))


def run_figure2(args: argparse.Namespace) -> str:
    return render_figure("Figure 2  2PC latency vs subordinates (ms)",
                         figures.figure2(trials=args.trials))


def run_table3(args: argparse.Namespace) -> str:
    return render_table3(figures.table3(trials=args.trials))


def run_figure3(args: argparse.Namespace) -> str:
    return render_figure("Figure 3  Non-blocking latency vs subordinates (ms)",
                         figures.figure3(trials=args.trials))


def run_figure4(args: argparse.Namespace) -> str:
    return render_throughput("Figure 4  Update throughput (TPS)",
                             figures.figure4(duration_ms=args.duration))


def run_figure5(args: argparse.Namespace) -> str:
    return render_throughput("Figure 5  Read throughput (TPS)",
                             figures.figure5(duration_ms=args.duration))


def run_multicast(args: argparse.Namespace) -> str:
    return render_multicast(figures.multicast_variance(trials=args.trials))


def run_contention(args: argparse.Namespace) -> str:
    result = figures.lock_contention(txns=args.trials)
    return render_table(
        "S4.2  Lock waits, back-to-back same-object transactions",
        ["VARIANT", "LOCK WAITS"], sorted(result.per_variant.items()))


def run_ablations(args: argparse.Namespace) -> str:
    ro = ablations.read_only_ablation(trials=max(8, args.trials // 2))
    quorum = ablations.quorum_policy_ablation(trials=max(6, args.trials // 3))
    window = ablations.group_commit_window_ablation()
    overhead = ablations.protocol_overhead_ablation(
        trials=max(4, args.trials // 4))
    parts = []
    parts.append(render_table(
        "Ablation: read-only optimization (1-sub read)",
        ["CONFIG", "LATENCY ms", "FORCES/txn"],
        [("on", f"{ro.optimized.mean:6.1f}", f"{ro.optimized_forces:.1f}"),
         ("off", f"{ro.unoptimized.mean:6.1f}",
          f"{ro.unoptimized_forces:.1f}")]))
    parts.append(render_table(
        "Ablation: non-blocking quorum policy",
        ["POLICY", "LATENCY ms", "SURVIVORS DECIDE?"],
        [(p, f"{quorum.latency[p].mean:6.1f}",
          "yes" if quorum.survivors_decide[p] else "NO")
         for p in sorted(quorum.latency)]))
    parts.append(render_table(
        "Ablation: group-commit window",
        ["WINDOW ms", "TPS", "LATENCY ms"],
        [(f"{p.window_ms:.0f}", f"{p.tps:6.1f}",
          f"{p.mean_latency_ms:7.1f}") for p in window]))
    parts.append(render_table(
        "Ablation: NB-vs-2PC overhead by size and network",
        ["NET", "OPS", "2PC ms", "NB ms", "PREMIUM"],
        [(p.profile, p.ops_per_site, f"{p.two_phase_ms:7.1f}",
          f"{p.non_blocking_ms:7.1f}",
          f"{p.overhead_fraction * 100:5.1f} %") for p in overhead]))
    return "\n\n".join(parts)


EXPERIMENTS: Dict[str, Callable[[argparse.Namespace], str]] = {
    "table1": run_table1,
    "table2": run_table2,
    "rpc": run_rpc,
    "figure2": run_figure2,
    "table3": run_table3,
    "figure3": run_figure3,
    "figure4": run_figure4,
    "figure5": run_figure5,
    "multicast": run_multicast,
    "contention": run_contention,
    "ablations": run_ablations,
}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["list", "all"],
                        help="which experiment to run")
    parser.add_argument("--trials", type=int, default=20,
                        help="trials per measurement point (default 20)")
    parser.add_argument("--duration", type=float, default=8_000.0,
                        help="throughput window in sim-ms (default 8000)")
    args = parser.parse_args(argv)
    args.trials = max(1, args.trials)

    if args.experiment == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return 0
    names = sorted(EXPERIMENTS) if args.experiment == "all" \
        else [args.experiment]
    for name in names:
        print(EXPERIMENTS[name](args))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
