"""Render experiment results in the paper's own formats.

Plain-text tables and figure series, with standard deviations in
parentheses exactly as the paper's Figures 2-3 annotate them.  Every
``benchmarks/bench_*.py`` prints through these helpers, so
``pytest benchmarks/ -s`` reproduces the paper's presentation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence

from repro.analysis.primitives import PrimitiveRow
from repro.bench.figures import (
    FigureSeries,
    MulticastComparison,
    RpcBreakdown,
    Table3Row,
    ThroughputCurve,
)
from repro.obs.kinds import CLASS_LABELS


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[str]]) -> str:
    """Fixed-width table with a title rule."""
    materialized = [list(map(str, r)) for r in rows]
    widths = [len(h) for h in headers]
    for row in materialized:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title, "=" * len(title)]
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * w for w in widths))
    for row in materialized:
        lines.append("  ".join(cell.ljust(widths[i])
                               for i, cell in enumerate(row)))
    return "\n".join(lines)


def render_primitive_table(title: str, rows: List[PrimitiveRow]) -> str:
    return render_table(
        title,
        ["PRIMITIVE", "TIME", "NOTE"],
        [(r.name, r.formatted().strip(), r.note) for r in rows])


def render_rpc_breakdown(result: RpcBreakdown) -> str:
    rows = [(r.name, f"{r.value:6.1f} ms", r.note)
            for r in result.components]
    rows.append(("Measured (mean of %d RPCs)" % result.measured_n,
                 f"{result.measured_mean_ms:6.1f} ms", ""))
    return render_table("S4.1  Camelot RPC latency breakdown",
                        ["COMPONENT", "TIME", "NOTE"], rows)


def render_figure(title: str, series: Dict[str, FigureSeries]) -> str:
    """A Figure 2/3-style table: subordinates across, one row per curve,
    stddev in parentheses."""
    subs = [s for s, _ in next(iter(series.values())).points]
    headers = ["SERIES"] + [f"{n} subs" for n in subs]
    rows = []
    for label, fs in series.items():
        cells = [label]
        for __, result in fs.points:
            cells.append(f"{result.summary.mean:6.1f} "
                         f"({result.summary.stdev:4.1f})")
        rows.append(cells)
        # Derived transaction-management-only series, as in the paper.
        tm_cells = [f"  TM only: {label}"]
        for __, result in fs.points:
            tm_cells.append(f"{result.tm_summary.mean:6.1f}")
        rows.append(tm_cells)
    return render_table(title, headers, rows)


def render_throughput(title: str,
                      curves: Dict[str, ThroughputCurve]) -> str:
    pairs = [p.pairs for p in next(iter(curves.values())).points]
    headers = ["CONFIG"] + [f"{n} pair{'s' if n > 1 else ''}" for n in pairs]
    rows = []
    for label, curve in curves.items():
        rows.append([label] + [f"{p.tps:6.1f}" for p in curve.points])
    return render_table(title, headers, rows)


def render_table3(rows: List[Table3Row]) -> str:
    table_rows = []
    for row in rows:
        ours = f"{row.static_ms:6.1f} / {row.measured.mean:6.1f}"
        paper = ("-" if row.paper_static is None else
                 f"{row.paper_static:6.1f} / {row.paper_measured:6.1f}")
        table_rows.append((row.label, ours, paper))
    return render_table(
        "Table 3  Latency: static analysis vs measured (ms)",
        ["CASE", "OURS static/measured", "PAPER static/measured"],
        table_rows)


def render_multicast(result: MulticastComparison) -> str:
    rows = [
        ("unicast", f"{result.unicast.mean:6.1f}",
         f"{result.unicast.stdev:6.1f}"),
        ("multicast", f"{result.multicast.mean:6.1f}",
         f"{result.multicast.stdev:6.1f}"),
        ("stddev reduction", "",
         f"{result.variance_reduction * 100:5.1f} %"),
    ]
    return render_table(
        "S4.2  Multicast vs serial unicast (3-subordinate commit)",
        ["MODE", "MEAN ms", "STDDEV ms"], rows)


def render_static_path(path) -> str:
    return "\n".join(path.rows())


# ------------------------------------------------------ open-loop runs


def render_open_loop(result) -> str:
    """One open-loop run: throughput + latency sketch + attribution.

    The attribution block is Table-3-style but count-derived: exact
    per-transaction primitive counts from the streaming recorder, with
    an estimated ms column at the configured unit cost (blank where no
    single unit cost exists).
    """
    head = render_table(
        f"Open-loop run: {result.sites} sites, "
        f"{result.offered_tps:.0f} tps offered",
        ["METRIC", "VALUE"],
        [("transactions", f"{result.txns:,}"),
         ("committed / aborted / unfinished",
          f"{result.committed:,} / {result.aborted:,} / "
          f"{result.unfinished:,}"),
         ("measured tps", f"{result.measured_tps:8.1f}"),
         ("latency mean ms", f"{result.mean_ms:8.1f}"),
         ("latency p50 / p95 / p99 ms",
          f"{result.p50_ms:.1f} / {result.p95_ms:.1f} / "
          f"{result.p99_ms:.1f}"),
         ("latency max ms", f"{result.max_ms:8.1f}"),
         ("peak in-flight", str(result.peak_in_flight))])
    attr = render_table(
        "attribution (per committed transaction, from counts)",
        ["PRIMITIVE CLASS", "COUNT/txn", "EST ms/txn"],
        [(CLASS_LABELS[row.cls], f"{row.per_txn:8.2f}",
          f"{row.est_ms:8.2f}" if row.est_ms else "    -")
         for row in result.attribution])
    return head + "\n\n" + attr


def render_scale_curve(results) -> str:
    """Open-loop scale curve: one row per deployment size."""
    rows = []
    for r in results:
        rows.append((str(r.sites), f"{r.offered_tps:8.1f}",
                     f"{r.measured_tps:8.1f}",
                     f"{100.0 * r.commit_fraction:5.1f} %",
                     f"{r.p50_ms:7.1f}", f"{r.p95_ms:7.1f}",
                     f"{r.p99_ms:7.1f}", str(r.peak_in_flight)))
    return render_table(
        "Scale curve: open-loop throughput vs deployment size",
        ["SITES", "OFFERED tps", "MEASURED tps", "COMMIT",
         "p50 ms", "p95 ms", "p99 ms", "PEAK IN-FLIGHT"], rows)

