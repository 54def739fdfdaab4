"""Latency attribution reports: live Table 3 from recorded spans.

Ties the pieces together: extract each committed transaction's critical
path, average the per-class buckets over the run, and render a text
report alongside the matching static-analysis prediction, with the
self-checks the CI smoke job asserts (balance, attribution bound,
static agreement).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.obs.critical_path import CriticalPath, extract_for_tid
from repro.obs.kinds import CLASS_LABELS, PRIMITIVE_CLASSES
from repro.obs.utilization import UtilizationReport


@dataclass
class AttributionSummary:
    """Mean critical-path breakdown over a run's committed transactions."""

    paths: List[CriticalPath]
    buckets_ms: Dict[str, float] = field(default_factory=dict)
    counts: Dict[str, float] = field(default_factory=dict)
    wall_ms: float = 0.0
    gap_ms: float = 0.0

    @property
    def n(self) -> int:
        return len(self.paths)

    @property
    def attributed_ms(self) -> float:
        return sum(self.buckets_ms.values())

    @property
    def static_comparable_ms(self) -> float:
        if not self.paths:
            return 0.0
        return (sum(p.static_comparable_ms() for p in self.paths)
                / len(self.paths))


def attribute_run(recorder, tids: Sequence[str],
                  envelope: str = "txn") -> AttributionSummary:
    """Critical paths for ``tids``, averaged class by class."""
    paths: List[CriticalPath] = []
    for tid in tids:
        path = extract_for_tid(recorder, tid, envelope=envelope)
        if path is not None:
            paths.append(path)
    summary = AttributionSummary(paths=paths)
    if not paths:
        return summary
    n = len(paths)
    for path in paths:
        for cls, ms in path.buckets().items():
            summary.buckets_ms[cls] = summary.buckets_ms.get(cls, 0.0) + ms
        for cls, count in path.counts().items():
            summary.counts[cls] = summary.counts.get(cls, 0.0) + count
        summary.wall_ms += path.wall_ms
        summary.gap_ms += path.gap_ms
    summary.buckets_ms = {c: v / n for c, v in summary.buckets_ms.items()}
    summary.counts = {c: v / n for c, v in summary.counts.items()}
    summary.wall_ms /= n
    summary.gap_ms /= n
    return summary


@dataclass
class StaticComparison:
    """Live comparable chain vs a static-analysis prediction."""

    static_ms: float
    live_ms: float

    @property
    def deviation(self) -> float:
        """Signed fractional deviation of live from static."""
        if self.static_ms == 0:
            return 0.0
        return (self.live_ms - self.static_ms) / self.static_ms

    def within(self, tolerance: float) -> bool:
        return abs(self.deviation) <= tolerance


def compare_static(summary: AttributionSummary,
                   static_path) -> StaticComparison:
    """Compare the live breakdown with a StaticPath's total.

    The live side sums the static-comparable classes — everything
    attributed, CPU included, since the paper's primitive constants are
    wall-clock inclusive; only unattributed gaps (work the
    instrumentation cannot tag with the transaction) stay out.
    """
    return StaticComparison(static_ms=static_path.total,
                            live_ms=summary.static_comparable_ms)


def render_report(summary: AttributionSummary, title: str,
                  comparison: Optional[StaticComparison] = None,
                  static_label: str = "",
                  tolerance: float = 0.10,
                  utilization: Optional[UtilizationReport] = None,
                  balanced: bool = True) -> Tuple[str, bool]:
    """The per-primitive attribution table plus self-check lines, and
    whether the run passes: every printed check ok and at least one
    committed transaction analysed (the CLI's exit status)."""
    lines = [f"repro.obs attribution — {title}",
             f"committed transactions analysed: {summary.n}", ""]
    lines.append("critical-path breakdown (mean per transaction):")
    lines.append(f"  {'primitive class':28s} {'count':>6s} {'ms':>9s} "
                 f"{'% wall':>7s}")
    wall = summary.wall_ms or 1.0
    for cls in PRIMITIVE_CLASSES:
        ms = summary.buckets_ms.get(cls, 0.0)
        if ms <= 0 and not summary.counts.get(cls):
            continue
        lines.append(f"  {CLASS_LABELS[cls]:28s} "
                     f"{summary.counts.get(cls, 0.0):6.1f} {ms:9.2f} "
                     f"{100.0 * ms / wall:6.1f}%")
    lines.append(f"  {'(unattributed)':28s} {'':6s} "
                 f"{summary.gap_ms:9.2f} "
                 f"{100.0 * summary.gap_ms / wall:6.1f}%")
    lines.append(f"  {'wall (begin -> completion)':28s} {'':6s} "
                 f"{summary.wall_ms:9.2f} {100.0:6.1f}%")
    lines.append("")

    checks = [("spans balanced", balanced),
              ("attributed + gaps <= wall",
               summary.attributed_ms + summary.gap_ms
               <= summary.wall_ms + 1e-6)]
    if comparison is not None:
        lines.append(f"static prediction ({static_label}): "
                     f"{comparison.static_ms:.1f} ms; "
                     f"live comparable chain: {comparison.live_ms:.1f} ms "
                     f"({comparison.deviation:+.1%})")
        checks.append((f"within {tolerance:.0%} of static",
                       comparison.within(tolerance)))
    lines.append("self-checks: " + "; ".join(
        f"{label}: {'ok' if passed else 'FAIL'}" for label, passed in checks))

    if utilization is not None:
        lines.append("")
        lines.append(f"utilization over {utilization.elapsed_ms:.0f} ms:")
        for resource in utilization.resources:
            extra = ""
            if resource.kind == "lan":
                extra = (f"  (mean in-flight "
                         f"{resource.detail.get('mean_in_flight', 0):.2f})")
            lines.append(f"  {resource.name:14s} "
                         f"{100.0 * resource.utilization:6.1f}%{extra}")
        if utilization.cpu_by_component:
            parts = ", ".join(
                f"{component}: {ms:.1f} ms" for component, ms in
                sorted(utilization.cpu_by_component.items()))
            lines.append(f"  cpu span time by component: {parts}")
        bottleneck = utilization.bottleneck()
        if bottleneck is not None:
            lines.append(f"  bottleneck: {bottleneck.name} "
                         f"({100.0 * bottleneck.utilization:.1f}%)")
    ok = summary.n > 0 and all(passed for _, passed in checks)
    return "\n".join(lines), ok
