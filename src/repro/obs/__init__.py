"""repro.obs — span-based causal profiling and latency attribution.

The read-only twin of :mod:`repro.chaos`: chaos judges correctness,
obs explains performance.  See EXPERIMENTS.md for the span model and
report format; run ``python -m repro.obs --help`` for the CLI.
"""

from repro.obs.attribution import (
    AttributionSummary,
    attribute_run,
    compare_static,
    render_report,
)
from repro.obs.critical_path import CriticalPath, extract, extract_for_tid
from repro.obs.export import to_trace_events, write_trace
from repro.obs.kinds import PRIMITIVE_CLASSES, classify
from repro.obs.spans import Span, SpanRecorder
from repro.obs.utilization import UtilizationReport, snapshot

__all__ = [
    "AttributionSummary",
    "attribute_run",
    "compare_static",
    "render_report",
    "CriticalPath",
    "extract",
    "extract_for_tid",
    "to_trace_events",
    "write_trace",
    "PRIMITIVE_CLASSES",
    "classify",
    "Span",
    "SpanRecorder",
    "UtilizationReport",
    "snapshot",
]
