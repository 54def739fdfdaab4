"""Static (non-empirical) analysis, paper-style.

"Commitment protocols are amenable to 'static' analysis because serial
and parallel portions are clearly separated ...  the length of either
path can be evaluated approximately by adding the latencies of the major
actions (or primitives) along the path" (paper §4.2).  This package
provides:

- :mod:`repro.analysis.primitives` — the paper's Tables 1 and 2 as data,
  tied to the live :class:`~repro.config.CostModel`;
- :mod:`repro.analysis.static_analysis` — critical-path and
  completion-path formulas for every measured protocol variant (the
  paper's Table 3 and §4.3 ratios);
- :mod:`repro.analysis.stats` — the summary statistics the figures
  report (mean, sample stddev, percentiles).
"""

from repro.analysis.primitives import table1_rows, table2_rows
from repro.analysis.static_analysis import (
    PathTerm,
    StaticPath,
    local_read_completion,
    local_update_completion,
    nonblocking_read_completion,
    nonblocking_update_completion,
    path_counts,
    twophase_read_completion,
    twophase_update_completion,
    twophase_update_critical,
)
from repro.analysis.stats import Summary, summarize

__all__ = [
    "PathTerm",
    "StaticPath",
    "Summary",
    "local_read_completion",
    "local_update_completion",
    "nonblocking_read_completion",
    "nonblocking_update_completion",
    "path_counts",
    "summarize",
    "table1_rows",
    "table2_rows",
    "twophase_read_completion",
    "twophase_update_completion",
    "twophase_update_critical",
]
