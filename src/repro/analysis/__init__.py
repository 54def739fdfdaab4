"""Static (non-empirical) analysis, paper-style.

"Commitment protocols are amenable to 'static' analysis because serial
and parallel portions are clearly separated ...  the length of either
path can be evaluated approximately by adding the latencies of the major
actions (or primitives) along the path" (paper §4.2).  This package
provides:

- :mod:`repro.analysis.primitives` — the paper's Tables 1 and 2 as data,
  and :func:`unit_costs`, what one of each primitive costs under a
  :class:`~repro.config.CostModel`;
- :mod:`repro.analysis.static_analysis` — one row list per protocol
  family and one :func:`price` that sums it: the critical and
  completion paths of every measured variant (the paper's Table 3) and
  the §4.3 counts read off the same rows;
- :mod:`repro.analysis.stats` — the summary statistics the figures
  report (mean, sample stddev, percentiles).
"""

from repro.analysis.primitives import table1_rows, table2_rows, unit_costs
from repro.analysis.static_analysis import (
    PathTerm,
    StaticPath,
    completion,
    critical,
    local_completion,
    path_counts,
    price,
)
from repro.analysis.stats import Summary, summarize

__all__ = [
    "PathTerm",
    "StaticPath",
    "Summary",
    "completion",
    "critical",
    "local_completion",
    "path_counts",
    "price",
    "summarize",
    "table1_rows",
    "table2_rows",
    "unit_costs",
]
