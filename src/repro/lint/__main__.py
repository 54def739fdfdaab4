"""CLI: ``python -m repro.lint``.

Examples::

    python -m repro.lint                       # static rules, text report
    python -m repro.lint --format json         # machine-readable (CI)
    python -m repro.lint --races               # + simulation race scan
    python -m repro.lint --rules flow-determinism,unordered-iteration
    python -m repro.lint path/to/tree          # lint a different tree

Exit status: 0 when there are no findings, 1 otherwise, 2 on usage
errors.  There is no suppression file: an accepted exception carries an
inline ``# lint: bounded(<why>)`` next to the code it excuses.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from repro.lint.engine import run_lint
from repro.lint.findings import render_json, render_text


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="Codebase-aware determinism/protocol lint for repro.")
    parser.add_argument("paths", nargs="*",
                        help="tree(s) to lint (default: the repro package)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids (default: all)")
    parser.add_argument("--races", action="store_true",
                        help="also run the simulation race detector "
                             "(same-timestamp event pairs on shared "
                             "ports/locks/WAL)")
    parser.add_argument("--emit-graphs", metavar="DIR", default=None,
                        help="write extracted protocol transition graphs "
                             "(one JSON spec + Graphviz .dot per machine) "
                             "to DIR and exit")
    args = parser.parse_args(argv)

    if args.emit_graphs is not None:
        from repro.lint.engine import build_context
        from repro.lint.flow.protograph import emit_graphs
        if args.paths:
            root = Path(args.paths[0])
        else:
            import repro
            root = Path(repro.__file__).resolve().parent
        written = emit_graphs(build_context(root), Path(args.emit_graphs))
        for path in written:
            print(path)
        return 0

    rule_ids = ([r.strip() for r in args.rules.split(",") if r.strip()]
                if args.rules else None)

    extra = None
    if args.races:
        from repro.lint.races import scan_for_races
        extra = scan_for_races()

    roots = [Path(p) for p in args.paths] or [None]
    reports = []
    try:
        for root in roots:
            reports.append(run_lint(root=root, rule_ids=rule_ids,
                                    extra_findings=extra))
            extra = None  # race findings attach to the first tree only
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    report = reports[0]
    for other in reports[1:]:
        report.findings.extend(other.findings)
        report.checked_files += other.checked_files

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
