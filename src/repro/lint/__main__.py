"""CLI: ``python -m repro.lint``.

Examples::

    python -m repro.lint                       # static rules, text report
    python -m repro.lint --format json         # machine-readable (CI)
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
    parser.add_argument("path", nargs="?", default=None,
                        help="tree to lint (default: the repro package)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule ids (default: all)")
    args = parser.parse_args(argv)
    root = Path(args.path) if args.path else None

    rule_ids = ([r.strip() for r in args.rules.split(",") if r.strip()]
                if args.rules else None)
    try:
        report = run_lint(root=root, rule_ids=rule_ids)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(report))
    else:
        print(render_text(report))
    return 0 if report.clean else 1


if __name__ == "__main__":
    sys.exit(main())
