"""Finding record and report rendering (text + JSON).

A finding is one rule violation at one source location, named by its
rule id, file (repo-relative) and a *stable key* — by default the
stripped source line, so it survives unrelated edits that shift line
numbers.  Rules that can reach one site by many paths dedupe on the key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import List, Optional


@dataclass(frozen=True)
class Finding:
    """One rule violation.

    ``key`` is the finding's stable identity; rules that can name a
    symbol (a message class, a state member) should pass one
    explicitly, otherwise the engine fills in the stripped source line
    of ``line``.
    """

    rule: str
    file: str              # repo-relative posix path
    line: int
    message: str
    key: str = ""
    column: int = 0

    @property
    def location(self) -> str:
        return f"{self.file}:{self.line}"


@dataclass
class LintReport:
    """Everything one lint run produced."""

    findings: List[Finding] = field(default_factory=list)
    checked_files: int = 0
    rules_run: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.findings


def render_text(report: LintReport) -> str:
    lines: List[str] = []
    for f in sorted(report.findings, key=lambda f: (f.file, f.line, f.rule)):
        lines.append(f"{f.location}: [{f.rule}] {f.message}")
    summary = (f"{len(report.findings)} finding(s), "
               f"{report.checked_files} file(s) checked, "
               f"{len(report.rules_run)} rule(s)")
    lines.append(summary)
    return "\n".join(lines)


def _as_dict(f: Finding) -> dict:
    return {
        "rule": f.rule,
        "file": f.file,
        "line": f.line,
        "column": f.column,
        "message": f.message,
    }


def render_json(report: LintReport) -> str:
    return json.dumps(
        {
            "findings": [_as_dict(f) for f in sorted(
                report.findings, key=lambda f: (f.file, f.line, f.rule))],
            "checked_files": report.checked_files,
            "rules": sorted(report.rules_run),
            "clean": report.clean,
        },
        indent=2, sort_keys=False)


def source_line(source_lines: List[str], lineno: int) -> Optional[str]:
    """1-based line fetch used to build default finding keys."""
    if 1 <= lineno <= len(source_lines):
        return source_lines[lineno - 1].strip()
    return None
