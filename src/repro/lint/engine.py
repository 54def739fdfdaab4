"""Lint engine: parse the tree once, run rules.

Rules receive one :class:`LintContext` and return findings; the engine
fills in default stable keys (the stripped source line).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable, List, Optional, Sequence

from repro.lint.findings import Finding, LintReport, source_line
from repro.lint.registry import all_rules

# Package subtrees whose code runs *inside* the simulation: the
# determinism rules (wall-clock, RNG, iteration order, environment)
# apply here.  bench/ and analysis/ run outside the sim clock and may
# legitimately read wall time (they time the harness itself).  chaos/
# qualifies because its schedules, oracles, and shrinker must be
# byte-deterministic for repros to replay.  obs/ runs inside the sim
# (the recorder is fed from instrumented substrates), so the same
# determinism rules apply there.
SIM_SCOPED_DIRS = ("sim", "core", "net", "mach", "log", "servers", "chaos",
                   "obs")
SIM_SCOPED_FILES = ("system.py", "config.py")


@dataclass
class FileInfo:
    """One parsed source file plus the paths rules need."""

    path: Path            # absolute
    rel: str              # display path (repo-relative when possible)
    sub: str              # path relative to the lint root (scoping key)
    source: str
    lines: List[str]
    tree: ast.Module

    @property
    def sim_scoped(self) -> bool:
        first = self.sub.split("/", 1)[0]
        return first in SIM_SCOPED_DIRS or self.sub in SIM_SCOPED_FILES


@dataclass
class LintContext:
    """Everything a rule may consult."""

    root: Path
    files: List[FileInfo] = field(default_factory=list)
    # Cached whole-program model (built on demand by the flow rules via
    # :func:`repro.lint.flow.flow_program`; typed loosely to keep the
    # engine import-independent of the flow package).
    flow: Optional[object] = None

    def sim_files(self) -> Iterable[FileInfo]:
        return (f for f in self.files if f.sim_scoped)

    def file(self, sub: str) -> Optional[FileInfo]:
        for f in self.files:
            if f.sub == sub:
                return f
        return None

    def finding(self, info: FileInfo, node: ast.AST, rule_id: str,
                message: str, key: str = "") -> Finding:
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        return Finding(rule=rule_id, file=info.rel, line=lineno,
                       message=message, key=key, column=col)


def _display_rel(path: Path, sub: str) -> str:
    """Repo-relative display path: trim everything above ``src/``."""
    parts = path.resolve().parts
    if "src" in parts:
        idx = len(parts) - 1 - parts[::-1].index("src")
        return "/".join(parts[idx:])
    return sub


def collect_files(root: Path) -> List[FileInfo]:
    """Parse every ``.py`` file under ``root``.  A file that cannot be
    read or parsed raises: no rule could check it, so the tree is not
    clean."""
    infos: List[FileInfo] = []
    for path in sorted(root.rglob("*.py")):
        sub = path.relative_to(root).as_posix()
        source = path.read_text()
        infos.append(FileInfo(path=path, rel=_display_rel(path, sub), sub=sub,
                              source=source, lines=source.splitlines(),
                              tree=ast.parse(source, filename=str(path))))
    return infos


def build_context(root: Optional[Path] = None) -> LintContext:
    """Parse ``root`` (default: the installed ``repro`` package)."""
    if root is None:
        import repro
        root = Path(repro.__file__).resolve().parent
    return LintContext(root=root, files=collect_files(root))


# ---------------------------------------------------------------- runner


def run_lint(root: Optional[Path] = None,
             rule_ids: Optional[Sequence[str]] = None) -> LintReport:
    """Lint ``root`` (default: the installed ``repro`` package)."""
    ctx = build_context(root)
    rules = all_rules()
    if rule_ids is not None:
        unknown = set(rule_ids) - set(rules)
        if unknown:
            raise ValueError(f"unknown lint rule(s): {sorted(unknown)}; "
                             f"known: {', '.join(sorted(rules))}")
        rules = {rid: rules[rid] for rid in rule_ids}

    findings: List[Finding] = []
    for rid in sorted(rules):
        findings.extend(rules[rid](ctx))

    # Default stable keys: the stripped source line at the finding.
    keyed: List[Finding] = []
    by_rel = {f.rel: f for f in ctx.files}
    for f in findings:
        if not f.key:
            info = by_rel.get(f.file)
            line = source_line(info.lines, f.line) if info else None
            f = replace(f, key=line or f.message)
        keyed.append(f)

    return LintReport(findings=keyed, checked_files=len(ctx.files),
                      rules_run=sorted(rules))
