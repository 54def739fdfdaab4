"""Lint engine: parse the tree once, build cross-file facts, run rules.

The engine is what makes the rules *codebase-aware*: before any rule
runs it extracts, from the tree being linted,

- the protocol message classes declared in ``core/messages.py`` and the
  classes actually dispatched on (``isinstance``) anywhere in ``core/``,
- the ``CostModel`` dataclass fields and methods from ``config.py``.

Rules receive one :class:`LintContext` and return findings; the engine
fills in default stable keys (the stripped source line).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set

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
    source: str = ""
    lines: List[str] = field(default_factory=list)
    tree: Optional[ast.AST] = None

    @property
    def sim_scoped(self) -> bool:
        first = self.sub.split("/", 1)[0]
        return first in SIM_SCOPED_DIRS or self.sub in SIM_SCOPED_FILES


@dataclass
class LintContext:
    """Everything a rule may consult."""

    root: Path
    files: List[FileInfo] = field(default_factory=list)
    # ---- cross-file facts -------------------------------------------
    message_classes: Dict[str, int] = field(default_factory=dict)
    any_message_names: Set[str] = field(default_factory=set)
    handled_classes: Set[str] = field(default_factory=set)
    costmodel_fields: Set[str] = field(default_factory=set)
    costmodel_methods: Set[str] = field(default_factory=set)
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
    infos: List[FileInfo] = []
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        sub = path.relative_to(root).as_posix()
        info = FileInfo(path=path, rel=_display_rel(path, sub), sub=sub)
        try:
            info.source = path.read_text()
            info.tree = ast.parse(info.source, filename=str(path))
            info.lines = info.source.splitlines()
        except (OSError, SyntaxError):
            info.tree = None
        infos.append(info)
    return infos


# ------------------------------------------------------ cross-file facts


def _message_facts(ctx: LintContext) -> None:
    """Declared message classes, the ANY_MESSAGE roster, and every class
    name dispatched on via ``isinstance`` anywhere under ``core/``."""
    info = ctx.file("core/messages.py")
    if info is not None and info.tree is not None:
        declared: Set[str] = {"ProtocolMessage"}
        for node in info.tree.body:
            if not isinstance(node, ast.ClassDef):
                continue
            bases = {b.id for b in node.bases if isinstance(b, ast.Name)}
            if bases & declared:
                declared.add(node.name)
                ctx.message_classes[node.name] = node.lineno
        for node in info.tree.body:
            if (isinstance(node, ast.Assign) and node.targets
                    and isinstance(node.targets[0], ast.Name)
                    and node.targets[0].id == "ANY_MESSAGE"
                    and isinstance(node.value, ast.Tuple)):
                ctx.any_message_names = {
                    e.id for e in node.value.elts if isinstance(e, ast.Name)}
    for f in ctx.files:
        if f.sub.startswith("core/") and f.tree is not None:
            ctx.handled_classes.update(isinstance_targets(f.tree))


def isinstance_targets(tree: ast.AST) -> Iterator[str]:
    """The class names tested by every ``isinstance(x, A)`` and
    ``isinstance(x, (A, B))`` call in ``tree``."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            target = node.args[1]
            for n in (target.elts if isinstance(target, ast.Tuple)
                      else [target]):
                if isinstance(n, ast.Name):
                    yield n.id


def _costmodel_facts(ctx: LintContext) -> None:
    info = ctx.file("config.py")
    if info is None or info.tree is None:
        return
    for node in info.tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "CostModel":
            for stmt in node.body:
                if (isinstance(stmt, ast.AnnAssign)
                        and isinstance(stmt.target, ast.Name)):
                    ctx.costmodel_fields.add(stmt.target.id)
                elif isinstance(stmt, (ast.FunctionDef,
                                       ast.AsyncFunctionDef)):
                    ctx.costmodel_methods.add(stmt.name)


def build_context(root: Path) -> LintContext:
    ctx = LintContext(root=root, files=collect_files(root))
    _message_facts(ctx)
    _costmodel_facts(ctx)
    return ctx


# ---------------------------------------------------------------- runner


def run_lint(root: Optional[Path] = None,
             rule_ids: Optional[Sequence[str]] = None,
             extra_findings: Optional[Iterable[Finding]] = None
             ) -> LintReport:
    """Lint ``root`` (default: the installed ``repro`` package).

    ``extra_findings`` lets dynamic passes (the race detector) feed the
    same report as the AST rules.
    """
    if root is None:
        import repro
        root = Path(repro.__file__).resolve().parent
    ctx = build_context(Path(root))
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
    if extra_findings:
        findings.extend(extra_findings)

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
