"""Static protocol transition-graph extraction (rule ``flow-protocol-graph``).

The protocol machines *are* transition systems; this module recovers
them from source.  Every enumerated CFG path through a machine entry
method becomes one row

    (state, input) -> (state', effects, forces)

where the input is the dispatched message class, a timer/log token, or
the entry name itself.  The rows feed three artifacts:

- machine-readable specs (``--emit-graphs`` writes one JSON per
  machine) plus Graphviz ``.dot`` renderings;
- **unreachable-state** and **dead-end** checks: an enum member of a
  ``*State`` class that no statement in the tree ever assigns is dead
  protocol surface, and a non-terminal state that is entered somewhere
  but never consulted by any guard can never be left deliberately;
- an **extraction self-check**: every message class a machine
  ``isinstance``-dispatches on must surface as a transition input —
  if not, the extractor (not the machine) lost a row.

The paper's §3.2 counts (optimized 2PC: 2 forces / 3 datagrams;
non-blocking: 4 / 5) are not read off these graphs:
``tests/test_protocol_graph.py`` runs the machines themselves and
compares with :func:`repro.analysis.static_analysis.path_counts`.
See DESIGN.md for the soundness limits shared with the rest of the
flow package.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.engine import LintContext, isinstance_targets
from repro.lint.findings import Finding
from repro.lint.flow import cfg
from repro.lint.flow.callgraph import (ClassNode, Program, dotted_name,
                                       parent_map)
from repro.lint.flow.forcepath import entry_paths, machine_classes

# ----------------------------------------------------------- transitions


@dataclass(frozen=True)
class Transition:
    """One extracted row of a machine's transition table."""

    machine: str
    method: str
    input: str            # "start" | message class | "forced:TOK" | ...
    src: str              # state member or "*"
    dst: str              # state member (src when unchanged)
    effects: Tuple[str, ...]
    forces: int
    raised: bool
    guards: Tuple[str, ...]


def _token_term(text: str) -> Optional[str]:
    """A token value out of a guard term: a string literal or the name
    of an ALL_CAPS module constant (how the tree spells its tokens)."""
    if len(text) >= 2 and text[0] in "'\"" and text[-1] == text[0]:
        return text[1:-1]
    if text.replace("_", "").isupper() and "." not in text:
        return text
    return None


def _token_of(path: cfg.Path, param: Optional[str]) -> Optional[str]:
    if param is None:
        return None
    for a in path.facts:
        if a.kind == "cmp" and a.positive and a.op in ("==", "is") \
                and a.lhs == param:
            lit = _token_term(a.rhs)
            if lit is not None:
                return lit
    return None


def _input_label(method: str, path: cfg.Path, param: Optional[str],
                 message_names: Set[str]) -> str:
    if method == "start":
        return "start"
    if method == "on_local_prepared":
        return "local_prepared"
    if method in ("on_log_forced", "on_log_durable", "on_timer"):
        tag = {"on_log_forced": "forced", "on_log_durable": "durable",
               "on_timer": "timer"}[method]
        tok = _token_of(path, param)
        return f"{tag}:{tok}" if tok else f"{tag}:*"
    if method == "on_message":
        for a in path.facts:
            if a.kind == "isinstance" and a.positive:
                name = a.rhs.strip("()").split(",")[0].strip()
                if not message_names or name in message_names:
                    return name
        return "message:*"
    return method


def _src_state(path: cfg.Path) -> str:
    members: Set[str] = set()
    for a in cfg.entry_state_atoms(path):
        if not a.positive or a.lhs != "self.state":
            continue
        if a.kind == "cmp" and a.op in ("is", "=="):
            members.add(a.rhs.rsplit(".", 1)[-1])
    return members.pop() if len(members) == 1 else "*"


def _effect_label(ev: cfg.EffectEv) -> str:
    if ev.kind in cfg.SEND_KINDS and ev.message_cls:
        return f"{ev.kind}({ev.message_cls})"
    if ev.kind in ("ForceLog", "WriteLog") and ev.token:
        return f"{ev.kind}[{ev.token}]"
    return ev.kind


def extract(program: Program, cls: ClassNode,
            paths: Dict[str, List[cfg.Path]],
            message_names: Set[str]) -> List[Transition]:
    rows: List[Transition] = []
    for method, plist in sorted(paths.items()):
        fn = program.funcs[cls.methods[method]]
        param = cfg.first_param(fn)
        for path in plist:
            src = _src_state(path)
            dst = src
            effects: List[str] = []
            forces = 0
            for ev in path.events:
                if isinstance(ev, cfg.StateEv):
                    if ev.attr == "state":
                        dst = ev.member
                elif isinstance(ev, cfg.EffectEv):
                    effects.append(_effect_label(ev))
                    if ev.kind == "ForceLog":
                        forces += 1
            if not effects and dst == src and not path.raised:
                continue
            rows.append(Transition(
                machine=cls.name, method=method,
                input=_input_label(method, path, param, message_names),
                src=src, dst=dst, effects=tuple(effects), forces=forces,
                raised=path.raised,
                guards=tuple(sorted(a.render() for a in path.facts))))
    return rows


# ------------------------------------------------------ spec / graphviz


def _state_enum(program: Program, cls: ClassNode) -> Tuple[str, List[str]]:
    """(enum class name, members) for a machine's ``self.state`` enum."""
    init_q = cls.methods.get("__init__")
    enum_name = ""
    if init_q is not None:
        for attr, ecls, _member, _n in cfg.enum_assign_sites(
                program.funcs[init_q].node):
            if attr == "state":
                enum_name = ecls
                break
    members: List[str] = []
    if enum_name:
        for other in program.classes.values():
            if other.module == cls.module and other.name == enum_name:
                for stmt in other.node.body:
                    if isinstance(stmt, ast.Assign):
                        for t in stmt.targets:
                            if isinstance(t, ast.Name) \
                                    and not t.id.startswith("_"):
                                members.append(t.id)
    return enum_name, members


def _initial_state(program: Program, cls: ClassNode) -> Optional[str]:
    init_q = cls.methods.get("__init__")
    if init_q is None:
        return None
    for attr, _ecls, member, _n in cfg.enum_assign_sites(
            program.funcs[init_q].node):
        if attr == "state":
            return member
    return None


def spec(program: Program, cls: ClassNode,
         rows: List[Transition]) -> Dict[str, object]:
    enum_name, members = _state_enum(program, cls)
    return {
        "machine": cls.name,
        "module": cls.module,
        "state_enum": enum_name,
        "states": members,
        "initial": _initial_state(program, cls),
        "transitions": [
            {"input": r.input, "src": r.src, "dst": r.dst,
             "effects": list(r.effects), "forces": r.forces,
             "raises": r.raised}
            for r in rows],
    }


def to_dot(machine_spec: Dict[str, object]) -> str:
    name = machine_spec["machine"]
    lines = [f'digraph "{name}" {{',
             '  rankdir=LR; node [shape=box, fontname="monospace"];']
    initial = machine_spec.get("initial")
    if initial:
        lines.append(f'  "{initial}" [style=bold];')
    seen: Set[Tuple[str, str, str]] = set()
    for row in machine_spec["transitions"]:          # type: ignore[union-attr]
        label = row["input"]
        if row["forces"]:
            label += f" / {row['forces']}F"
        sends = [e for e in row["effects"] if "(" in e]
        if sends:
            label += " / " + ", ".join(
                e.split("(", 1)[1].rstrip(")") for e in sends)
        if row["raises"]:
            label += " / raise"
        dedup = (row["src"], row["dst"], label)
        if dedup in seen:
            continue
        seen.add(dedup)
        lines.append(f'  "{row["src"]}" -> "{row["dst"]}" '
                     f'[label="{label}"];')
    lines.append("}")
    return "\n".join(lines)


def emit_graphs(ctx: LintContext, outdir: FsPath) -> List[FsPath]:
    """Write per-machine JSON specs and .dot files; returns the paths."""
    from repro.lint.flow import flow_program
    program = flow_program(ctx)
    effect_names = cfg.effect_names_for(program)
    message_names = set(ctx.message_classes)
    outdir.mkdir(parents=True, exist_ok=True)
    written: List[FsPath] = []
    cache: Dict[str, List[cfg.Path]] = {}
    for cls in machine_classes(program):
        paths = entry_paths(program, cls, effect_names, cache)
        rows = extract(program, cls, paths, message_names)
        mspec = spec(program, cls, rows)
        jpath = outdir / f"{cls.name}.json"
        jpath.write_text(json.dumps(mspec, indent=2) + "\n")
        dpath = outdir / f"{cls.name}.dot"
        dpath.write_text(to_dot(mspec) + "\n")
        written.extend([jpath, dpath])
    return written


# ------------------------------------------------------------ the checks


def _use_kind(node: ast.AST, parents: Dict[ast.AST, ast.AST]) -> str:
    """Classify one ``Enum.MEMBER`` read: 'check' | 'enter' | 'both'."""
    cur: Optional[ast.AST] = node
    for _ in range(12):
        cur = parents.get(cur)
        if cur is None:
            return "both"
        if isinstance(cur, ast.Compare):
            return "check"
        if isinstance(cur, (ast.Assign, ast.AnnAssign, ast.AugAssign,
                            ast.Call, ast.Return, ast.keyword)):
            return "enter"
        if isinstance(cur, ast.stmt):
            return "both"
    return "both"


def _member_uses(ctx: LintContext,
                 enums: Dict[str, Set[str]]) -> Dict[Tuple[str, str],
                                                     Set[str]]:
    """(enum, member) -> kinds of use anywhere in the tree."""
    uses: Dict[Tuple[str, str], Set[str]] = {}
    for info in ctx.files:
        if info.tree is None:
            continue
        parents = parent_map(info.tree)
        for node in ast.walk(info.tree):
            if not isinstance(node, ast.Attribute):
                continue
            base = dotted_name(node.value)
            if base in enums and node.attr in enums[base]:
                uses.setdefault((base, node.attr), set()).add(
                    _use_kind(node, parents))
    return uses


def _state_enums(program: Program) -> Dict[str, Tuple[ClassNode,
                                                      Dict[str, ast.AST]]]:
    """State enums declared in pure core modules: name -> (class,
    member -> definition node)."""
    out: Dict[str, Tuple[ClassNode, Dict[str, ast.AST]]] = {}
    for cls in program.classes.values():
        if not cls.module.startswith("core/"):
            continue
        if not cls.name.endswith("State"):
            continue
        members: Dict[str, ast.AST] = {}
        for stmt in cls.node.body:
            if isinstance(stmt, ast.Assign):
                for t in stmt.targets:
                    if isinstance(t, ast.Name) and not t.id.startswith("_"):
                        members[t.id] = stmt
        if members:
            out[cls.name] = (cls, members)
    return out


def _check_states(ctx: LintContext, program: Program) -> List[Finding]:
    enums = _state_enums(program)
    uses = _member_uses(ctx, {name: set(m for m in members)
                              for name, (_c, members) in enums.items()})
    out: List[Finding] = []
    for name, (cls, members) in sorted(enums.items()):
        for member, node in members.items():
            kinds = uses.get((name, member), set())
            entered = bool(kinds & {"enter", "both"})
            checked = bool(kinds & {"check", "both"})
            if not entered:
                out.append(ctx.finding(
                    cls.info, node, "flow-protocol-graph",
                    f"unreachable state {name}.{member}: no statement in "
                    f"the tree ever assigns it — dead protocol surface "
                    f"(delete the member or wire up the transition)",
                    key=f"unreachable:{name}.{member}"))
            elif not checked and member != "DONE":
                out.append(ctx.finding(
                    cls.info, node, "flow-protocol-graph",
                    f"dead-end state {name}.{member}: entered but never "
                    f"consulted by any guard, so no input can ever move "
                    f"the machine out of it",
                    key=f"deadend:{name}.{member}"))
    return out


def _check_dispatch(ctx: LintContext, cls: ClassNode,
                    rows: List[Transition],
                    message_names: Set[str]) -> List[Finding]:
    if not message_names:
        return []
    inputs = {r.input for r in rows}
    dispatched = set(isinstance_targets(cls.node)) & message_names
    out: List[Finding] = []
    for name in sorted(dispatched - inputs):
        out.append(ctx.finding(
            cls.info, cls.node, "flow-protocol-graph",
            f"extraction self-check: {cls.name} dispatches on {name} but "
            f"no transition row carries it — the extractor lost a path",
            key=f"dispatch:{cls.name}:{name}"))
    return out


def run(ctx: LintContext, program: Program) -> List[Finding]:
    effect_names = cfg.effect_names_for(program)
    message_names = set(ctx.message_classes)
    out: List[Finding] = []
    cache: Dict[str, List[cfg.Path]] = {}
    for cls in machine_classes(program):
        paths = entry_paths(program, cls, effect_names, cache)
        rows = extract(program, cls, paths, message_names)
        out.extend(_check_dispatch(ctx, cls, rows, message_names))
    out.extend(_check_states(ctx, program))
    return out
