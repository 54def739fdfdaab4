"""Static protocol transition-graph extraction (rule ``flow-protocol-graph``).

The protocol machines *are* transition systems; this module recovers
them from source.  Every enumerated CFG path through a machine entry
method becomes one row

    (state, input) -> (state', effects, forces)

where the input is the dispatched message class, a timer/log token, or
the entry name itself.  The rows feed four artifacts:

- machine-readable specs (``--emit-graphs`` writes one JSON per
  machine) plus Graphviz ``.dot`` renderings;
- an **unreachable-state** check: an enum member of a ``*State`` class
  that no statement in the tree ever assigns is dead protocol surface;
- a **dead-end** check: a non-terminal state that is entered somewhere
  but never consulted by any guard can never be left deliberately;
- an **extraction self-check**: every message class a machine
  ``isinstance``-dispatches on must surface as a transition input —
  if not, the extractor (not the machine) lost a row;
- a **count cross-check**: a deterministic walk of the extracted rows
  replays one write transaction coordinator-against-subordinate and
  compares the forced-write and datagram tallies with the closed-form
  :func:`repro.analysis.static_analysis.path_counts` — the paper's §4.3
  figures (optimized 2PC: 2 forces / 3 datagrams; non-blocking:
  4 / 5).  The protocol code and the analytic model can no longer
  drift apart silently.

The walk is *static*: it never imports or executes protocol code.  It
evaluates guard atoms against a small abstract machine state (current
state enum, votes seen, replication count) and treats anything it
cannot decide as unknown, preferring the most-determined admissible
path.  See DESIGN.md for the soundness limits shared with the rest of
the flow package.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path as FsPath
from typing import Dict, List, Optional, Set, Tuple

from repro.lint.engine import LintContext
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


# ------------------------------------------------- happy-path count walk


@dataclass
class _Machine:
    """Abstract runtime state for the deterministic walk."""

    name: str
    cls: ClassNode
    paths: Dict[str, List[cfg.Path]]
    params: Dict[str, Optional[str]]
    state: Optional[str] = None
    started: bool = False
    local_vote_seen: bool = False
    outcome_set: bool = False
    votes_received: int = 0
    replicated: int = 0
    complete: bool = False
    local_commit: bool = False


@dataclass
class _Delivery:
    param: Optional[str]
    msg_cls: Optional[str] = None
    kwargs: Dict[str, str] = field(default_factory=dict)
    token: Optional[str] = None
    vote: Optional[str] = None


_TRUTHY_TRUE = {"self.update_subs", "self.subordinates", "self.update_sites",
                "remote", "self.unacked", "dsts", "self.sites"}
_TRUTHY_FALSE = {"self.use_multicast", "self.already_pledged",
                 "self.remote_acceptors"}
_IN_TRUE = {"targets", "self.subordinates", "self.replication_targets",
            "self.unacked"}
_IN_FALSE = {"self.votes"}
_LEN_FIXED = {"len(self.subordinates)": 1}
_LITERALISH = ("Vote.", "Outcome.", "True", "False", "None", "'", '"')


def _eval_base(a: cfg.Atom, m: _Machine,
               d: _Delivery) -> Optional[bool]:
    lhs, rhs = a.lhs, a.rhs
    # --- self.state (reached only via entry_state_atoms) -------------
    if lhs == "self.state":
        if m.state is None:
            return None
        if a.kind == "cmp" and a.op in ("is", "=="):
            return rhs.rsplit(".", 1)[-1] == m.state
        if a.kind == "in":
            members = [p.rsplit(".", 1)[-1].strip()
                       for p in rhs.strip("()").split(",") if p.strip()]
            return m.state in members
        return None
    # --- quorum -------------------------------------------------------
    if "can_commit(" in lhs:
        return m.replicated >= 2
    # --- delivered token / vote / message fields ----------------------
    if d.param is not None:
        if lhs == d.param and a.kind == "cmp":
            if d.token is not None:
                lit = _token_term(rhs)
                return lit == d.token if lit is not None else None
            if d.vote is not None and rhs.startswith("Vote."):
                return rhs == d.vote
        if a.kind == "isinstance" and lhs == d.param \
                and d.msg_cls is not None:
            names = [p.strip() for p in rhs.strip("()").split(",")]
            return d.msg_cls in names
        if lhs.startswith(d.param + "."):
            fld = lhs[len(d.param) + 1:]
            val = d.kwargs.get(fld)
            if a.kind == "truthy":
                if val == "True":
                    return True
                if val in ("False", "None"):
                    return False
                return None
            if a.kind == "cmp" and val is not None:
                if val == rhs:
                    return True
                if val.startswith(_LITERALISH) and rhs.startswith(_LITERALISH):
                    return False
                return None
    # --- membership tables --------------------------------------------
    if a.kind == "in":
        if rhs in _IN_TRUE:
            return True
        if rhs in _IN_FALSE:
            return False
        return None
    # --- numeric len() comparisons ------------------------------------
    if a.kind == "cmp":
        def num(term: str) -> Optional[int]:
            if term == "len(self.votes)":
                return m.votes_received
            if term == "len(self.replicated)":
                return m.replicated
            if term in _LEN_FIXED:
                return _LEN_FIXED[term]
            try:
                return int(term)
            except ValueError:
                return None
        lv, rv = num(lhs), num(rhs)
        if lv is not None and rv is not None:
            return {"<": lv < rv, "<=": lv <= rv, ">": lv > rv,
                    ">=": lv >= rv, "==": lv == rv,
                    "is": lv == rv}.get(a.op)
        # variant selection: the walk models the OPTIMIZED variants
        if "Variant." in rhs:
            return rhs.endswith(".OPTIMIZED")
        if rhs == "None" and lhs in ("self.local_vote", "self.vote"):
            return not m.local_vote_seen
        if rhs == "None" and lhs == "self.outcome":
            return not m.outcome_set
        return None
    if a.kind == "truthy":
        if lhs in _TRUTHY_TRUE:
            return True
        if lhs in _TRUTHY_FALSE or "read_only" in lhs:
            return False
        return None
    return None


def _eval_atom(a: cfg.Atom, m: _Machine,
               d: _Delivery) -> Optional[bool]:
    base = _eval_base(a, m, d)
    if base is None:
        return None
    return base if a.positive else not base


# Subjects whose truth value flips mid-path when assigned (None-ness
# checks evaluated through walk flags that only update per delivery).
# Atoms about them downstream of an assignment describe a world the
# flags do not model yet, so they are treated as indeterminate.  All
# other assigned subjects (targets, update lists, vote counters) are
# evaluated through the table/counter conventions, which are defined
# in post-assignment terms.
_VOLATILE = ("self.outcome", "self.local_vote", "self.vote")


def _mentions(text: str, subject: str) -> bool:
    return (text == subject or text.startswith(subject + ".")
            or f"({subject})" in text)


def _admit_path(path: cfg.Path, m: _Machine,
                d: _Delivery) -> Optional[int]:
    """Determinacy score when the path is admissible, else None."""
    score = 0
    for a in cfg.entry_state_atoms(path):
        v = _eval_atom(a, m, d)
        if v is False:
            return None
        if v is True:
            score += 1
    for a in path.facts:
        if "self.state" in a.lhs or "self.state" in a.rhs:
            continue               # entry form handled above
        if any(sub in path.assigned
               and (_mentions(a.lhs, sub) or _mentions(a.rhs, sub))
               for sub in _VOLATILE):
            continue               # post-assignment world: indeterminate
        v = _eval_atom(a, m, d)
        if v is False:
            return None
        if v is True:
            score += 1
    return score


def _choose(plist: List[cfg.Path], m: _Machine,
            d: _Delivery) -> Optional[cfg.Path]:
    best: Optional[Tuple[int, int, int]] = None
    chosen: Optional[cfg.Path] = None
    for idx, path in enumerate(plist):
        score = _admit_path(path, m, d)
        if score is None:
            continue
        rank = (score, 1 if path.events else 0, -idx)
        if best is None or rank > best:
            best, chosen = rank, path
    return chosen


def happy_path_counts(program: Program, coord_name: str,
                      sub_name: str) -> Optional[Dict[str, int]]:
    """Walk one write transaction between two machines (one
    subordinate, at most 200 deliveries); count forced log writes and
    delivered datagrams.  None when the walk cannot complete (missing
    machines or no admissible path)."""
    effect_names = cfg.effect_names_for(program)
    cache: Dict[str, List[cfg.Path]] = {}

    def make(name: str) -> Optional[_Machine]:
        for cls in machine_classes(program):
            if cls.name == name:
                paths = entry_paths(program, cls, effect_names, cache)
                params = {
                    meth: cfg.first_param(program.funcs[cls.methods[meth]])
                    for meth in paths}
                return _Machine(name=name, cls=cls, paths=paths,
                                params=params,
                                state=_initial_state(program, cls))
        return None

    coord, sub = make(coord_name), make(sub_name)
    if coord is None or sub is None:
        return None
    peer = {coord_name: sub, sub_name: coord}

    forces = 0
    datagrams = 0
    queue: List[Tuple[object, ...]] = [("start", coord)]
    delivered = 0
    while queue and delivered < 200:
        item = queue.pop(0)
        delivered += 1
        kind, m = item[0], item[1]
        assert isinstance(m, _Machine)
        if kind == "start":
            m.started = True
            method, d = "start", _Delivery(param=None)
        elif kind == "local_prepared":
            m.local_vote_seen = True
            method = "on_local_prepared"
            d = _Delivery(param=m.params.get(method), vote="Vote.YES")
        elif kind == "forced":
            token = str(item[2])
            if "REPL" in token:
                m.replicated += 1
            method = "on_log_forced"
            d = _Delivery(param=m.params.get(method), token=token)
        elif kind == "durable":
            method = "on_log_durable"
            d = _Delivery(param=m.params.get(method), token=str(item[2]))
        else:                       # ("msg", machine, cls_name, kwargs)
            datagrams += 1
            msg_cls, kwargs = str(item[2]), dict(item[3])  # type: ignore[arg-type]
            if not m.started:
                # Receipt of the first datagram instantiates the machine:
                # the host constructs it and runs start().
                m.started = True
                method, d = "start", _Delivery(param=None)
            else:
                if msg_cls in ("VoteResponse", "NbVote", "PcVote"):
                    m.votes_received += 1
                if msg_cls == "NbReplicateAck":
                    m.replicated += 1
                method = "on_message"
                d = _Delivery(param=m.params.get(method),
                              msg_cls=msg_cls, kwargs=kwargs)
        plist = m.paths.get(method)
        if not plist:
            continue
        path = _choose(plist, m, d)
        if path is None:
            return None
        for ev in path.events:
            if isinstance(ev, cfg.StateEv):
                if ev.attr == "state":
                    m.state = ev.member
                elif ev.attr == "outcome":
                    m.outcome_set = True
                continue
            if ev.kind == "ForceLog":
                forces += 1
                if ev.token:
                    queue.append(("forced", m, ev.token))
            elif ev.kind == "WriteLog" and ev.token:
                queue.append(("durable", m, ev.token))
            elif ev.kind == "LocalPrepare":
                queue.append(("local_prepared", m))
            elif ev.kind in ("SendDatagram", "MulticastDatagram"):
                if ev.message_cls is not None:
                    queue.append(("msg", peer[m.name], ev.message_cls,
                                  dict(ev.message_kwargs)))
            elif ev.kind == "LocalCommit":
                m.local_commit = True
            elif ev.kind == "Complete":
                m.complete = True
            # LazySendDatagram: rides piggyback, never a wire datagram.
        if coord.complete and sub.local_commit:
            return {"log_forces": forces, "datagrams": datagrams}
    return None


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
    dispatched: Set[str] = set()
    for node in ast.walk(cls.node):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id == "isinstance" and len(node.args) == 2:
            target = node.args[1]
            names = ([target] if isinstance(target, ast.Name)
                     else list(target.elts)
                     if isinstance(target, ast.Tuple) else [])
            for n in names:
                if isinstance(n, ast.Name) and n.id in message_names:
                    dispatched.add(n.id)
    out: List[Finding] = []
    for name in sorted(dispatched - inputs):
        out.append(ctx.finding(
            cls.info, cls.node, "flow-protocol-graph",
            f"extraction self-check: {cls.name} dispatches on {name} but "
            f"no transition row carries it — the extractor lost a path",
            key=f"dispatch:{cls.name}:{name}"))
    return out


_COUNT_PAIRS = (
    ("two_phase", "TwoPhaseCoordinator", "TwoPhaseSubordinate"),
    ("non_blocking", "NbCoordinator", "NbSubordinate"),
    ("paxos_commit", "PcLeader", "PcParticipant"),
)


def _check_counts(ctx: LintContext, program: Program) -> List[Finding]:
    try:
        from repro.analysis.static_analysis import path_counts
    except Exception:
        return []                       # synthetic tree: nothing to check
    class_names = {c.name for c in machine_classes(program)}
    out: List[Finding] = []
    for protocol, coord_name, sub_name in _COUNT_PAIRS:
        if coord_name not in class_names or sub_name not in class_names:
            continue
        expected = path_counts(protocol, "write", 1)
        got = happy_path_counts(program, coord_name, sub_name)
        info = next(c.info for c in machine_classes(program)
                    if c.name == coord_name)
        node = next(c.node for c in machine_classes(program)
                    if c.name == coord_name)
        if got is None:
            out.append(ctx.finding(
                info, node, "flow-protocol-graph",
                f"count cross-check: the extracted {coord_name}/{sub_name} "
                f"graph has no admissible happy path for one write "
                f"transaction (expected {expected['log_forces']} forces / "
                f"{expected['datagrams']} datagrams)",
                key=f"counts:{protocol}:walk"))
        elif got != expected:
            out.append(ctx.finding(
                info, node, "flow-protocol-graph",
                f"count cross-check: extracted {coord_name}/{sub_name} "
                f"happy path costs {got['log_forces']} forces / "
                f"{got['datagrams']} datagrams; analysis.path_counts"
                f"({protocol!r}, 'write', 1) says "
                f"{expected['log_forces']} / {expected['datagrams']} — "
                f"protocol code and analytic model have drifted",
                key=f"counts:{protocol}:drift"))
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
    out.extend(_check_counts(ctx, program))
    return out
