"""Path-sensitive log-force discipline (rule ``flow-force-discipline``).

The sans-IO contract makes the per-file force rule too weak: a
``ForceLog`` in the *same* effects list as a send guards nothing,
because the host executes effects asynchronously — the datagram can be
on the wire before the platter turns.  The real discipline is
path-shaped:

    on every enumerated CFG path from a handler entry to an effect
    carrying a COMMIT/vote-class message, the guard facts live at the
    send must include durable evidence.

Durable evidence is one of:

- a **force-completion guard** — the path is inside
  ``on_log_forced``/``on_log_durable`` under an equality test on the
  token parameter (the force already hit the platter, that is why we
  are here);
- a **quorum guard** — a positive ``...can_commit(...)`` test (a commit
  quorum of replication records exists);
- a **durable-state guard** — a positive ``self.state is X`` test where
  ``X`` is a state this analysis itself proved is only ever *entered*
  under durable evidence (computed as a least fixed point, so the
  argument is never circular: nothing is durable until proven from a
  force or quorum guard).

Recovery/resumption entries (``resume_*``, ``note_*``) are exempt —
their contract is that the evidence was forced in a previous
incarnation — as are classmethod constructors.  Sends whose decisive
payload field is a non-literal expression (``outcome=self.outcome``)
are not classified (documented soundness limit).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.flow import cfg
from repro.lint.flow.callgraph import ClassNode, FuncNode, Program

HANDLER_NAMES = {
    "on_message", "on_timer", "on_log_forced", "on_log_durable",
    "start", "on_local_prepared",
}
FORCED_HANDLERS = ("on_log_forced", "on_log_durable")
_EXEMPT_PREFIXES = ("resume_", "note_")

# message class -> (decisive field, durable literal values, field default
# is durable?).  A send of one of these classes with a durable decisive
# value claims "this transaction (or this site's vote) is COMMIT" — the
# claim must never outrun the log.
_DURABLE_MESSAGES: Dict[str, Tuple[Optional[str], Set[str], bool]] = {
    "CommitNotice": (None, set(), True),
    "NbOutcome": ("outcome", {"Outcome.COMMITTED"}, True),
    "VoteResponse": ("vote", {"Vote.YES"}, True),
    "NbVote": ("vote", {"Vote.YES"}, True),
    "NbReplicateAck": ("ok", {"True"}, True),
    "PcVote": ("vote", {"Vote.YES"}, True),
    "PcOutcome": ("outcome", {"Outcome.COMMITTED"}, True),
}


def machine_classes(program: Program) -> List[ClassNode]:
    """Protocol machines: pure-core classes with at least one handler."""
    out = []
    for cls in program.classes.values():
        if not cls.module.startswith("core/"):
            continue
        if any(name in cls.methods for name in HANDLER_NAMES):
            out.append(cls)
    return sorted(out, key=lambda c: c.qname)


def entry_methods(program: Program, cls: ClassNode) -> List[FuncNode]:
    """The externally driven inputs of one machine."""
    out = []
    for name, qname in sorted(cls.methods.items()):
        if name.startswith("_") or name.startswith(_EXEMPT_PREFIXES):
            continue
        fn = program.funcs[qname]
        if fn.is_classmethod or fn.is_staticmethod:
            continue
        out.append(fn)
    return out


def entry_paths(program: Program, cls: ClassNode,
                effect_names: FrozenSet[str],
                cache: Dict[str, List[cfg.Path]]) -> Dict[str, List[cfg.Path]]:
    paths: Dict[str, List[cfg.Path]] = {}
    for fn in entry_methods(program, cls):
        if fn.qname not in cache:
            cache[fn.qname] = cfg.explore(program, fn, effect_names)
        paths[fn.name] = cache[fn.qname]
    return paths


def _token_params(program: Program, cls: ClassNode) -> Set[str]:
    names: Set[str] = set()
    for handler in FORCED_HANDLERS:
        qname = cls.methods.get(handler)
        if qname is not None:
            param = cfg.first_param(program.funcs[qname])
            if param is not None:
                names.add(param)
    return names


def _in_members(rhs: str) -> List[str]:
    """Member names out of a canonical tuple '(A.X, B.Y)' or single term."""
    inner = rhs.strip("()")
    return [part.rsplit(".", 1)[-1].strip()
            for part in inner.split(",") if part.strip()]


def _guarded(facts: FrozenSet[cfg.Atom], token_params: Set[str],
             durable_states: Set[str]) -> bool:
    for a in facts:
        if not a.positive:
            continue
        if a.kind == "cmp" and a.op in ("==", "is") \
                and a.lhs in token_params:
            return True            # inside on_log_forced(token == X)
        if "can_commit(" in a.lhs:
            return True            # quorum of replication records
        if a.lhs == "self.state":
            if a.kind == "cmp" and a.op in ("is", "==") \
                    and a.rhs.rsplit(".", 1)[-1] in durable_states:
                return True
            if a.kind == "in" and a.rhs.startswith("(") \
                    and all(m in durable_states for m in _in_members(a.rhs)):
                return True
    return False


def _durable_send(ev: cfg.EffectEv) -> Optional[bool]:
    """True: durable claim.  False: abort/negative (free to send).
    None: not a classified message or non-literal payload (skipped)."""
    if ev.kind not in cfg.SEND_KINDS or ev.message_cls is None:
        return None
    spec = _DURABLE_MESSAGES.get(ev.message_cls)
    if spec is None:
        return None
    field, durable_values, default_durable = spec
    if field is None:
        return True
    value = ev.kwarg(field)
    if value is None:
        # Try a positional literal of the same enum family / bool.
        candidates = [a for a in ev.message_args
                      if a.split(".")[0] in ("Vote", "Outcome")
                      or a in ("True", "False")]
        value = candidates[0] if candidates else None
    if value is None:
        return default_durable
    if value in durable_values:
        return True
    if value.split(".")[0] in ("Vote", "Outcome") or value in ("True", "False"):
        return False               # a literal, but not the durable one
    return None                    # attribute-valued: unclassified


def _durable_states(program: Program, cls: ClassNode,
                    paths: Dict[str, List[cfg.Path]],
                    token_params: Set[str]) -> Set[str]:
    """Least fixed point: a state is durable iff it is entered somewhere
    and *every* entry (outside __init__/classmethods/exempt methods) is
    guarded by durable evidence under the current durable set."""
    occurrences: Dict[str, List[FrozenSet[cfg.Atom]]] = {}
    for plist in paths.values():
        for path in plist:
            for ev in path.events:
                if isinstance(ev, cfg.StateEv) and ev.attr == "state":
                    occurrences.setdefault(ev.member, []).append(ev.facts)
    durable: Set[str] = set()
    while True:
        grown = False
        for member, facts_list in occurrences.items():
            if member in durable:
                continue
            if all(_guarded(f, token_params, durable) for f in facts_list):
                durable.add(member)
                grown = True
        if not grown:
            return durable


def run(ctx: LintContext, program: Program) -> List[Finding]:
    effect_names = cfg.effect_names_for(program)
    out: List[Finding] = []
    cache: Dict[str, List[cfg.Path]] = {}
    for cls in machine_classes(program):
        paths = entry_paths(program, cls, effect_names, cache)
        token_params = _token_params(program, cls)
        durable = _durable_states(program, cls, paths, token_params)
        for method, plist in sorted(paths.items()):
            for path in plist:
                for ev in path.events:
                    if not isinstance(ev, cfg.EffectEv):
                        continue
                    if _durable_send(ev) is not True:
                        continue
                    if _guarded(ev.facts, token_params, durable):
                        continue
                    line = getattr(ev.node, "lineno", "?")
                    out.append(ctx.finding(
                        cls.info, ev.node, "flow-force-discipline",
                        f"{cls.name}.{method} has a path that sends "
                        f"{ev.message_cls} (a durable COMMIT/vote claim) "
                        f"with no log force, quorum, or durable-state "
                        f"guard dominating the send (line {line}); the "
                        f"host executes effects asynchronously, so the "
                        f"claim can outrun the log",
                        key=f"{cls.name}.{method}:{ev.message_cls}:{line}"))
    # One finding per key (many paths can cross the same unguarded
    # send site).
    deduped: Dict[str, Finding] = {}
    for f in out:
        deduped.setdefault(f.key, f)
    return list(deduped.values())
