"""Structured-CFG symbolic execution of protocol handler bodies.

Rather than lowering to basic blocks, the executor walks the structured
statement AST directly and enumerates acyclic paths: every ``if`` forks
the path with the branch condition recorded as guard :class:`Atom`
facts, every loop forks a zero-iteration and a one-iteration path, and
intra-class helper calls (``self._finish()``) are inlined so
a guard in the caller dominates the events of the callee.

Along each path the executor records an ordered event stream:

- :class:`EffectEv` — construction of an effect object
  (``SendDatagram``, ``ForceLog``, ...), with the message class
  resolved through simple local bindings (``notice =
  CommitNotice(...)``, also into an inlined helper's parameter) and the
  force or timer token;
- :class:`StateEv` — an enum-constant assignment to a ``self``
  attribute (``self.state = CoordinatorState.COMMITTED``), with a
  snapshot of the guard facts live at the assignment.

Facts are invalidated when their subject is reassigned, and paths whose
guard set becomes self-contradictory (``x is A`` and ``x is B``) are
pruned.  Paths are capped and deduplicated by (facts, event shape), so
pathological fan-out degrades coverage instead of runtime.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple, Union

from repro.lint.flow.callgraph import FuncNode, Program, dotted_name

# The built-in effect vocabulary (repro.core.effects).  Trees that
# define their own ``class X(Effect)`` hierarchy extend this set via
# :func:`effect_names_for`.
EFFECT_KINDS = frozenset({
    "SendDatagram", "MulticastDatagram", "LazySendDatagram",
    "ForceLog", "WriteLog",
    "LocalPrepare", "LocalCommit", "LocalAbort",
    "Complete", "Forget", "StartTakeover",
    "StartTimer", "CancelTimer", "Trace",
})
SEND_KINDS = frozenset({"SendDatagram", "MulticastDatagram", "LazySendDatagram"})

_MAX_PATHS = 2000
_MAX_INLINE_DEPTH = 8


def effect_names_for(program: Program) -> FrozenSet[str]:
    """EFFECT_KINDS plus every class in the tree that (transitively, by
    name) subclasses a class called ``Effect``."""
    base_names: Dict[str, List[str]] = {}
    for cls in program.classes.values():
        names = []
        for b in cls.node.bases:
            d = dotted_name(b)
            if d is not None:
                names.append(d.split(".")[-1])
        base_names[cls.name] = names

    effectish: Dict[str, bool] = {}

    def is_effectish(name: str, depth: int = 0) -> bool:
        if name == "Effect":
            return True
        if depth > 5 or name not in base_names:
            return False
        if name in effectish:
            return effectish[name]
        effectish[name] = False  # cycle guard
        result = any(is_effectish(b, depth + 1) for b in base_names[name])
        effectish[name] = result
        return result

    extra = {name for name in base_names if is_effectish(name)}
    return EFFECT_KINDS | frozenset(extra)


# ------------------------------------------------------------------ canon


def canon(node: Optional[ast.AST]) -> str:
    """Stable textual form of an expression, used as guard-atom terms
    (``<expr>`` for any shape it does not spell out)."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return f"{canon(node.value)}.{node.attr}"
    if isinstance(node, ast.Constant):
        return repr(node.value)
    if isinstance(node, ast.Call):
        fname = canon(node.func)
        if fname == "len" and len(node.args) == 1:
            return f"len({canon(node.args[0])})"
        return f"{fname}(...)"
    if isinstance(node, ast.Subscript):
        return f"{canon(node.value)}[...]"
    if isinstance(node, ast.Tuple):
        return "(" + ", ".join(canon(e) for e in node.elts) + ")"
    return "<expr>"


# ------------------------------------------------------------------ atoms


@dataclass(frozen=True)
class Atom:
    """One guard fact: a canonicalized, polarized predicate."""

    kind: str       # "cmp" | "truthy" | "isinstance" | "in"
    lhs: str
    op: str
    rhs: str
    positive: bool

    def negated(self) -> "Atom":
        return Atom(self.kind, self.lhs, self.op, self.rhs, not self.positive)

    def render(self) -> str:
        if self.kind == "truthy":
            return self.lhs if self.positive else f"not {self.lhs}"
        if self.kind == "isinstance":
            text = f"isinstance({self.lhs}, {self.rhs})"
        elif self.kind == "in":
            text = f"{self.lhs} in {self.rhs}"
        else:
            text = f"{self.lhs} {self.op} {self.rhs}"
        return text if self.positive else f"not ({text})"


_CMP_OPS = {
    ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">=",
}


def atoms(test: ast.AST, value: bool = True) -> FrozenSet[Atom]:
    """Facts implied by ``bool(test) == value``.

    Conjunctions (``and`` true, ``or`` false) contribute the union of
    their parts; disjunctions contribute nothing (no single fact is
    implied).
    """
    if isinstance(test, ast.BoolOp):
        conj = (isinstance(test.op, ast.And) and value) or \
               (isinstance(test.op, ast.Or) and not value)
        if not conj:
            return frozenset()
        out: FrozenSet[Atom] = frozenset()
        for part in test.values:
            out |= atoms(part, value)
        return out
    if isinstance(test, ast.UnaryOp) and isinstance(test.op, ast.Not):
        return atoms(test.operand, not value)
    if isinstance(test, ast.Compare) and len(test.ops) == 1:
        lhs = canon(test.left)
        rhs = canon(test.comparators[0])
        op = test.ops[0]
        if isinstance(op, ast.Eq):
            return frozenset({Atom("cmp", lhs, "==", rhs, value)})
        if isinstance(op, ast.NotEq):
            return frozenset({Atom("cmp", lhs, "==", rhs, not value)})
        if isinstance(op, ast.Is):
            return frozenset({Atom("cmp", lhs, "is", rhs, value)})
        if isinstance(op, ast.IsNot):
            return frozenset({Atom("cmp", lhs, "is", rhs, not value)})
        if isinstance(op, ast.In):
            return frozenset({Atom("in", lhs, "in", rhs, value)})
        if isinstance(op, ast.NotIn):
            return frozenset({Atom("in", lhs, "in", rhs, not value)})
        if type(op) in _CMP_OPS:
            return frozenset({Atom("cmp", lhs, _CMP_OPS[type(op)],
                                   rhs, value)})
    if isinstance(test, ast.Call) and isinstance(test.func, ast.Name) \
            and test.func.id == "isinstance" and len(test.args) == 2:
        return frozenset({Atom("isinstance", canon(test.args[0]), "isinstance",
                               canon(test.args[1]), value)})
    return frozenset({Atom("truthy", canon(test), "", "", value)})


def _constant_like(term: str) -> bool:
    """Terms that denote distinct values: enum members, ALL_CAPS module
    constants, literals.  (Only ever asked about a compared ``canon``
    term, which is never empty.)"""
    tail = term.rsplit(".", 1)[-1]
    if tail.isupper() and any(c.isalpha() for c in tail):
        return True
    return term[0] in "'\"0123456789" or term in ("True", "False", "None")


def admit(facts: FrozenSet[Atom],
          new: FrozenSet[Atom]) -> Optional[FrozenSet[Atom]]:
    """facts ∪ new, or None when the merge is self-contradictory."""
    merged = set(facts)
    for a in new:
        if a.negated() in merged:
            return None
        if a.positive and a.kind == "cmp" and a.op in ("is", "==") \
                and _constant_like(a.rhs):
            for b in merged:
                if b.positive and b.kind == "cmp" and b.op == a.op \
                        and b.lhs == a.lhs and b.rhs != a.rhs \
                        and _constant_like(b.rhs):
                    return None
        merged.add(a)
    return frozenset(merged)


def invalidate(facts: FrozenSet[Atom], target: str) -> FrozenSet[Atom]:
    """Drop facts that mention a just-reassigned subject."""
    return frozenset(a for a in facts
                     if target not in a.lhs and target not in a.rhs)


# ----------------------------------------------------------------- events


@dataclass
class EffectEv:
    """Construction of one effect object on a path."""

    kind: str
    message_cls: Optional[str] = None
    token: Optional[str] = None
    multiplicity: Optional[str] = None   # comprehension iterable, if any

    def key(self) -> Tuple[object, ...]:
        return ("effect", self.kind, self.message_cls, self.token,
                self.multiplicity)


@dataclass
class StateEv:
    """``self.<attr> = EnumClass.MEMBER`` on a path."""

    attr: str
    enum_cls: str
    member: str
    facts: FrozenSet[Atom]

    def key(self) -> Tuple[object, ...]:
        return ("state", self.attr, self.enum_cls, self.member)


Event = Union[EffectEv, StateEv]


@dataclass
class Path:
    """One enumerated acyclic path through an entry method."""

    facts: FrozenSet[Atom]
    events: List[Event]
    raised: bool


def entry_state_atoms(path: Path) -> FrozenSet[Atom]:
    """The ``self.state`` guard atoms that held on *entry* to the path.

    Guards recorded after a state assignment describe the new state;
    the entry guards are exactly the ``self.state`` atoms still live at
    the first state assignment (its facts snapshot is taken before
    invalidation), or — when the path never assigns — in the final
    facts.
    """
    for ev in path.events:
        if isinstance(ev, StateEv) and ev.attr == "state":
            facts = ev.facts
            break
    else:
        facts = path.facts
    return frozenset(a for a in facts
                     if "self.state" in a.lhs or "self.state" in a.rhs)


def _enum_member(value: Optional[ast.AST]) -> Optional[Tuple[str, str]]:
    """('EnumClass', 'MEMBER') when value is a CamelCase.ALL_CAPS read."""
    if isinstance(value, ast.Attribute) and len(value.attr) > 1 \
            and value.attr.isupper():
        base = dotted_name(value.value)
        if base is not None and base[:1].isupper():
            return base, value.attr
    return None


def enum_assign_sites(node: ast.AST) -> Iterator[Tuple[str, str, str, ast.AST]]:
    """All ``self.attr = EnumClass.MEMBER`` sites in a subtree (used by
    analyses to scan ``__init__`` and exempt methods without paying for
    path enumeration)."""
    for n in ast.walk(node):
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            target: ast.AST = n.targets[0]
            value: Optional[ast.AST] = n.value
        elif isinstance(n, ast.AnnAssign) and n.value is not None:
            target, value = n.target, n.value
        else:
            continue
        if isinstance(target, ast.Attribute) \
                and isinstance(target.value, ast.Name) \
                and target.value.id == "self":
            em = _enum_member(value)
            if em is not None:
                yield target.attr, em[0], em[1], n


def first_param(fn: FuncNode) -> Optional[str]:
    """Name of the first non-self/cls parameter of a method."""
    node = fn.node
    names = [a.arg for a in (*node.args.posonlyargs, *node.args.args)]
    if not fn.is_staticmethod and names and names[0] in ("self", "cls"):
        names = names[1:]
    return names[0] if names else None


# --------------------------------------------------------------- explorer


@dataclass
class _State:
    facts: FrozenSet[Atom]
    events: List[Event]
    env: Dict[str, ast.Call]
    terminated: bool = False
    raised: bool = False

    def clone(self) -> "_State":
        return _State(self.facts, list(self.events), dict(self.env),
                      self.terminated, self.raised)


class _Explorer:
    def __init__(self, program: Program, fn: FuncNode,
                 effect_names: FrozenSet[str]) -> None:
        self.program = program
        self.fn = fn
        self.effect_names = effect_names
        self.cls = program.classes.get(f"{fn.module}::{fn.cls}") \
            if fn.cls else None
        self._interesting: Dict[str, bool] = {}

    # ------------------------------------------------------------- entry

    def run(self) -> List[Path]:
        start = _State(self._none_constants(), [], {})
        finals = self._block(self.fn.node.body, start, (self.fn.qname,))
        paths: List[Path] = []
        seen = set()
        for st in finals:
            key = (st.facts, tuple(e.key() for e in st.events))
            if key in seen:
                continue
            seen.add(key)
            paths.append(Path(st.facts, st.events, st.raised))
        return paths

    def _none_constants(self) -> FrozenSet[Atom]:
        """``self.X is None`` for each ``X = None`` the explored class (or
        the nearest base binding ``X``) declares and no method assigns: a
        guard needing ``X`` set is dead code for this class."""
        mro = [self.cls] if self.cls is not None else []
        for cls in mro:
            if len(mro) < 8:
                mro.extend(self.program.classes[b] for b in cls.bases
                           if b in self.program.classes)
        bound: Dict[str, bool] = {}
        for stmt in (stmt for cls in mro for stmt in cls.node.body):
            if isinstance(stmt, (ast.Assign, ast.AnnAssign)) and stmt.value:
                for t in (stmt.targets if isinstance(stmt, ast.Assign)
                          else [stmt.target]):
                    if isinstance(t, ast.Name):
                        bound.setdefault(t.id, canon(stmt.value) == "None")
        stored = {n.attr for cls in mro for n in ast.walk(cls.node)
                  if isinstance(n, ast.Attribute)
                  and isinstance(n.ctx, ast.Store) and canon(n.value) == "self"}
        return frozenset(Atom("cmp", f"self.{name}", "is", "None", True)
                         for name, none in bound.items()
                         if none and name not in stored)

    # --------------------------------------------------------- statements

    def _block(self, stmts: List[ast.stmt], state: _State,
               stack: Tuple[str, ...]) -> List[_State]:
        states = [state]
        for stmt in stmts:
            nxt: List[_State] = []
            for s in states:
                if s.terminated:
                    nxt.append(s)
                else:
                    nxt.extend(self._stmt(stmt, s, stack))
            states = nxt[:_MAX_PATHS]
        return states

    def _stmt(self, stmt: ast.stmt, s: _State,
              stack: Tuple[str, ...]) -> List[_State]:
        if isinstance(stmt, ast.If):
            return self._if(stmt, s, stack)
        if isinstance(stmt, ast.Return):
            outs = self._scan(stmt.value, s, stack) if stmt.value else [s]
            for st in outs:
                st.terminated = True
            return outs
        if isinstance(stmt, ast.Raise):
            s.terminated = True
            s.raised = True
            return [s]
        if isinstance(stmt, ast.Expr):
            return self._scan(stmt.value, s, stack)
        if isinstance(stmt, ast.Assign):
            return self._assign(stmt.targets, stmt.value, s, stack)
        if isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            return self._assign([stmt.target], stmt.value, s, stack)
        if isinstance(stmt, ast.AugAssign):
            outs = self._scan(stmt.value, s, stack)
            target = canon(stmt.target).split("[")[0]
            for st in outs:
                st.facts = invalidate(st.facts, target)
            return outs
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            return self._loop(stmt.body, canon(stmt.iter), None, s, stack)
        if isinstance(stmt, ast.While):
            return self._loop(stmt.body, None, stmt.test, s, stack)
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            outs = [s]
            for item in stmt.items:
                outs = self._fan(outs, item.context_expr, stack)
            nxt: List[_State] = []
            for st in outs:
                nxt.extend(self._block(stmt.body, st, stack))
            return nxt
        if isinstance(stmt, ast.Try):
            # Handlers are ignored (documented limit): protocol cores
            # raise to abort, they do not route effects through except.
            outs = self._block(stmt.body, s, stack)
            nxt: List[_State] = []
            for st in outs:
                nxt.extend(self._block(stmt.finalbody, st, stack)
                           if stmt.finalbody else [st])
            return nxt
        if isinstance(stmt, ast.Assert):
            merged = admit(s.facts, atoms(stmt.test, True))
            if merged is None:
                s.terminated = True
                s.raised = True
                return [s]
            s.facts = merged
            return [s]
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass,
                             ast.Break, ast.Continue, ast.Delete)):
            return [s]
        # Anything else: scan for effect constructions, nothing more.
        nxt2 = [s]
        for child in ast.iter_child_nodes(stmt):
            nxt2 = self._fan(nxt2, child, stack)
        return nxt2

    def _if(self, stmt: ast.If, s: _State,
            stack: Tuple[str, ...]) -> List[_State]:
        out: List[_State] = []
        for value, block in ((True, stmt.body), (False, stmt.orelse)):
            facts = admit(s.facts, atoms(stmt.test, value))
            if facts is None:
                continue
            branch = s.clone()
            branch.facts = facts
            out.extend(self._block(block, branch, stack))
        return out

    def _loop(self, body: List[ast.stmt], iter_canon: Optional[str],
              test: Optional[ast.AST], s: _State,
              stack: Tuple[str, ...]) -> List[_State]:
        """Zero-or-one-iteration unrolling, with the loop condition (or
        the iterable's truthiness) as the fork's guard facts."""
        out: List[_State] = []
        if iter_canon is not None:
            enter: FrozenSet[Atom] = frozenset(
                {Atom("truthy", iter_canon, "", "", True)})
            skip: FrozenSet[Atom] = frozenset(
                {Atom("truthy", iter_canon, "", "", False)})
        else:
            enter = atoms(test, True) if test is not None else frozenset()
            skip = atoms(test, False) if test is not None else frozenset()
        skip_facts = admit(s.facts, skip)
        if skip_facts is not None:
            st = s.clone()
            st.facts = skip_facts
            out.append(st)
        enter_facts = admit(s.facts, enter)
        if enter_facts is not None:
            st = s.clone()
            st.facts = enter_facts
            out.extend(self._block(body, st, stack))
        return out

    def _assign(self, targets: List[ast.expr], value: ast.expr,
                s: _State, stack: Tuple[str, ...]) -> List[_State]:
        outs = self._scan(value, s, stack)
        for st in outs:
            for t in targets:
                em = _enum_member(value)
                if em is not None and isinstance(t, ast.Attribute) \
                        and isinstance(t.value, ast.Name) \
                        and t.value.id == "self":
                    st.events.append(StateEv(t.attr, em[0], em[1],
                                             st.facts))
                st.facts = invalidate(st.facts, canon(t).split("[")[0])
                if isinstance(t, ast.Name):
                    ctor = self._resolve_message(value, st.env)
                    if ctor is not None:
                        st.env[t.id] = ctor
                    else:
                        st.env.pop(t.id, None)
        return outs

    # -------------------------------------------------------- expressions

    def _fan(self, states: List[_State], node: Optional[ast.AST],
             stack: Tuple[str, ...]) -> List[_State]:
        nxt: List[_State] = []
        for st in states:
            if st.terminated:
                nxt.append(st)
            else:
                nxt.extend(self._scan(node, st, stack))
        return nxt[:_MAX_PATHS]

    def _scan(self, node: Optional[ast.AST], s: _State,
              stack: Tuple[str, ...]) -> List[_State]:
        """Record effect constructions (and inline intra-class helper
        calls) reachable while evaluating one expression."""
        if node is None or isinstance(node, ast.Lambda):
            # Lambda bodies run when called, not here.
            return [s]
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp,
                             ast.DictComp)):
            return [self._scan_comp(node, s)]
        if isinstance(node, ast.IfExp):
            # Both arms are walked on the same path (documented limit);
            # effect-bearing conditional expressions are rare.
            states = self._scan(node.test, s, stack)
            for branch in (node.body, node.orelse):
                states = self._fan(states, branch, stack)
            return states
        if isinstance(node, ast.Call):
            return self._scan_call(node, s, stack)
        states = [s]
        for child in ast.iter_child_nodes(node):
            states = self._fan(states, child, stack)
        return states

    def _scan_call(self, call: ast.Call, s: _State,
                   stack: Tuple[str, ...]) -> List[_State]:
        name = dotted_name(call.func)
        leaf = name.split(".")[-1] if name else None
        if leaf in self.effect_names:
            states = [s]
            for child in (*call.args, *[k.value for k in call.keywords]):
                states = self._fan(states, child, stack)
            for st in states:
                st.events.append(self._effect_event(leaf, call, st))
            return states
        if name is not None and name.startswith("self.") \
                and name.count(".") == 1 and self.cls is not None:
            mq = self.program.class_method(self.cls.qname, name[5:])
            if mq is not None and mq not in stack \
                    and len(stack) < _MAX_INLINE_DEPTH \
                    and self._is_interesting(mq):
                states = [s]
                for child in (*call.args, *[k.value for k in call.keywords]):
                    states = self._fan(states, child, stack)
                out: List[_State] = []
                callee = self.program.funcs[mq]
                params = [a.arg for a in callee.node.args.args]
                bound: List[Tuple[Optional[str], ast.expr]] = [
                    *zip(params[0 if callee.is_staticmethod else 1:],
                         call.args),
                    *[(k.arg, k.value) for k in call.keywords]]
                for st in states:
                    sub = st.clone()
                    # A message handed to the callee keeps its class there.
                    sub.env = {}
                    for param, arg in bound:
                        ctor = self._resolve_message(arg, st.env)
                        if param is not None and ctor is not None:
                            sub.env[param] = ctor
                    for ist in self._block(callee.node.body, sub,
                                           stack + (mq,)):
                        if not ist.raised:
                            ist.terminated = st.terminated
                        ist.env = dict(st.env)
                        out.append(ist)
                return out[:_MAX_PATHS]
        states = [s]
        for child in ast.iter_child_nodes(call):
            states = self._fan(states, child, stack)
        return states

    def _scan_comp(self, comp: ast.AST, s: _State) -> _State:
        """Effects built inside a comprehension become one event with a
        multiplicity label instead of forking per element."""
        if isinstance(comp, ast.DictComp):
            elts: List[ast.AST] = [comp.key, comp.value]
            mult = canon(comp.generators[0].iter)
        else:
            assert isinstance(comp, (ast.ListComp, ast.SetComp,
                                     ast.GeneratorExp))
            elts = [comp.elt]
            mult = canon(comp.generators[0].iter)
        st = s.clone()
        for elt in elts:
            for node in ast.walk(elt):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                leaf = name.split(".")[-1] if name else None
                if leaf in self.effect_names:
                    ev = self._effect_event(leaf, node, st)
                    ev.multiplicity = mult
                    st.events.append(ev)
        return st

    # ------------------------------------------------------------ helpers

    def _effect_event(self, kind: str, call: ast.Call,
                      st: _State) -> EffectEv:
        ev = EffectEv(kind=kind)
        if kind in ("ForceLog", "WriteLog", "StartTimer", "CancelTimer"):
            token_expr: Optional[ast.AST] = None
            if len(call.args) >= 2:
                token_expr = call.args[1]
            elif kind in ("StartTimer", "CancelTimer") and call.args:
                token_expr = call.args[0]
            for kw in call.keywords:
                if kw.arg == "token":
                    token_expr = kw.value
            if token_expr is not None:
                ev.token = canon(token_expr)
        if kind in SEND_KINDS:
            mexpr: Optional[ast.AST] = None
            if len(call.args) >= 2:
                mexpr = call.args[1]
            for kw in call.keywords:
                if kw.arg == "message":
                    mexpr = kw.value
            ctor = self._resolve_message(mexpr, st.env)
            if ctor is not None:
                fname = dotted_name(ctor.func)
                if fname is not None:
                    ev.message_cls = fname.split(".")[-1]
        return ev

    def _resolve_message(self, expr: Optional[ast.AST],
                         env: Dict[str, ast.Call]) -> Optional[ast.Call]:
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name is not None and name.split(".")[-1][:1].isupper():
                return expr
            return None
        if isinstance(expr, ast.Name):
            return env.get(expr.id)
        return None

    def _is_interesting(self, qname: str) -> bool:
        """Only helpers that (transitively) build effects or assign enum
        state are worth inlining; forking on a pure predicate helper
        would multiply paths for nothing."""
        if qname in self._interesting:
            return self._interesting[qname]
        self._interesting[qname] = False  # recursion guard
        fn = self.program.funcs[qname]
        result = False
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                leaf = name.split(".")[-1] if name else None
                if leaf in self.effect_names:
                    result = True
                    break
                if name is not None and name.startswith("self.") \
                        and name.count(".") == 1 and self.cls is not None:
                    # ``self`` is the explored class, even inside a
                    # method it inherits from a mixin.
                    sub = self.program.class_method(self.cls.qname,
                                                    name[5:])
                    if sub is not None and sub != qname \
                            and self._is_interesting(sub):
                        result = True
                        break
        if not result:
            for _site in enum_assign_sites(fn.node):
                result = True
                break
        self._interesting[qname] = result
        return result


def explore(program: Program, fn: FuncNode,
            effect_names: FrozenSet[str]) -> List[Path]:
    """Enumerate the acyclic event paths of one function."""
    return _Explorer(program, fn, effect_names).run()
