"""The per-file rule set: event-order and protocol-discipline checks.

Every rule is a function ``(LintContext) -> list[Finding]`` registered
with :func:`repro.lint.registry.rule`.  "Sim-scoped" rules apply only to
code that runs inside the simulation clock (``sim/``, ``core/``,
``net/``, ``mach/``, ``log/``, ``servers/``, ``chaos/``, ``obs/``,
``system.py``, ``config.py``: ``engine.SIM_SCOPED_DIRS`` and
``SIM_SCOPED_FILES``).  Wall-clock, RNG and environment reads are the
whole-program ``flow-determinism`` rule's (:mod:`repro.lint.flow.taint`).
"""

from __future__ import annotations

import ast
import re
from typing import AbstractSet, Dict, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileInfo, LintContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import dotted_name, parent_map
from repro.lint.registry import rule

# ------------------------------------------------------------- helpers


def _walk_funcs(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            yield node


def _is_kernel_attr(node: ast.AST) -> bool:
    """True for ``kernel`` / ``_kernel`` / ``*.kernel`` / ``*._kernel``."""
    if isinstance(node, ast.Name):
        return node.id in ("kernel", "_kernel")
    if isinstance(node, ast.Attribute):
        return node.attr in ("kernel", "_kernel")
    return False


# ----------------------------------------------- rule: unordered iteration

_POST_METHODS = ("post", "post_soon", "schedule", "schedule_at")
# Effect constructors whose list order becomes datagram post order when
# the TranMan executes them — building these in a loop counts as
# "feeding kernel.post() ordering" even though the post is elsewhere.
_ORDERED_EFFECTS = ("SendDatagram", "LazySendDatagram",
                    "MulticastDatagram", "ForceLog", "WriteLog")


def _set_annotated(ann: Optional[ast.AST]) -> bool:
    if ann is None:
        return False
    text = ast.dump(ann)
    return "'Set'" in text or "'set'" in text or "'frozenset'" in text \
        or "'FrozenSet'" in text


def _set_typed_names(tree: ast.AST) -> Tuple[Set[str], Set[str]]:
    """(self attributes, plain names) annotated as sets anywhere in the
    file: ``self.x: Set[str] = ...`` and ``dsts: Set[str]`` params."""
    attrs: Set[str] = set()
    names: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.AnnAssign) and _set_annotated(node.annotation):
            if isinstance(node.target, ast.Attribute) \
                    and isinstance(node.target.value, ast.Name) \
                    and node.target.value.id == "self":
                attrs.add(node.target.attr)
            elif isinstance(node.target, ast.Name):
                names.add(node.target.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for a in (*node.args.args, *node.args.posonlyargs,
                      *node.args.kwonlyargs):
                if _set_annotated(a.annotation):
                    names.add(a.arg)
    return attrs, names


def _unordered_iterable(node: ast.AST, set_attrs: Set[str],
                        set_names: Set[str]) -> Optional[str]:
    """A description if ``node`` iterates in no deterministic order."""
    if isinstance(node, ast.Set):
        return "a set literal"
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name in ("set", "frozenset"):
            return f"{name}(...)"
        if isinstance(node.func, ast.Attribute) and node.func.attr in (
                "keys", "values", "items") and not node.args:
            # dict views are insertion-ordered, but insertion order of a
            # dict filled from message arrival is itself history-shaped;
            # event-ordering code must sort explicitly.
            return f".{node.func.attr}() view"
    if isinstance(node, ast.Name) and node.id in set_names:
        return f"set-typed {node.id!r}"
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
            and node.value.id == "self" and node.attr in set_attrs:
        return f"set-typed self.{node.attr}"
    if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.Sub, ast.BitOr, ast.BitAnd, ast.BitXor)):
        for side in (node.left, node.right):
            desc = _unordered_iterable(side, set_attrs, set_names)
            if desc:
                return f"a set expression over {desc}"
    return None


@rule("unordered-iteration",
      "Iteration order feeding kernel.post()/schedule() or ordered "
      "effect lists must be deterministic: no sets or dict views, "
      "sort explicitly.")
def check_unordered_iteration(ctx: LintContext) -> List[Finding]:
    out: List[Finding] = []
    for info in ctx.sim_files():
        if info.tree is None:
            continue
        set_attrs, set_names = _set_typed_names(info.tree)
        for func in _walk_funcs(info.tree):
            calls_kernel = any(
                isinstance(n, ast.Call)
                and ((isinstance(n.func, ast.Attribute)
                      and n.func.attr in _POST_METHODS
                      and _is_kernel_attr(n.func.value))
                     or (isinstance(n.func, ast.Name)
                         and n.func.id in _ORDERED_EFFECTS))
                for n in ast.walk(func))
            if not calls_kernel:
                continue
            iters: List[Tuple[ast.AST, ast.AST]] = []
            for n in ast.walk(func):
                if isinstance(n, ast.For):
                    iters.append((n, n.iter))
                elif isinstance(n, (ast.ListComp, ast.SetComp,
                                    ast.GeneratorExp, ast.DictComp)):
                    iters.extend((n, g.iter) for g in n.generators)
            for node, it in iters:
                desc = _unordered_iterable(it, set_attrs, set_names)
                if desc:
                    out.append(ctx.finding(
                        info, node, "unordered-iteration",
                        f"iterating {desc} in a function that schedules "
                        f"kernel events or builds ordered effects; wrap "
                        f"in sorted(...) so event order cannot depend on "
                        f"hash/insertion history"))
    return out


# ------------------------------------------------ rule: CostModel attrs


def _cost_typed_names(func: ast.AST) -> Set[str]:
    """Parameter/local names that hold a CostModel in this function."""
    names: Set[str] = set()
    args = getattr(func, "args", None)
    if args is not None:
        all_args = list(args.args) + list(args.posonlyargs) \
            + list(args.kwonlyargs)
        for a in all_args:
            ann = a.annotation
            text = ast.dump(ann) if ann is not None else ""
            if "CostModel" in text:
                names.add(a.arg)
    for n in ast.walk(func):
        if isinstance(n, ast.Assign) and len(n.targets) == 1 \
                and isinstance(n.targets[0], ast.Name) \
                and isinstance(n.value, ast.Call):
            callee = dotted_name(n.value.func) or ""
            leaf = callee.rsplit(".", 1)[-1]
            if leaf in ("_c", "CostModel", "rt_pc_profile", "vax_mp_profile",
                        "wan_profile", "with_overrides"):
                names.add(n.targets[0].id)
    return names


@rule("costmodel-attrs",
      "Every CostModel attribute referenced anywhere must be a real "
      "dataclass field or method.")
def check_costmodel_attrs(ctx: LintContext) -> List[Finding]:
    valid = ctx.costmodel_fields | ctx.costmodel_methods
    if not valid:
        return []
    out: List[Finding] = []

    def check_attr(info: FileInfo, node: ast.Attribute) -> None:
        attr = node.attr
        if attr.startswith("__"):
            return
        if attr not in valid:
            out.append(ctx.finding(
                info, node, "costmodel-attrs",
                f"unknown CostModel attribute {attr!r} (not a field or "
                f"method of repro.config.CostModel)",
                key=f"attr:{attr}"))

    for info in ctx.files:
        if info.tree is None or info.sub == "config.py":
            continue
        # (a) names bound to a CostModel inside each function
        for func in _walk_funcs(info.tree):
            names = _cost_typed_names(func)
            if not names:
                continue
            for n in ast.walk(func):
                if isinstance(n, ast.Attribute) \
                        and isinstance(n.value, ast.Name) \
                        and n.value.id in names:
                    check_attr(info, n)
        # (b) `<anything>.cost.<attr>` chains, the idiom substrates use
        for n in ast.walk(info.tree):
            if isinstance(n, ast.Attribute) \
                    and isinstance(n.value, ast.Attribute) \
                    and n.value.attr == "cost":
                check_attr(info, n)
    return out


# -------------------------------------------- rule: message handlers


@rule("message-handlers",
      "Every message type declared in core/messages.py must be "
      "dispatched on (isinstance) somewhere in core/, and listed in "
      "ANY_MESSAGE.")
def check_message_handlers(ctx: LintContext) -> List[Finding]:
    info = ctx.file("core/messages.py")
    if info is None or not ctx.message_classes:
        return []
    out: List[Finding] = []
    for name, lineno in sorted(ctx.message_classes.items()):
        if name not in ctx.handled_classes:
            out.append(Finding(
                rule="message-handlers", file=info.rel, line=lineno,
                message=(f"message type {name} has no isinstance handler "
                         f"in any core/ protocol module: it would be "
                         f"silently dropped"),
                key=f"unhandled:{name}"))
        if ctx.any_message_names and name not in ctx.any_message_names:
            out.append(Finding(
                rule="message-handlers", file=info.rel, line=lineno,
                message=(f"message type {name} is missing from "
                         f"ANY_MESSAGE (fuzzers and exhaustiveness "
                         f"checks iterate it)"),
                key=f"unlisted:{name}"))
    return out


# ----------------------------------------- rule: lazy-path log forces


@rule("lazy-log-force",
      "No blocking log force where the paper requires laziness: abort "
      "records are never forced (presumed abort), and the OPTIMIZED "
      "delayed-commit branch writes its commit record lazily.")
def check_lazy_log_force(ctx: LintContext) -> List[Finding]:
    out: List[Finding] = []
    for info in ctx.sim_files():
        if info.tree is None or not info.sub.startswith("core/"):
            continue
        for node in ast.walk(info.tree):
            # ForceLog(abort_record(...)) — presumed abort violation.
            if isinstance(node, ast.Call) \
                    and dotted_name(node.func) == "ForceLog" and node.args \
                    and isinstance(node.args[0], ast.Call) \
                    and (dotted_name(node.args[0].func) or "").endswith(
                        "abort_record"):
                out.append(ctx.finding(
                    info, node, "lazy-log-force",
                    "abort record is forced; presumed abort requires "
                    "abort records to be written lazily (never forced)"))
            # ForceLog inside an `if ... TwoPhaseVariant.OPTIMIZED` body.
            if isinstance(node, ast.If) and any(
                    isinstance(t, ast.Attribute) and t.attr == "OPTIMIZED"
                    and (dotted_name(t) or "").endswith(
                        "TwoPhaseVariant.OPTIMIZED")
                    for t in ast.walk(node.test)):
                for inner in node.body:
                    for c in ast.walk(inner):
                        if isinstance(c, ast.Call) \
                                and dotted_name(c.func) == "ForceLog":
                            out.append(ctx.finding(
                                info, c, "lazy-log-force",
                                "log force on the OPTIMIZED delayed-"
                                "commit branch; the optimization exists "
                                "to skip exactly this force"))
    return out


# ------------------------------------ rule: consumed fire-and-forget


@rule("consumed-fire-and-forget",
      "kernel.post()/post_soon() return None by design; consuming the "
      "result means the caller wanted a cancellable schedule().")
def check_consumed_fire_and_forget(ctx: LintContext) -> List[Finding]:
    out: List[Finding] = []
    for info in ctx.sim_files():
        if info.tree is None:
            continue
        parents = parent_map(info.tree)
        for node in ast.walk(info.tree):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in ("post", "post_soon")
                    and _is_kernel_attr(node.func.value)):
                continue
            parent = parents.get(node)
            if not isinstance(parent, ast.Expr):
                out.append(ctx.finding(
                    info, node, "consumed-fire-and-forget",
                    f"result of fire-and-forget {node.func.attr}() is "
                    f"consumed; it returns no Timer handle — use "
                    f"schedule() if the caller needs to cancel"))
    return out


# ------------------------------------------ rule: chaos oracle purity


_MUTATOR_METHODS = {
    "append", "add", "update", "pop", "popleft", "popitem", "remove",
    "clear", "extend", "insert", "discard", "setdefault", "appendleft",
    "sort", "reverse",
}


def _root_name(node: ast.AST) -> Optional[str]:
    """The base Name of an attribute/subscript/call chain, if any."""
    while isinstance(node, (ast.Attribute, ast.Subscript, ast.Call)):
        node = node.func if isinstance(node, ast.Call) else node.value
    if isinstance(node, ast.Name):
        return node.id
    return None


def _readonly_violations(func: ast.AST, tainted: Set[str],
                         steering: AbstractSet[str] = frozenset()
                         ) -> List[Tuple[ast.AST, str]]:
    """``(node, what)`` for every write ``func`` makes through a name in
    ``tainted`` (simulation state): the taint first spreads through
    simple local bindings and loop targets, then assignments, deletes
    and mutator (or ``steering``) method calls rooted at a tainted name
    are flagged."""
    tainted = set(tainted)
    for n in ast.walk(func):
        if isinstance(n, ast.Assign) and _root_name(n.value) in tainted:
            for t in n.targets:
                if isinstance(t, ast.Name):
                    tainted.add(t.id)
        elif isinstance(n, (ast.For, ast.comprehension)) \
                and _root_name(n.iter) in tainted:
            t = n.target
            if isinstance(t, ast.Name):
                tainted.add(t.id)
            elif isinstance(t, ast.Tuple):
                tainted.update(e.id for e in t.elts
                               if isinstance(e, ast.Name))

    def writes(t: ast.AST) -> bool:
        return isinstance(t, (ast.Attribute, ast.Subscript)) \
            and _root_name(t) in tainted

    out: List[Tuple[ast.AST, str]] = []
    for n in ast.walk(func):
        if isinstance(n, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = n.targets if isinstance(n, ast.Assign) else [n.target]
            out.extend((n, "assigns into simulation state")
                       for t in targets if writes(t))
        elif isinstance(n, ast.Delete):
            out.extend((n, "deletes simulation state")
                       for t in n.targets if writes(t))
        elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) \
                and _root_name(n.func.value) in tainted:
            if n.func.attr in _MUTATOR_METHODS:
                out.append((n, f"calls mutator .{n.func.attr}() on "
                               f"simulation state"))
            elif n.func.attr in steering:
                out.append((n, f"calls steering method .{n.func.attr}() "
                               f"on simulation state"))
    return out


@rule("chaos-oracle-readonly",
      "Chaos oracles judge a finished run: they may read tracer/kernel/"
      "tranman state through their context but must never mutate it.")
def check_chaos_oracle_readonly(ctx: LintContext) -> List[Finding]:
    info = ctx.file("chaos/oracles.py")
    if info is None or info.tree is None:
        return []
    out: List[Finding] = []
    for func in info.tree.body:
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        decorated = any(
            isinstance(d, ast.Call) and (dotted_name(d.func) or "") == "oracle"
            for d in func.decorator_list)
        if not decorated or not func.args.args:
            continue
        # The context parameter is the only way in.
        for node, what in _readonly_violations(func,
                                               {func.args.args[0].arg}):
            out.append(ctx.finding(
                info, node, "chaos-oracle-readonly",
                f"oracle {func.name!r} {what}; oracles must be "
                f"read-only observers of the finished run"))
    return out


# ------------------------------------------------ rule: obs readonly


# Parameter names / annotations through which simulation objects reach
# obs code.  A recorder's spans and gauges are fair game; anything
# arriving through one of these is not.
_OBS_SIM_PARAM_NAMES = {
    "system", "kernel", "tracer", "site", "lan", "runtime", "tranman",
    "diskman", "fabric", "server", "dgram", "comman",
}
_OBS_SIM_TYPE_NAMES = {
    "CamelotSystem", "Kernel", "Tracer", "Site", "Lan", "SiteRuntime",
    "TransactionManager", "DiskManager", "IpcFabric", "DataServer",
    "DatagramService", "CommunicationManager",
}
# Calls that steer the simulation rather than read it.
_OBS_STEERING_METHODS = {
    "post", "post_soon", "schedule", "spawn", "run", "run_for",
    "run_until_idle", "run_process", "step", "send", "reply", "call",
    "unicast", "multicast", "crash", "restart", "crash_site",
    "restart_site", "trigger", "enqueue", "record", "attach_obs",
    "partition", "heal", "force", "register_site",
}
# Recorder writes flagged on any receiver: the sink is a Tracer too, and
# its counters feed the perf digests.
_OBS_RECORDER_WRITES = {"record", "attach_obs"}


@rule("obs-readonly",
      "Code under src/repro/obs/ must not mutate or steer sim/protocol "
      "state: spans and metrics observe, never steer.  (__main__.py, "
      "the scenario driver, is exempt — it builds and runs the system.)")
def check_obs_readonly(ctx: LintContext) -> List[Finding]:
    out: List[Finding] = []
    for info in ctx.files:
        if not info.sub.startswith("obs/") or info.sub == "obs/__main__.py":
            continue
        if info.tree is None:
            continue
        for func in ast.walk(info.tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            tainted: Set[str] = set()
            for a in (*func.args.args, *func.args.posonlyargs,
                      *func.args.kwonlyargs):
                ann = dotted_name(a.annotation) if a.annotation is not None \
                    else None
                if a.arg in _OBS_SIM_PARAM_NAMES \
                        or (ann or "").split(".")[-1] in _OBS_SIM_TYPE_NAMES:
                    tainted.add(a.arg)
            found = _readonly_violations(func, tainted,
                                         _OBS_STEERING_METHODS)
            seen = {id(node) for node, _ in found}
            found += [(n, f"calls .{n.func.attr}() on a recorder")
                      for n in ast.walk(func)
                      if isinstance(n, ast.Call)
                      and isinstance(n.func, ast.Attribute)
                      and n.func.attr in _OBS_RECORDER_WRITES
                      and id(n) not in seen]
            for node, what in found:
                out.append(ctx.finding(
                    info, node, "obs-readonly",
                    f"obs function {func.name!r} {what}; the "
                    f"observability layer must never mutate or steer "
                    f"the simulation"))
    return out


# ------------------------------------------------ rule: unbounded growth

# Methods that add entries to a container.
_GROW_METHODS = {"append", "appendleft", "add", "push", "extend", "update"}
# Methods that remove entries; a class that both grows and shrinks a
# container is managing its size, which is all this heuristic asks for.
_SHRINK_METHODS = {"pop", "popleft", "popitem", "remove", "discard",
                   "clear", "drain", "truncate", "truncate_before",
                   "release_family", "forget", "forget_family"}


def _self_attr(node: ast.AST) -> Optional[str]:
    """'x' for a ``self.x`` attribute node, else None."""
    if isinstance(node, ast.Attribute) and \
            isinstance(node.value, ast.Name) and node.value.id == "self":
        return node.attr
    return None


_CONTAINER_CTORS = {"list", "dict", "set", "deque", "defaultdict",
                    "Counter", "OrderedDict"}


def _container_attrs(cls: ast.ClassDef) -> Dict[str, ast.AST]:
    """Attribute -> construction node for containers built in __init__.

    Distinguishes real containers (``self.pledges = set()``) from
    components that merely expose ``append``/``update`` methods
    (``self.diskman = diskman`` — delegation, not growth).
    """
    attrs: Dict[str, ast.AST] = {}
    for method in cls.body:
        if not isinstance(method, ast.FunctionDef) \
                or method.name != "__init__":
            continue
        for node in ast.walk(method):
            targets: List[ast.AST] = []
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                targets, value = [node.target], node.value
            if value is None:
                continue
            is_container = (
                isinstance(value, (ast.List, ast.Dict, ast.Set,
                                   ast.ListComp, ast.DictComp,
                                   ast.SetComp))
                or (isinstance(value, ast.Call)
                    and (dotted_name(value.func) or "").split(".")[-1]
                    in _CONTAINER_CTORS))
            if not is_container:
                continue
            for target in targets:
                attr = _self_attr(target)
                if attr is not None:
                    attrs.setdefault(attr, node)
    return attrs


_BOUNDED_ACK = re.compile(r"#\s*lint:\s*bounded\(([^)]+)\)")


def _bounded_ack(info: "FileInfo", *nodes: Optional[ast.AST]) -> bool:
    """True when any of the given sites carries an inline
    ``# lint: bounded(<reason>)`` acknowledgement on its source line.

    The ack is accepted on the grow site or on the ``__init__``
    construction line, and must name a reason — it is the only
    suppression there is, kept next to the code it describes so it
    cannot outlive a refactor silently.
    """
    for node in nodes:
        lineno = getattr(node, "lineno", None)
        if lineno is None or lineno > len(info.lines):
            continue
        if _BOUNDED_ACK.search(info.lines[lineno - 1]):
            return True
    return False


@rule("unbounded-growth",
      "A sim-path class that grows a container per event/message/"
      "transaction must also shrink it somewhere: long open-loop runs "
      "turn grow-only bookkeeping into an unbounded leak.")
def check_unbounded_growth(ctx: LintContext) -> List[Finding]:
    """Per class: flag ``self.X`` containers grown outside ``__init__``
    (``.append``/``.add``/... or ``self.X[k] = v``) when no method of
    the class ever shrinks or reassigns them.

    Growth inside ``__init__`` is construction, not accumulation; a
    reassignment outside ``__init__`` (``self.X = [...]``) counts as a
    shrink because the old contents are dropped.  Intentional grow-only
    state (config-gated history, per-site registries bounded by the
    deployment size) is acknowledged inline with
    ``# lint: bounded(<reason>)`` on the grow site or the ``__init__``
    construction line, so the reason lives next to the code it excuses.
    """
    out: List[Finding] = []
    for info in ctx.sim_files():
        if info.tree is None:
            continue
        for cls in ast.walk(info.tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            containers = _container_attrs(cls)
            grows: Dict[str, ast.AST] = {}
            shrinks: Set[str] = set()
            for method in cls.body:
                if not isinstance(method, (ast.FunctionDef,
                                           ast.AsyncFunctionDef)):
                    continue
                in_init = method.name == "__init__"
                for node in ast.walk(method):
                    if isinstance(node, ast.Call) \
                            and isinstance(node.func, ast.Attribute):
                        attr = _self_attr(node.func.value)
                        if attr is None:
                            continue
                        if node.func.attr in _GROW_METHODS and not in_init:
                            grows.setdefault(attr, node)
                        elif node.func.attr in _SHRINK_METHODS:
                            shrinks.add(attr)
                    elif isinstance(node, ast.Assign):
                        for target in node.targets:
                            if isinstance(target, ast.Subscript):
                                attr = _self_attr(target.value)
                                if attr is not None and not in_init:
                                    grows.setdefault(attr, node)
                            else:
                                attr = _self_attr(target)
                                if attr is not None and not in_init:
                                    # Reassignment drops old contents.
                                    shrinks.add(attr)
                    elif isinstance(node, ast.Delete):
                        for target in node.targets:
                            if isinstance(target, ast.Subscript):
                                attr = _self_attr(target.value)
                                if attr is not None:
                                    shrinks.add(attr)
            for attr, node in sorted(grows.items()):
                if attr in shrinks or attr not in containers:
                    continue
                if _bounded_ack(info, node, containers.get(attr)):
                    continue
                out.append(ctx.finding(
                    info, node, "unbounded-growth",
                    f"{cls.name}.{attr} grows per event but no method "
                    f"of {cls.name} ever removes entries; long runs "
                    f"leak — shrink it, bound it, or acknowledge it inline "
                    f"with `# lint: bounded(<why>)`",
                    key=f"{cls.name}.{attr}"))
    return out
