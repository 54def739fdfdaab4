"""Primitive fences, and the determinism rule (``flow-determinism``).

A *fence* keeps a set of primitives out of a scope of files.  It
reports each primitive use once, at the place it enters the scope:

- a use inside an in-scope function, read from ``FuncNode.externals``,
  so import aliases are already resolved (``from time import
  perf_counter as pc; pc()`` is ``time.perf_counter``);
- a use outside every function (module level, class bodies), resolved
  through ``Program.module_symbols`` the same way;
- a call from the scope into an out-of-scope helper that reaches a
  primitive (``Program.reaching``), with the witness chain::

    # analysis/util.py (not sim-scoped)
    def stamp() -> float:
        return time.time()

    # sim/kernel.py (sim-scoped)
    self.t0 = stamp()          # kernel -> stamp -> time.time()

A call from one in-scope function to another is not reported: the use
inside the callee already is.  ``flow-determinism`` is the fence over
sim-scoped files for the wall clock, the global or unseeded RNG and the
environment; ``flow-sansio-purity`` runs it over ``core/`` for IO.
"""

from __future__ import annotations

import ast
from typing import Callable, Iterator, List, Optional, Set, Tuple

from repro.lint.engine import FileInfo, LintContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import (ExternalRef, Program, dotted_name,
                                       witness_chain)

# The primitive a reference uses, or None.
Primitive = Callable[[ExternalRef], Optional[str]]

_WALLCLOCK = {
    "time.time", "time.monotonic", "time.perf_counter", "time.time_ns",
    "time.monotonic_ns", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "date.today", "datetime.date.today",
}

_GLOBAL_RANDOM_FNS = {
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "normalvariate", "expovariate",
    "betavariate", "triangular", "seed", "getrandbits",
}


def _nondeterministic(ref: ExternalRef) -> Optional[str]:
    """The wall-clock, global-RNG or environment read ``ref`` makes."""
    d = ref.dotted
    if d in _WALLCLOCK or (d.startswith("random.")
                           and d[len("random."):] in _GLOBAL_RANDOM_FNS):
        return f"{d}()"
    if d in ("random.Random", "Random") and ref.argless:
        return "Random() without a seed"
    if d == "os.getenv" or d.startswith("os.environ"):
        return d
    return None


def _stray_refs(program: Program, info: FileInfo,
                funcs: Set[int]) -> Iterator[ExternalRef]:
    """External calls and environment reads in ``info`` outside every
    function node in ``funcs``, names normalized through its imports."""
    table = program.module_symbols.get(info.sub, {})
    todo: List[ast.AST] = [info.tree] if info.tree is not None else []
    while todo:
        node = todo.pop()
        if id(node) in funcs:
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Call):
            name = dotted_name(node.func)
            argless = not node.args and not node.keywords
        elif isinstance(node, ast.Attribute):
            name, argless = dotted_name(node), False
        else:
            continue
        if name is None:
            continue
        head, _, rest = name.partition(".")
        sym = table.get(head)
        if sym is not None:
            if sym[0] != "external":
                continue                    # a project name
            name = f"{sym[1]}.{rest}" if rest else sym[1]
        is_call = isinstance(node, ast.Call)
        if is_call or name.startswith("os.environ"):
            yield ExternalRef(name, node, is_call, argless)


def fence(ctx: LintContext, program: Program, rule: str,
          in_scope: Callable[[FileInfo], bool], primitive: Primitive,
          advice: str) -> List[Finding]:
    """Every place a ``primitive`` enters the files ``in_scope`` accepts
    (the three kinds of the module docstring)."""
    reaches = program.reaching(lambda fn: next(
        filter(None, map(primitive, fn.externals)), None))
    out: List[Finding] = []
    # One finding per source position: ``os.environ.get(...)`` is a
    # call and two attribute reads that all start at one column.
    seen: Set[Tuple[str, int, int]] = set()

    def use(info: FileInfo, ref: ExternalRef, where: str, key: str) -> None:
        prim = primitive(ref)
        pos = (info.rel, getattr(ref.node, "lineno", 0),
               getattr(ref.node, "col_offset", 0))
        if prim is not None and pos not in seen:
            seen.add(pos)
            out.append(ctx.finding(info, ref.node, rule,
                                   f"{where} uses {prim}; {advice}",
                                   key=f"{key}:{prim}"))

    for fn in program.funcs.values():
        if not in_scope(fn.info):
            continue
        name = fn.qname.split("::")[-1]
        for ref in fn.externals:
            use(fn.info, ref, name, fn.qname)
        for edge in fn.calls:
            callee = edge.callee if edge.kind == "func" else \
                program.class_method(edge.callee, "__init__")
            if callee is None or callee not in reaches \
                    or in_scope(program.funcs[callee].info):
                continue
            out.append(ctx.finding(
                fn.info, edge.node, rule,
                f"{name} calls {witness_chain(reaches, callee)}; {advice}",
                key=f"{fn.qname}->{callee}"))
    funcs = {id(fn.node) for fn in program.funcs.values()}
    for info in program.files:
        if in_scope(info):
            for ref in _stray_refs(program, info, funcs):
                use(info, ref, "code outside any function", info.sub)
    return out


def run(ctx: LintContext, program: Program) -> List[Finding]:
    return fence(ctx, program, "flow-determinism",
                 lambda info: info.sim_scoped, _nondeterministic,
                 "simulation code reads Kernel.now, seeded RngStreams "
                 "and SystemConfig only")
