"""Sans-IO purity proof for ``core/`` (rule ``flow-sansio-purity``).

The protocol state machines must stay pure effect emitters: a handler
consumes one input and returns a list of effect objects; the host
executes them.  That property is what lets the same machines run under
the simulator, the chaos explorer, and (ROADMAP item 2) real sockets.
This analysis machine-checks it three ways for every module under
``core/`` (the hosts that drive the machines live outside it, in
``servers/tranman.py`` and ``live/host.py``):

A. **Import fence** — pure modules may import only other pure modules,
   ``log/records.py`` (record constructors are data), and a small
   allowlist of stdlib value/type modules.
B. **Reachability** — no function defined in a pure module may reach,
   through any chain of project calls, an IO/concurrency/wall-clock
   primitive (``socket.*``, ``threading.*``, ``time.*``, ``open`` ...).
   Module-level statements are checked for direct primitive calls too.
C. **Constructor fence** — machine ``__init__`` signatures must not
   accept host resources (kernels, transports, disk managers): machines
   receive data, hosts own IO.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import (FuncNode, Program, dotted_name,
                                       witness_chain)

_ALLOWED_INTERNAL = ("core/", "log/records.py")
_ALLOWED_STDLIB = {
    "__future__", "enum", "dataclasses", "typing", "itertools", "math",
    "abc", "collections", "functools",
}

_IO_PREFIXES = (
    "socket.", "threading.", "subprocess.", "asyncio.", "os.", "time.",
    "select.", "ssl.", "multiprocessing.", "signal.", "fcntl.",
)
_IO_NAMES = {"open", "input", "print", "exec", "eval", "__import__"}

_HOST_PARAM_NAMES = {
    "kernel", "dgram", "fabric", "port", "diskman", "lan", "transport",
    "socket", "loop", "scheduler",
}


def pure_files(program: Program) -> List[str]:
    return sorted(
        info.sub for info in program.files
        if info.sub.startswith("core/"))


def _io_primitive(dotted: str, is_call: bool) -> Optional[str]:
    if dotted in _IO_NAMES and is_call:
        return dotted
    for prefix in _IO_PREFIXES:
        if dotted.startswith(prefix) or dotted == prefix[:-1]:
            return dotted
    return None


def _own_io(fn: FuncNode) -> Optional[str]:
    for ref in fn.externals:
        prim = _io_primitive(ref.dotted, ref.is_call)
        if prim is not None:
            return prim
    return None


def _check_imports(ctx: LintContext, program: Program,
                   subs: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    for sub in sorted(subs):
        info = ctx.file(sub)
        if info is None or info.tree is None:
            continue
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                specs = [(alias.name, 0) for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                specs = [(node.module or "", node.level)]
            else:
                continue
            for modpath, level in specs:
                target = program.resolve_module(modpath, level, sub)
                if target is not None:
                    if target.startswith(_ALLOWED_INTERNAL[0]) \
                            or target == _ALLOWED_INTERNAL[1]:
                        continue
                    out.append(ctx.finding(
                        info, node, "flow-sansio-purity",
                        f"pure module imports {target}; core/ may only "
                        f"import core/ and log/records.py — effects out, "
                        f"never hosts in",
                        key=f"import:{sub}:{target}"))
                else:
                    head = modpath.split(".", 1)[0] if modpath else ""
                    if level == 0 and head not in _ALLOWED_STDLIB:
                        out.append(ctx.finding(
                            info, node, "flow-sansio-purity",
                            f"pure module imports non-allowlisted external "
                            f"'{modpath}'; sans-IO core code may use only "
                            f"value/type stdlib modules "
                            f"({', '.join(sorted(_ALLOWED_STDLIB - {'__future__'}))})",
                            key=f"import:{sub}:{modpath}"))
    return out


def _check_reachability(ctx: LintContext, program: Program,
                        subs: Set[str]) -> List[Finding]:
    reaches = program.reaching(_own_io)
    out: List[Finding] = []
    for fn in program.funcs.values():
        if fn.module not in subs:
            continue
        prim = _own_io(fn)
        if prim is not None:
            out.append(ctx.finding(
                fn.info, fn.node, "flow-sansio-purity",
                f"{fn.qname.split('::')[-1]} calls IO primitive {prim}; "
                f"protocol code must return effect objects instead",
                key=f"io:{fn.qname}"))
            continue
        for callee in program.callees(fn.qname):
            if callee in reaches:
                out.append(ctx.finding(
                    fn.info, fn.node, "flow-sansio-purity",
                    f"{fn.qname.split('::')[-1]} reaches IO primitive via "
                    f"{witness_chain(reaches, callee)}; no socket/file/thread/"
                    f"wall-clock call may be reachable from a handler",
                    key=f"reach:{fn.qname}->{callee}"))
                break
    # Module level: direct primitive calls outside any function body.
    for sub in sorted(subs):
        info = ctx.file(sub)
        if info is None or info.tree is None:
            continue
        table = program.module_symbols.get(sub, {})
        for stmt in info.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef, ast.Import, ast.ImportFrom)):
                continue
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                head, _, rest = name.partition(".")
                sym = table.get(head)
                if sym is not None and sym[0] == "external":
                    name = f"{sym[1]}.{rest}" if rest else sym[1]
                prim = _io_primitive(name, True)
                if prim is not None:
                    out.append(ctx.finding(
                        info, node, "flow-sansio-purity",
                        f"module-level IO call {prim} in pure module",
                        key=f"module-io:{sub}:{prim}"))
    return out


def _check_ctor_fence(ctx: LintContext, program: Program,
                      subs: Set[str]) -> List[Finding]:
    out: List[Finding] = []
    for cls in program.classes.values():
        if cls.module not in subs:
            continue
        init_q = cls.methods.get("__init__")
        init = program.funcs.get(init_q) if init_q else None
        if init is None:
            continue
        node = init.node
        assert isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        for arg in (*node.args.posonlyargs, *node.args.args,
                    *node.args.kwonlyargs):
            if arg.arg in ("self", "cls"):
                continue
            hit = arg.arg in _HOST_PARAM_NAMES
            if not hit and arg.annotation is not None:
                ann = dotted_name(arg.annotation)
                if ann is not None and \
                        ann.split(".")[-1].lower() in _HOST_PARAM_NAMES:
                    hit = True
            if hit:
                out.append(ctx.finding(
                    cls.info, node, "flow-sansio-purity",
                    f"{cls.name}.__init__ takes host resource "
                    f"'{arg.arg}'; machines receive data, hosts own IO",
                    key=f"ctor:{cls.qname}:{arg.arg}"))
    return out


def run(ctx: LintContext, program: Program) -> List[Finding]:
    subs = set(pure_files(program))
    out = _check_imports(ctx, program, subs)
    out.extend(_check_reachability(ctx, program, subs))
    out.extend(_check_ctor_fence(ctx, program, subs))
    return out
