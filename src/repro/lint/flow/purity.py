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
B. **Reachability** — no IO/concurrency/wall-clock primitive
   (``socket.*``, ``threading.*``, ``time.*``, ``open`` ...) is used in
   a pure module, in a function or at module level, or reached through
   a call into a helper outside ``core/``: the fence of
   :mod:`repro.lint.flow.taint` over ``core/``.
C. **Constructor fence** — machine ``__init__`` signatures must not
   accept host resources (kernels, transports, disk managers): machines
   receive data, hosts own IO.
"""

from __future__ import annotations

import ast
from typing import List, Optional, Set

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import ExternalRef, Program, dotted_name
from repro.lint.flow.taint import fence

_ALLOWED_INTERNAL = ("core/", "log/records.py")
_ALLOWED_STDLIB = {
    "__future__", "enum", "dataclasses", "typing", "itertools", "math",
    "abc", "collections", "functools",
}

_IO_MODULES = {
    "socket", "threading", "subprocess", "asyncio", "os", "time",
    "select", "ssl", "multiprocessing", "signal", "fcntl",
}
_IO_NAMES = {"open", "input", "print", "exec", "eval", "__import__"}

_HOST_PARAM_NAMES = {
    "kernel", "dgram", "fabric", "port", "diskman", "lan", "transport",
    "socket", "loop", "scheduler",
}


def _io_primitive(ref: ExternalRef) -> Optional[str]:
    d = ref.dotted
    if (d in _IO_NAMES and ref.is_call) \
            or d.split(".", 1)[0] in _IO_MODULES:
        return d
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
    subs = {info.sub for info in program.files
            if info.sub.startswith("core/")}
    out = _check_imports(ctx, program, subs)
    out.extend(fence(ctx, program, "flow-sansio-purity",
                     lambda info: info.sub in subs, _io_primitive,
                     "protocol code must return effect objects instead"))
    out.extend(_check_ctor_fence(ctx, program, subs))
    return out
