"""Project-wide function index and call graph.

Builds, from the already-parsed :class:`~repro.lint.engine.FileInfo`
list, a :class:`Program`:

- every module-level function and every method as a :class:`FuncNode`
  (qualified name ``"<sub>::<Class>.<name>"``),
- every class as a :class:`ClassNode` with its method table, resolved
  base classes, and constructor-inferred attribute types,
- per-module symbol tables built from the import statements, so that
  ``from repro.core.effects import ForceLog`` and
  ``from .effects import ForceLog`` resolve to the same class, and
  ``from time import time as now`` normalizes calls on ``now`` to the
  external primitive ``time.time``.

Call sites are resolved conservatively: a call is only edged to a
callee the resolver can *name* (module function, ``self.method``,
``cls.method``, annotated/constructor-typed local or attribute,
``module.function``, class construction).  Anything else is dropped,
never guessed — a false edge would turn the downstream taint and
purity findings into noise.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (Callable, Dict, Iterable, List, Optional, Sequence, Set,
                    Tuple)

from repro.lint.engine import FileInfo

# Builtin callables that matter to the purity analysis even though they
# never appear in an import table.
_IO_BUILTINS = {"open", "input", "print", "exec", "eval", "__import__"}


def dotted_name(node: ast.AST) -> Optional[str]:
    """'a.b.c' for nested Name/Attribute chains, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def parent_map(tree: ast.AST) -> Dict[ast.AST, ast.AST]:
    parents: Dict[ast.AST, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[child] = node
    return parents


# Why a function reaches a primitive:
# ("prim", what it reads itself) | ("call", the callee qname that does).
Why = Tuple[str, str]


def witness_chain(reached: Dict[str, Why], qname: str) -> str:
    """'f -> g -> primitive': the call chain :meth:`Program.reaching`
    found from ``qname`` down to the primitive (12 hops at most)."""
    parts: List[str] = []
    cur: Optional[str] = qname
    for _ in range(12):
        if cur is None or cur not in reached:
            break
        kind, detail = reached[cur]
        parts.append(cur.split("::")[-1])
        if kind == "prim":
            parts.append(detail)
            cur = None
        else:
            cur = detail
    return " -> ".join(parts)


@dataclass
class ExternalRef:
    """A call (or attribute read) that leaves the linted tree, with the
    import-alias-normalized dotted name."""

    dotted: str
    node: ast.AST
    is_call: bool
    argless: bool = False


@dataclass
class CallEdge:
    """One resolved internal call site."""

    callee: str                  # FuncNode qname, or ClassNode qname for "init"
    node: ast.Call
    kind: str                    # "func" | "init"


@dataclass
class FuncNode:
    qname: str
    module: str                  # FileInfo.sub
    cls: Optional[str]           # enclosing class name, if a method
    name: str
    node: ast.AST                # FunctionDef | AsyncFunctionDef
    info: FileInfo
    is_classmethod: bool = False
    is_staticmethod: bool = False
    calls: List[CallEdge] = field(default_factory=list)
    externals: List[ExternalRef] = field(default_factory=list)


@dataclass
class ClassNode:
    qname: str                   # "<sub>::<name>"
    module: str
    name: str
    node: ast.ClassDef
    info: FileInfo
    methods: Dict[str, str] = field(default_factory=dict)   # name -> func qname
    attr_types: Dict[str, str] = field(default_factory=dict)  # self.x -> class qname
    bases: List[str] = field(default_factory=list)          # resolved class qnames


# Symbol table entries: (kind, payload)
#   ("func", qname) ("class", qname) ("module", sub) ("external", dotted)
Symbol = Tuple[str, str]


@dataclass
class Program:
    """The whole-program model the flow analyses consume."""

    files: List[FileInfo]
    funcs: Dict[str, FuncNode] = field(default_factory=dict)
    classes: Dict[str, ClassNode] = field(default_factory=dict)
    module_symbols: Dict[str, Dict[str, Symbol]] = field(default_factory=dict)
    module_lookup: Dict[str, str] = field(default_factory=dict)  # dotted -> sub

    # ------------------------------------------------------------ lookups

    def func(self, qname: str) -> Optional[FuncNode]:
        return self.funcs.get(qname)

    def cls(self, qname: str) -> Optional[ClassNode]:
        return self.classes.get(qname)

    def class_method(self, class_qname: str, name: str,
                     _depth: int = 0) -> Optional[str]:
        """Method lookup through the (project-internal) MRO, depth-capped."""
        cls = self.classes.get(class_qname)
        if cls is None or _depth > 4:
            return None
        if name in cls.methods:
            return cls.methods[name]
        for base in cls.bases:
            found = self.class_method(base, name, _depth + 1)
            if found is not None:
                return found
        return None

    def callees(self, qname: str) -> Iterable[str]:
        """Callee func qnames of one function (class edges follow to
        ``__init__`` when it exists)."""
        fn = self.funcs.get(qname)
        if fn is None:
            return
        for edge in fn.calls:
            if edge.kind == "func":
                yield edge.callee
            else:
                init = self.class_method(edge.callee, "__init__")
                if init is not None:
                    yield init

    def reaching(self, own_primitive: Callable[[FuncNode], Optional[str]]
                 ) -> Dict[str, Why]:
        """Every function that reaches a primitive over the call graph
        (least fixed point), with a witness for each.  ``own_primitive``
        names the primitive a function uses directly, or None."""
        reached: Dict[str, Why] = {}
        for qname, fn in self.funcs.items():
            prim = own_primitive(fn)
            if prim is not None:
                reached[qname] = ("prim", prim)
        changed = True
        while changed:
            changed = False
            for qname in self.funcs:
                if qname in reached:
                    continue
                for callee in self.callees(qname):
                    if callee in reached:
                        reached[qname] = ("call", callee)
                        changed = True
                        break
        return reached

    def resolve_symbol(self, sub: str, name: str,
                       _depth: int = 0) -> Optional[Symbol]:
        """Chase a name through module symbol tables (re-exports)."""
        table = self.module_symbols.get(sub)
        if table is None or _depth > 3:
            return None
        return table.get(name)

    def resolve_module(self, modpath: str, level: int,
                       current_sub: str) -> Optional[str]:
        """File sub for an imported module path, or None if external.

        Absolute paths also retry with the first component stripped, so
        linting a tree rooted *inside* the package (``repro.core.x`` vs
        ``core/x.py``) still resolves.
        """
        lookup = self.module_lookup
        if level > 0:
            base = current_sub.rsplit("/", 1)[0] if "/" in current_sub else ""
            for _ in range(level - 1):
                base = base.rsplit("/", 1)[0] if "/" in base else ""
            parts = ([base.replace("/", ".")] if base else [])
            if modpath:
                parts.append(modpath)
            dotted = ".".join(parts)
            return lookup.get(dotted)
        if modpath in lookup:
            return lookup[modpath]
        head, _, rest = modpath.partition(".")
        if rest and rest in lookup:
            return lookup[rest]
        return None


# ---------------------------------------------------------------- builder


def _module_dotted_candidates(sub: str) -> List[str]:
    """Dotted names under which a file sub is importable."""
    if sub.endswith("/__init__.py"):
        return [sub[: -len("/__init__.py")].replace("/", ".")]
    if sub == "__init__.py":
        return []
    return [sub[:-3].replace("/", ".")] if sub.endswith(".py") else []


class _Builder:
    def __init__(self, files: Sequence[FileInfo]) -> None:
        self.program = Program(files=list(files))
        for info in files:
            for dotted in _module_dotted_candidates(info.sub):
                self.program.module_lookup[dotted] = info.sub

    # ------------------------------------------------------ module paths

    def resolve_module(self, modpath: str, level: int,
                       current_sub: str) -> Optional[str]:
        return self.program.resolve_module(modpath, level, current_sub)

    # ---------------------------------------------------------- indexing

    def index_defs(self) -> None:
        for info in self.program.files:
            if info.tree is None:
                continue
            table: Dict[str, Symbol] = {}
            self.program.module_symbols[info.sub] = table
            for node in info.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qname = f"{info.sub}::{node.name}"
                    self.program.funcs[qname] = FuncNode(
                        qname=qname, module=info.sub, cls=None,
                        name=node.name, node=node, info=info)
                    table[node.name] = ("func", qname)
                elif isinstance(node, ast.ClassDef):
                    self._index_class(info, node, table)

    def _index_class(self, info: FileInfo, node: ast.ClassDef,
                     table: Dict[str, Symbol]) -> None:
        qname = f"{info.sub}::{node.name}"
        cls = ClassNode(qname=qname, module=info.sub, name=node.name,
                        node=node, info=info)
        self.program.classes[qname] = cls
        table[node.name] = ("class", qname)
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            mq = f"{info.sub}::{node.name}.{item.name}"
            deco = {dotted_name(d) for d in item.decorator_list}
            fn = FuncNode(qname=mq, module=info.sub, cls=node.name,
                          name=item.name, node=item, info=info,
                          is_classmethod="classmethod" in deco,
                          is_staticmethod="staticmethod" in deco)
            self.program.funcs[mq] = fn
            cls.methods[item.name] = mq

    # ----------------------------------------------------------- imports

    def resolve_imports(self) -> None:
        for info in self.program.files:
            if info.tree is None:
                continue
            table = self.program.module_symbols.setdefault(info.sub, {})
            for node in ast.walk(info.tree):
                if isinstance(node, ast.Import):
                    for alias in node.names:
                        self._bind_import(table, info.sub, alias)
                elif isinstance(node, ast.ImportFrom):
                    self._bind_import_from(table, info.sub, node)

    def _bind_import(self, table: Dict[str, Symbol], sub: str,
                     alias: ast.alias) -> None:
        target = self.resolve_module(alias.name, 0, sub)
        bound = alias.asname or alias.name.split(".", 1)[0]
        if alias.asname is not None:
            if target is not None:
                table[bound] = ("module", target)
            else:
                table[bound] = ("external", alias.name)
        else:
            # `import a.b` binds `a`; a bare internal top package is
            # rare, so treat the head as itself (external names pass
            # through unchanged, which is the identity normalization).
            head_target = self.resolve_module(bound, 0, sub)
            if head_target is not None:
                table[bound] = ("module", head_target)
            else:
                table[bound] = ("external", bound)

    def _bind_import_from(self, table: Dict[str, Symbol], sub: str,
                          node: ast.ImportFrom) -> None:
        modpath = node.module or ""
        mod_sub = self.resolve_module(modpath, node.level, sub)
        for alias in node.names:
            if alias.name == "*":
                continue
            bound = alias.asname or alias.name
            # `from pkg import submodule` binds a module, not a symbol.
            as_module = self.resolve_module(
                f"{modpath}.{alias.name}" if modpath else alias.name,
                node.level, sub)
            if as_module is not None:
                table[bound] = ("module", as_module)
                continue
            if mod_sub is None:
                table[bound] = ("external", f"{modpath}.{alias.name}"
                                if modpath else alias.name)
                continue
            symbol = self.program.resolve_symbol(mod_sub, alias.name)
            if symbol is not None:
                table[bound] = symbol
            # Unresolvable re-export: leave unbound (never guess).

    # ------------------------------------------------------- class types

    def infer_class_facts(self) -> None:
        for cls in self.program.classes.values():
            table = self.program.module_symbols.get(cls.module, {})
            for base in cls.node.bases:
                name = dotted_name(base)
                if name is None:
                    continue
                sym = table.get(name.split(".", 1)[0])
                if sym is not None and sym[0] == "class":
                    cls.bases.append(sym[1])
                elif name in {n for n in table} and table[name][0] == "class":
                    cls.bases.append(table[name][1])
            self._infer_attr_types(cls, table)

    def _ann_class(self, ann: Optional[ast.AST],
                   table: Dict[str, Symbol]) -> Optional[str]:
        """First project class named anywhere inside an annotation
        (handles ``Optional[QuorumSpec]`` and string annotations)."""
        if ann is None:
            return None
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            try:
                ann = ast.parse(ann.value, mode="eval").body
            except SyntaxError:
                return None
        for node in ast.walk(ann):
            name = None
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            if name is None:
                continue
            sym = table.get(name)
            if sym is not None and sym[0] == "class":
                return sym[1]
        return None

    def _value_class(self, value: ast.AST, table: Dict[str, Symbol],
                     param_types: Dict[str, str]) -> Optional[str]:
        """Class qname a ``self.x = <value>`` assignment implies."""
        if isinstance(value, ast.Name):
            return param_types.get(value.id)
        if isinstance(value, ast.BoolOp):
            for v in value.values:
                t = self._value_class(v, table, param_types)
                if t is not None:
                    return t
            return None
        if isinstance(value, ast.Call):
            name = dotted_name(value.func)
            if name is None:
                return None
            head = name.split(".", 1)[0]
            sym = table.get(head)
            if sym is None:
                return None
            if sym[0] == "class":
                # Ctor, or a classmethod constructor (Cls.majority(...)).
                return sym[1]
            if sym[0] == "module" and "." in name:
                inner = self.program.resolve_symbol(sym[1],
                                                    name.split(".")[1])
                if inner is not None and inner[0] == "class":
                    return inner[1]
        return None

    def _infer_attr_types(self, cls: ClassNode,
                          table: Dict[str, Symbol]) -> None:
        for item in cls.node.body:
            if isinstance(item, ast.AnnAssign) and \
                    isinstance(item.target, ast.Name):
                t = self._ann_class(item.annotation, table)
                if t is not None:
                    cls.attr_types[item.target.id] = t
        init_q = cls.methods.get("__init__")
        init = self.program.funcs.get(init_q) if init_q else None
        if init is None or not isinstance(
                init.node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return
        param_types: Dict[str, str] = {}
        args = init.node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            t = self._ann_class(a.annotation, table)
            if t is not None:
                param_types[a.arg] = t
        for node in ast.walk(init.node):
            target: Optional[ast.AST] = None
            value: Optional[ast.AST] = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign):
                target, value = node.target, node.value
                if isinstance(node, ast.AnnAssign):
                    t_ann = self._ann_class(node.annotation, table)
                    if t_ann is not None and isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and target.value.id == "self":
                        cls.attr_types.setdefault(target.attr, t_ann)
            if target is None or value is None:
                continue
            if isinstance(target, ast.Attribute) \
                    and isinstance(target.value, ast.Name) \
                    and target.value.id == "self":
                t = self._value_class(value, table, param_types)
                if t is not None:
                    cls.attr_types.setdefault(target.attr, t)

    # ------------------------------------------------------ call linking

    def link_calls(self) -> None:
        for fn in self.program.funcs.values():
            self._link_one(fn)

    def _local_types(self, fn: FuncNode,
                     table: Dict[str, Symbol]) -> Dict[str, str]:
        types: Dict[str, str] = {}
        node = fn.node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return types
        args = node.args
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            t = self._ann_class(a.annotation, table)
            if t is not None:
                types[a.arg] = t
        cls = self.program.classes.get(f"{fn.module}::{fn.cls}") \
            if fn.cls else None
        if cls is not None and not fn.is_staticmethod:
            first = (args.posonlyargs or args.args)
            if first:
                types[first[0].arg] = cls.qname
        for n in ast.walk(node):
            if isinstance(n, ast.Assign) and len(n.targets) == 1 \
                    and isinstance(n.targets[0], ast.Name):
                t = self._value_class(n.value, table, types)
                if t is not None:
                    types[n.targets[0].id] = t
            elif isinstance(n, ast.AnnAssign) \
                    and isinstance(n.target, ast.Name):
                t = self._ann_class(n.annotation, table)
                if t is not None:
                    types[n.target.id] = t
        return types

    def _normalize_external(self, dotted: str,
                            table: Dict[str, Symbol]) -> Optional[str]:
        """Rewrite the head of a dotted usage through its import alias."""
        head, _, rest = dotted.partition(".")
        sym = table.get(head)
        if sym is None:
            return None
        if sym[0] == "external":
            return f"{sym[1]}.{rest}" if rest else sym[1]
        return None

    def _link_one(self, fn: FuncNode) -> None:
        table = self.program.module_symbols.get(fn.module, {})
        types = self._local_types(fn, table)
        cls = self.program.classes.get(f"{fn.module}::{fn.cls}") \
            if fn.cls else None

        def resolve_call(call: ast.Call) -> None:
            name = dotted_name(call.func)
            if name is None:
                return
            argless = not call.args and not call.keywords
            parts = name.split(".")
            head = parts[0]
            # Plain name: module symbol or IO builtin.
            if len(parts) == 1:
                sym = table.get(head)
                if sym is None:
                    if head in _IO_BUILTINS:
                        fn.externals.append(ExternalRef(head, call, True,
                                                        argless))
                    return
                if sym[0] == "func":
                    fn.calls.append(CallEdge(sym[1], call, "func"))
                elif sym[0] == "class":
                    fn.calls.append(CallEdge(sym[1], call, "init"))
                elif sym[0] == "external":
                    fn.externals.append(ExternalRef(sym[1], call, True,
                                                    argless))
                return
            # self.m(...) / cls.m(...) / typed_local.m(...)
            owner: Optional[str] = None
            if head in types and len(parts) == 2:
                owner = types[head]
            elif head in types and len(parts) == 3 and cls is not None \
                    and types[head] == cls.qname:
                # self.attr.m(...): typed attribute of our own class.
                attr_cls = cls.attr_types.get(parts[1])
                if attr_cls is not None:
                    mq = self.program.class_method(attr_cls, parts[2])
                    if mq is not None:
                        fn.calls.append(CallEdge(mq, call, "func"))
                return
            if owner is not None:
                mq = self.program.class_method(owner, parts[1])
                if mq is not None:
                    fn.calls.append(CallEdge(mq, call, "func"))
                return
            # module.f(...) / ClassName.m(...) / external alias chain.
            sym = table.get(head)
            if sym is None:
                return
            if sym[0] == "module":
                inner = self.program.resolve_symbol(sym[1], parts[1])
                if inner is None:
                    return
                if inner[0] == "func" and len(parts) == 2:
                    fn.calls.append(CallEdge(inner[1], call, "func"))
                elif inner[0] == "class":
                    if len(parts) == 2:
                        fn.calls.append(CallEdge(inner[1], call, "init"))
                    else:
                        mq = self.program.class_method(inner[1], parts[2])
                        if mq is not None:
                            fn.calls.append(CallEdge(mq, call, "func"))
            elif sym[0] == "class":
                mq = self.program.class_method(sym[1], parts[1])
                if mq is not None:
                    fn.calls.append(CallEdge(mq, call, "func"))
            elif sym[0] == "external":
                rest = ".".join(parts[1:])
                fn.externals.append(ExternalRef(f"{sym[1]}.{rest}", call,
                                                True, argless))

        seen_attr_lines: Set[Tuple[int, str]] = set()
        for n in ast.walk(fn.node):
            if isinstance(n, ast.Call):
                resolve_call(n)
            elif isinstance(n, ast.Attribute):
                # Non-call attribute reads: only environment access is
                # interesting (``os.environ[...]`` and friends).
                name = dotted_name(n)
                if name is None:
                    continue
                normalized = self._normalize_external(name, table) or name
                if normalized.startswith(("os.environ", "os.environb")):
                    key = (getattr(n, "lineno", 0), normalized)
                    if key not in seen_attr_lines:
                        seen_attr_lines.add(key)
                        fn.externals.append(ExternalRef(normalized, n, False))


def build_program(files: Sequence[FileInfo]) -> Program:
    builder = _Builder(files)
    builder.index_defs()
    builder.resolve_imports()
    builder.infer_class_facts()
    builder.link_calls()
    return builder.program
