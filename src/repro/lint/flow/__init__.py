"""Whole-program dataflow layer for ``repro.lint``.

The per-file AST rules in :mod:`repro.lint.rules` cannot see across a
call: a helper one module away can return ``time.time()`` into the
simulator, or a handler can send a COMMIT notice on a path where the
log force never happened.  This package closes that gap with a light
three-stage pipeline:

1. :mod:`~repro.lint.flow.callgraph` — a project-wide function index
   and call graph: import/alias resolution (including relative
   imports), method resolution through ``self``/``cls``/annotated
   locals/constructor-typed attributes, and normalization of external
   primitive calls (``from time import time as now`` still reads as
   ``time.time``).
2. :mod:`~repro.lint.flow.cfg` — a per-function control-flow walk: a
   structured-CFG symbolic executor that enumerates acyclic paths
   through a handler (inlining intra-class helpers), recording guard
   atoms, effect constructions, and state assignments in order.
3. Five rules on top (:mod:`~repro.lint.flow.rules` registers them):
   the determinism fence over sim-scoped code, sans-IO purity proof for
   ``core/`` (the same fence with IO primitives, plus import and
   constructor fences), path-sensitive log-force discipline, static
   protocol transition-graph extraction with state and dispatch checks,
   and the live-IO fence (imports and ``.fsync``; no call graph).

Soundness limits (by design, documented in DESIGN.md): no dynamic
dispatch resolution (a callee reached only through an untyped variable
is not followed), no ``getattr``/``setattr`` tracking, and sends whose
payload field is an attribute read (``outcome=self.outcome``) are not
classified — the analyses are tuned to be useful gates, not proofs of
everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.flow.callgraph import Program, build_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import LintContext

__all__ = ["Program", "build_program", "flow_program"]


def flow_program(ctx: "LintContext") -> Program:
    """The (cached) whole-program model for one lint run.

    The four call-graph rules share a single build; the first rule
    to run pays for it, the rest reuse it through the context.
    """
    cached = getattr(ctx, "flow", None)
    if isinstance(cached, Program):
        return cached
    program = build_program(ctx.files)
    ctx.flow = program
    return program
