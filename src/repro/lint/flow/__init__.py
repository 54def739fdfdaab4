"""Whole-program dataflow layer for ``repro.lint``.

The per-file AST rules in :mod:`repro.lint.rules` cannot see across a
call: a helper one module away can return ``time.time()`` into the
simulator, or IO can be reached from ``core/`` through a helper.  This
package closes that gap with a project-wide function index and call
graph (:mod:`~repro.lint.flow.callgraph`): import/alias resolution
(including relative imports), method resolution through
``self``/``cls``/annotated locals/constructor-typed attributes, and
normalization of external primitive calls (``from time import time as
now`` still reads as ``time.time``).  Three rules sit on top
(:mod:`~repro.lint.flow.rules` registers them): the determinism fence
over sim-scoped code, the sans-IO purity proof for ``core/`` (the same
fence with IO primitives, plus import and constructor fences), and the
live-IO fence (imports and ``.fsync``; no call graph).

Soundness limits (by design, documented in DESIGN.md): no dynamic
dispatch resolution (a callee reached only through an untyped variable
is not followed) and no ``getattr``/``setattr`` tracking — the analyses
are tuned to be useful gates, not proofs of everything.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.lint.flow.callgraph import Program, build_program

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.lint.engine import LintContext

__all__ = ["Program", "build_program", "flow_program"]


def flow_program(ctx: "LintContext") -> Program:
    """The (cached) whole-program model for one lint run.

    The call-graph rules share a single build; the first rule
    to run pays for it, the rest reuse it through the context.
    """
    cached = getattr(ctx, "flow", None)
    if isinstance(cached, Program):
        return cached
    program = build_program(ctx.files)
    ctx.flow = program
    return program
