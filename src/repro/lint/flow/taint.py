"""Interprocedural determinism taint (rule ``flow-determinism``).

The per-file ``wallclock`` / ``unseeded-random`` / ``env-read`` rules
flag nondeterministic primitives *inside* sim-scoped files.  What they
cannot see is a helper one module away::

    # analysis/util.py (not sim-scoped -> per-file rules stay silent)
    def stamp() -> float:
        return time.time()

    # sim/kernel.py (sim-scoped)
    self.t0 = stamp()          # nondeterminism smuggled in

This analysis marks every function that *itself* reads a
nondeterministic primitive (wall clock, global/unseeded RNG,
environment), propagates the taint over the project call graph to a
least fixed point, and then flags each call site in sim-scoped code
whose resolved callee is tainted and lives in a module the per-file
rules do not cover.  Each finding carries the full witness chain down
to the primitive.
"""

from __future__ import annotations

from typing import List, Optional

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.flow.callgraph import FuncNode, Program, witness_chain
# The primitive vocabularies are shared with the per-file rules so the
# two layers can never disagree about what "nondeterministic" means.
from repro.lint.rules import _GLOBAL_RANDOM_FNS, _WALLCLOCK


def _own_primitive(fn: FuncNode) -> Optional[str]:
    """The nondeterministic primitive this function reads directly."""
    for ref in fn.externals:
        d = ref.dotted
        if d in _WALLCLOCK:
            return f"{d}()"
        if d.startswith("random.") and ref.is_call \
                and d.split(".", 1)[1] in _GLOBAL_RANDOM_FNS:
            return f"{d}()"
        if d in ("random.Random", "Random") and ref.is_call and ref.argless:
            return "Random() without a seed"
        if d == "os.getenv" or d.startswith(("os.environ", "os.environb")):
            return d
    return None


def run(ctx: LintContext, program: Program) -> List[Finding]:
    tainted = program.reaching(_own_primitive)
    out: List[Finding] = []
    for fn in program.funcs.values():
        if not fn.info.sim_scoped:
            continue
        for edge in fn.calls:
            if edge.kind == "init":
                init = program.class_method(edge.callee, "__init__")
                callee = init if init is not None else None
            else:
                callee = edge.callee
            if callee is None or callee not in tainted:
                continue
            callee_fn = program.funcs[callee]
            if callee_fn.info.sim_scoped:
                # In-scope primitives and helpers are the per-file
                # rules' territory; flagging them here would duplicate
                # every finding.
                continue
            witness = witness_chain(tainted, callee)
            out.append(ctx.finding(
                fn.info, edge.node, "flow-determinism",
                f"{fn.qname.split('::')[-1]} (sim-scoped) calls "
                f"nondeterministic {witness}; route through the seeded "
                f"RngStreams / virtual clock instead",
                key=f"{fn.qname}->{callee}"))
    return out
