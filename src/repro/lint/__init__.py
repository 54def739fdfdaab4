"""repro.lint — a codebase-aware static-analysis pass for the simulator.

The whole reproduction rests on the simulator being *deterministic*:
the behaviour gate is that every figure regenerates byte-identically
and every chaos verdict replays from its seed.  Any hidden
nondeterminism — a wall-clock read, an unseeded RNG, unordered
``set`` iteration feeding event order — silently corrupts every figure
while all tests stay green.

This package checks those properties mechanically:

- :mod:`repro.lint.rules` — five per-file AST rules (unordered
  iteration into the kernel, consumed fire-and-forget results,
  chaos-oracle and obs read-only discipline, unbounded growth) in a
  pluggable registry (:mod:`repro.lint.registry`).
- :mod:`repro.lint.flow` — three whole-program rules:
  ``flow-determinism`` (no wall-clock, RNG or environment read reaches
  sim-scoped code, under any alias or through any helper), the sans-IO
  purity fence over ``core/`` and the live-IO fence.

Each rule catches a defect the test suite does not (DESIGN.md §9, the
mutant table).  There is no suppression file: an intentional exception
is acknowledged inline, next to the code it excuses
(``# lint: bounded(<why>)``).

Run it with ``python -m repro.lint`` (see ``--help``); CI runs
``python -m repro.lint --format json`` and fails on any finding.
"""

from repro.lint.findings import Finding, render_json, render_text
from repro.lint.registry import all_rules, rule
from repro.lint.engine import LintContext, run_lint

__all__ = [
    "Finding",
    "LintContext",
    "all_rules",
    "render_json",
    "render_text",
    "rule",
    "run_lint",
]
