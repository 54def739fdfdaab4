"""Registration of the three whole-program flow rules.

Each rule is a thin adapter: build (or reuse) the shared
:class:`~repro.lint.flow.callgraph.Program` for the tree being linted,
then hand it to the analysis module.  Keeping registration separate
from the analyses lets tests drive ``taint.run`` / ``purity.run``
directly on synthetic trees without touching the global registry.
"""

from __future__ import annotations

from typing import List

from repro.lint.engine import LintContext
from repro.lint.findings import Finding
from repro.lint.flow import flow_program
from repro.lint.flow import livefence as _livefence
from repro.lint.flow import purity as _purity
from repro.lint.flow import taint as _taint
from repro.lint.registry import rule


@rule("flow-determinism",
      "sim-scoped code must not read the wall clock, the global or "
      "unseeded RNG or the environment, directly or through a helper in "
      "any other module")
def check_flow_determinism(ctx: LintContext) -> List[Finding]:
    return _taint.run(ctx, flow_program(ctx))


@rule("flow-sansio-purity",
      "core/ protocol modules: import fence, no reachable IO primitive, "
      "no host resources in machine constructors")
def check_flow_sansio_purity(ctx: LintContext) -> List[Finding]:
    return _purity.run(ctx, flow_program(ctx))


@rule("live-io-fence",
      "asyncio/socket/selectors/os.fsync may appear only under repro/live: "
      "the live substrate owns real IO, everything else stays sans-IO")
def check_live_io_fence(ctx: LintContext) -> List[Finding]:
    return _livefence.run(ctx)

