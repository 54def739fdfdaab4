"""Live-IO fence (rule ``live-io-fence``).

:mod:`repro.live` interprets the sans-IO machines' effects over real
sockets and a real fsync-backed WAL.  That substrate code is *allowed*
to do IO — but only there.  If asyncio, socket plumbing, or ``os.fsync``
leaks into any other package, the conformance argument (same machines,
two substrates, byte-identical transcripts) silently stops being about
substrates, and ``repro.core``/``repro.sim`` stop being provably
host-independent.

The fence complements ``flow-sansio-purity``: purity proves ``core/``
reaches no IO primitive *through any call chain*; this rule pins the
specific live-substrate primitives (asyncio / socket / selectors /
``os.fsync``) to the one package licensed to hold them, across the
whole tree — including ``net/``, ``servers/``, ``sim/`` and the lint
package itself.

Checked per non-``live/`` file:

- ``import asyncio`` / ``import socket`` / ``import selectors`` (and
  any submodule or ``from X import ...`` form);
- ``from os import fsync`` (aliased or not);
- any attribute reference ``*.fsync`` — which also means: do not *name*
  a method ``fsync`` outside ``live/``; the simulator vocabulary for
  durability is ``force``.
"""

from __future__ import annotations

import ast
from typing import List

from repro.lint.engine import LintContext
from repro.lint.findings import Finding

RULE = "live-io-fence"

# The only package allowed to touch the live-substrate primitives.
FENCED_PACKAGE = "live/"

# Module roots owned by the live substrate.
_FENCED_MODULES = {"asyncio", "socket", "selectors"}


def _fenced_module(modpath: str) -> str:
    """The offending root module, or '' if the import is fine."""
    root = modpath.split(".", 1)[0]
    return root if root in _FENCED_MODULES else ""


def run(ctx: LintContext) -> List[Finding]:
    out: List[Finding] = []
    for info in ctx.files:
        if info.sub.startswith(FENCED_PACKAGE):
            continue
        for node in ast.walk(info.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _fenced_module(alias.name)
                    if root:
                        out.append(ctx.finding(
                            info, node, RULE,
                            f"import of {alias.name}: {root} belongs to the "
                            f"live substrate; only repro/live may import it",
                            key=f"import:{info.sub}:{alias.name}"))
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    continue  # relative import: stays inside the project
                mod = node.module or ""
                root = _fenced_module(mod)
                if root:
                    out.append(ctx.finding(
                        info, node, RULE,
                        f"import from {mod}: {root} belongs to the live "
                        f"substrate; only repro/live may import it",
                        key=f"from:{info.sub}:{mod}"))
                elif mod == "os" or mod.startswith("os."):
                    for alias in node.names:
                        if alias.name == "fsync":
                            out.append(ctx.finding(
                                info, node, RULE,
                                "from os import fsync: real durability "
                                "lives in repro/live/walfile.py; the "
                                "simulator word for it is 'force'",
                                key=f"fsync-import:{info.sub}"))
            elif isinstance(node, ast.Attribute) and node.attr == "fsync":
                out.append(ctx.finding(
                    info, node, RULE,
                    "reference to .fsync outside repro/live (os.fsync or a "
                    "method named fsync): real durability lives in "
                    "repro/live/walfile.py; call it 'force' elsewhere",
                    key=f"fsync:{info.sub}:{node.lineno}"))
    return out
