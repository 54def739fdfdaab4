"""Invariant oracles: read-only judges of a finished chaos run.

Each oracle is a function ``(OracleContext) -> list[Violation]``
registered under a stable name with :func:`oracle`.  Oracles run after
the simulation has settled and may read anything — the tracer, the
kernel clock, tranman tables, lock managers, stable stores — but must
never mutate simulation state (``repro.lint`` enforces this with the
``chaos-oracle-readonly`` rule).

Safety oracles (atomicity, durability of exposed decisions, heuristic
discipline, lock leakage) apply unconditionally.  Liveness-flavoured
clauses are guarded by what the run's end state makes provable:

- with every site up, the network whole, and loss off, everything must
  fully resolve (machines drained, outcome decided);
- under the non-blocking protocol with a dead *minority*, every live
  site must still decide — the paper's §5 claim — though machines
  notifying a dead peer may legitimately linger;
- a blocked two-phase commit with a dead coordinator is legal (§3.2),
  so no liveness is demanded there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional

from repro.core.outcomes import Outcome
from repro.log.records import RecordKind

ORACLES: Dict[str, Callable[["OracleContext"], List["Violation"]]] = {}


def oracle(name: str):
    """Register an oracle under ``name`` (sorted order = run order)."""
    def register(fn):
        ORACLES[name] = fn
        fn.oracle_name = name
        return fn
    return register


@dataclass(frozen=True)
class Violation:
    """One invariant breach, attributable to one oracle."""

    oracle: str
    message: str
    site: Optional[str] = None

    def describe(self) -> str:
        where = f" @{self.site}" if self.site else ""
        return f"{self.oracle}{where}: {self.message}"

    def to_json(self) -> Dict[str, Any]:
        return {"oracle": self.oracle, "message": self.message,
                "site": self.site}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "Violation":
        return Violation(oracle=data["oracle"], message=data["message"],
                         site=data.get("site"))


@dataclass(frozen=True)
class OracleContext:
    """Read-only view of a settled run handed to every oracle."""

    system: Any          # CamelotSystem
    spec: Any            # ScenarioSpec
    schedule: Any        # FaultSchedule
    state: Dict[str, Any]

    # -------------------------------------------------- derived queries

    @property
    def tid(self) -> Optional[str]:
        return self.state.get("tid")

    def live_sites(self) -> List[str]:
        return [s for s in self.system.site_names()
                if self.system.runtime(s).site.alive]

    def dead_sites(self) -> List[str]:
        return [s for s in self.system.site_names()
                if not self.system.runtime(s).site.alive]

    @property
    def repaired(self) -> bool:
        """All sites up, no partition, loss off: full resolution is due."""
        return (not self.dead_sites()
                and not self.system.lan.partitioned
                and self.system.lan.loss_probability == 0.0)

    @property
    def connected(self) -> bool:
        return (not self.system.lan.partitioned
                and self.system.lan.loss_probability == 0.0)

    def tombstone(self, site: str) -> Optional[Outcome]:
        if self.tid is None:
            return None
        return self.system.tranman(site).tombstones.get(self.tid)

    def unresolved_machines(self, site: str) -> int:
        tranman = self.system.tranman(site)
        return len(tranman.machines) + len(tranman.takeovers)

    def decided(self) -> Dict[str, str]:
        """Every exposed decision for the chaos transaction, by source.

        Sources: ``tranman.complete`` trace events (the reply the
        application saw), non-blocking takeover decisions, each site's
        tombstone table (including sites that died holding one — a
        decision once exposed counts forever), and the application's own
        return value.
        """
        tid = self.tid
        out: Dict[str, str] = {}
        if tid is None:
            return out
        for event in self.system.tracer.of_kind("tranman.complete"):
            if event.detail.get("tid") == tid:
                out[f"complete@{event.site}"] = event.detail["outcome"]
        for event in self.system.tracer.of_kind("nb.takeover_decided"):
            if event.detail.get("tid") in (tid, None):
                out[f"takeover@{event.site}"] = event.detail["outcome"]
        for event in self.system.tracer.of_kind("pc.election_decided"):
            if event.detail.get("tid") in (tid, None):
                out[f"election@{event.site}"] = event.detail["outcome"]
        for site in self.system.site_names():
            tomb = self.system.tranman(site).tombstones.get(tid)
            if tomb is not None:
                out[f"tombstone@{site}"] = tomb.value
        app_outcome = self.state.get("outcome")
        if isinstance(app_outcome, Outcome):
            out["application"] = app_outcome.value
        return out

    def durable_kinds(self, site: str) -> List[RecordKind]:
        """Record kinds the site's stable log holds for the chaos txn."""
        tid = self.tid
        if tid is None:
            return []
        return [r.kind for r in self.system.stores.for_site(site).records()
                if r.tid == tid]

    def all_writes_done(self) -> bool:
        return len(self.state.get("written", ())) == len(self.spec.sites)


def run_oracles(ctx: OracleContext) -> List[Violation]:
    out: List[Violation] = []
    for name in sorted(ORACLES):
        out.extend(ORACLES[name](ctx))
    return out


# --------------------------------------------------------------- oracles


@oracle("atomicity")
def check_atomicity(ctx: OracleContext) -> List[Violation]:
    """No two sources ever expose different outcomes for the txn."""
    decided = ctx.decided()
    values = set(decided.values())
    if Outcome.COMMITTED.value in values and Outcome.ABORTED.value in values:
        detail = ", ".join(f"{src}={val}"
                           for src, val in sorted(decided.items()))
        return [Violation("atomicity",
                          f"split decision for {ctx.tid}: {detail}")]
    return []


@oracle("durability")
def check_durability(ctx: OracleContext) -> List[Violation]:
    """Committed effects survive crashes, restarts, and recovery."""
    out: List[Violation] = []
    if ctx.tid is None:
        return out
    expected = 9  # the workload's write value
    for site in ctx.live_sites():
        if ctx.tombstone(site) is Outcome.COMMITTED:
            value = ctx.system.server(f"server0@{site}").peek("x")
            if value != expected:
                out.append(Violation(
                    "durability",
                    f"site decided committed but x={value!r} "
                    f"(expected {expected})", site=site))
    if ctx.repaired and Outcome.COMMITTED.value in ctx.decided().values():
        # Fully repaired and committed somewhere: every written site
        # must expose the effects, however it crashed along the way.
        for site in ctx.system.site_names():
            value = ctx.system.server(f"server0@{site}").peek("x")
            if value != expected:
                out.append(Violation(
                    "durability",
                    f"transaction committed but x={value!r} after repair "
                    f"(expected {expected})", site=site))
    return out


@oracle("delayed-commit")
def check_delayed_commit(ctx: OracleContext) -> List[Violation]:
    """Delayed commit never needs a guess: no heuristics, and every
    durably-prepared site converges to the coordinator's outcome."""
    out: List[Violation] = []
    for kind in ("2pc.heuristic_resolve", "2pc.heuristic_damage"):
        count = ctx.system.tracer.count(kind)
        if count:
            out.append(Violation(
                "delayed-commit",
                f"{count} {kind} event(s): chaos scenarios must resolve "
                f"without heuristic decisions"))
    if ctx.spec.protocol != "2pc" or ctx.tid is None or not ctx.repaired:
        return out
    coordinator = ctx.spec.coordinator
    # Presumed abort: a coordinator with no durable decision answers
    # "aborted", so that is the reference outcome when no tombstone.
    reference = ctx.tombstone(coordinator) or Outcome.ABORTED
    for site in ctx.spec.sites:
        if site == coordinator:
            continue
        if RecordKind.PREPARE not in ctx.durable_kinds(site):
            continue
        tomb = ctx.tombstone(site)
        if tomb is None:
            out.append(Violation(
                "delayed-commit",
                f"durably prepared site still in doubt after full repair "
                f"(coordinator outcome {reference.value})", site=site))
        elif tomb is not reference:
            out.append(Violation(
                "delayed-commit",
                f"prepared site resolved {tomb.value} but the coordinator "
                f"decided {reference.value}", site=site))
    return out


@oracle("locks")
def check_lock_leakage(ctx: OracleContext) -> List[Violation]:
    """Once a live site has no protocol machine left, its data servers
    must hold no locks: whoever resolved the txn released them."""
    out: List[Violation] = []
    if ctx.tid is None:
        return out
    for site in ctx.live_sites():
        if ctx.unresolved_machines(site):
            continue  # still legitimately blocked / notifying
        for name in sorted(ctx.system.runtime(site).servers):
            held = ctx.system.server(name).locks.locked_objects()
            if held:
                out.append(Violation(
                    "locks",
                    f"{name} still holds locks {held} with no machine "
                    f"left to release them", site=site))
    return out


@oracle("resolution")
def check_resolution(ctx: OracleContext) -> List[Violation]:
    """Eventual resolution, where the end state makes it provable."""
    out: List[Violation] = []
    if ctx.tid is None or not ctx.connected:
        return out
    dead = ctx.dead_sites()
    if not dead:
        for site in ctx.live_sites():
            pending = ctx.unresolved_machines(site)
            if pending:
                out.append(Violation(
                    "resolution",
                    f"{pending} protocol machine(s) still alive after "
                    f"settle with every site up and the network whole",
                    site=site))
        if ctx.all_writes_done() and not ctx.decided():
            out.append(Violation(
                "resolution",
                "transaction reached the commit protocol but no site "
                "ever decided"))
        return out
    if ctx.spec.protocol in ("nb", "paxos") \
            and len(dead) * 2 < len(ctx.spec.sites) \
            and ctx.all_writes_done():
        # The §5 claim (and Paxos Commit's F-fault-tolerance): a live
        # majority always decides.  Machines notifying the dead
        # minority may linger; decisions may not.
        for site in ctx.live_sites():
            if ctx.tombstone(site) is None:
                out.append(Violation(
                    "resolution",
                    f"live site undecided despite a live majority under "
                    f"the {ctx.spec.protocol} protocol "
                    f"(dead: {sorted(dead)})",
                    site=site))
    return out
