"""Run one full scenario under a fault schedule and snapshot the end.

The scenario is the paper's minimal distributed write transaction (one
write per site, then commit) on a fresh :class:`CamelotSystem`, with the
schedule's faults injected while it runs.  The system then runs for a
settle period long enough for every bounded-retry mechanism to finish:
recovery redo watches, takeover retry caps, and the orphan sweep (whose
timeout, 30 s of virtual time, dominates — hence the default).

Everything is derived from the :class:`ScenarioSpec` alone: same spec +
same schedule -> byte-identical trace, which :func:`run_signature`
condenses into one hash for replay verification.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Optional, Tuple

from repro.chaos.bugs import seeded_bug
from repro.chaos.oracles import OracleContext, Violation, run_oracles
from repro.chaos.schedule import FaultSchedule
from repro.config import SystemConfig
from repro.core.outcomes import PROTOCOLS, Outcome, ProtocolKind
from repro.servers.application import TransactionAborted
from repro.system import CamelotSystem

# Orphan sweep fires at most orphan_timeout + sweep interval (30 s +
# 7.5 s) after the transaction went idle; a few extra seconds cover the
# inquiry/redo polling that follows it.
DEFAULT_SETTLE_MS = 42_000.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Everything needed to reproduce one chaos run."""

    protocol: str = "2pc"                    # key into PROTOCOLS
    sites: Tuple[str, ...] = ("a", "b", "c")
    seed: int = 0                            # SystemConfig seed
    settle_ms: float = DEFAULT_SETTLE_MS
    bug: Optional[str] = None                # key into chaos.bugs.BUGS

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r} "
                             f"(expected one of {sorted(PROTOCOLS)})")
        object.__setattr__(self, "sites", tuple(self.sites))

    @property
    def protocol_kind(self) -> ProtocolKind:
        return PROTOCOLS[self.protocol]

    @property
    def coordinator(self) -> str:
        return self.sites[0]

    def to_json(self) -> Dict[str, Any]:
        return {"protocol": self.protocol, "sites": list(self.sites),
                "seed": self.seed, "settle_ms": self.settle_ms,
                "bug": self.bug}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "ScenarioSpec":
        return ScenarioSpec(protocol=data["protocol"],
                            sites=tuple(data["sites"]),
                            seed=int(data["seed"]),
                            settle_ms=float(data["settle_ms"]),
                            bug=data.get("bug"))


@dataclass
class RunResult:
    """End-of-run snapshot: what the oracles saw and decided."""

    spec: ScenarioSpec
    schedule: FaultSchedule
    state: Dict[str, Any]
    violations: Tuple[Violation, ...]
    signature: str
    tombstones: Dict[str, Optional[str]] = field(default_factory=dict)
    end_time: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.violations


def build_system(spec: ScenarioSpec) -> CamelotSystem:
    return CamelotSystem(SystemConfig(
        sites={name: 1 for name in spec.sites}, seed=spec.seed))


def start_workload(system: CamelotSystem,
                   spec: ScenarioSpec) -> Dict[str, Any]:
    """Spawn the paper's minimal write transaction from the coordinator
    site; the returned dict fills in as the transaction progresses."""
    app = system.application(spec.coordinator)
    protocol = spec.protocol_kind
    state: Dict[str, Any] = {"written": []}

    def body():
        try:
            tid = yield from app.begin(protocol=protocol)
            state["tid"] = str(tid)
            for service in system.default_services():
                yield from app.write(tid, service, "x", 9)
                state["written"].append(service)
            outcome = yield from app.commit(tid, protocol=protocol)
            state["outcome"] = outcome
        except TransactionAborted:
            state["outcome"] = Outcome.ABORTED

    system.spawn(body(), name="chaos.txn")
    return state


def run_signature(system: CamelotSystem, state: Dict[str, Any],
                  tombstones: Dict[str, Optional[str]]) -> str:
    """Condense a finished run into one hash for replay verification.

    Covers the full per-kind trace counters, the final virtual clock,
    and each site's tombstone for the chaos transaction — any scheduling
    or protocol divergence between two runs shows up here.
    """
    outcome = state.get("outcome")
    payload = {
        "now": round(system.kernel.now, 6),
        "counters": dict(sorted(system.tracer.counters.items())),
        "tombstones": tombstones,
        "outcome": outcome.value if isinstance(outcome, Outcome) else None,
        "error": state.get("error"),
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def run_schedule(spec: ScenarioSpec, schedule: FaultSchedule) -> RunResult:
    """Execute one scenario under one fault schedule and judge it."""
    with seeded_bug(spec.bug):
        system = build_system(spec)
        state = start_workload(system, spec)
        schedule.apply(system.failures)
        try:
            system.run_for(schedule.horizon() + spec.settle_ms)
        except Exception as exc:
            # An in-sim assertion (e.g. a protocol-violation guard) is a
            # first-class finding: report it as a "crash" violation so
            # the shrinker and replay machinery work on it like any
            # oracle failure.  The partial run is still deterministic,
            # so its signature remains replayable.
            state["error"] = type(exc).__name__
            violations: Tuple[Violation, ...] = (Violation(
                oracle="crash",
                message=f"{type(exc).__name__}: {exc}"),)
        else:
            ctx = OracleContext(system=system, spec=spec, schedule=schedule,
                                state=state)
            violations = tuple(run_oracles(ctx))
        tid = state.get("tid")
        tombstones = {
            name: (lambda o: o.value if o is not None else None)(
                system.tranman(name).tombstones.get(tid)) if tid else None
            for name in system.site_names()}
        return RunResult(spec=spec, schedule=schedule, state=state,
                         violations=violations,
                         signature=run_signature(system, state, tombstones),
                         tombstones=tombstones,
                         end_time=system.kernel.now)
