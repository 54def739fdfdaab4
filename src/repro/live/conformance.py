"""Conformance: the simulator and the live wire must tell one story.

:func:`run_conformance` executes the same scripted scenario (one commit
per protocol family, see :func:`repro.live.scenario.conformance_scenario`)
three times —

1. :class:`~repro.live.host.SiteHost` on the **simulated** substrate:
   discrete-event kernel, jitter-free LAN model, modelled force latency;
2. ``SiteHost`` on the **live** substrate: several
   :class:`~repro.live.site.LiveSite` instances on one event loop,
   talking real loopback TCP through the frame codec, forcing a real
   fsync-backed WAL file each;
3. the simulated **TranMan** inside a whole
   :class:`~repro.system.CamelotSystem` — the engine every figure,
   chaos verdict and obs attribution comes from —

and asserts the canonicalized transcripts (per site-pair FIFO message
sequences) of 1 and 2 are **byte-identical**: both run one engine, so a
mismatch can only mean the live substrate delivered, ordered, or
serialised something differently than the model.  Leg 3 runs the same
edge and interpreter under the other concurrency model; it must equal
leg 1 byte for byte except for :data:`PINNED_PAXOS`.  DESIGN.md §11
discusses what this does and does not prove.
"""

from __future__ import annotations

import asyncio
import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Tuple

from repro.config import SystemConfig
from repro.core.outcomes import PROTOCOLS, Outcome
from repro.live.codec import canonical_json
from repro.live.scenario import (
    Scenario,
    Transcript,
    conformance_scenario,
    run_scenario_steps,
)
from repro.live.simhost import run_sim_scenario
from repro.live.site import LiveSite
from repro.system import CamelotSystem

# Grace periods for the live run: how long past the last step we keep
# polling for quiescence, and how long a site must *stay* quiescent
# (catches frames still in flight between two idle-looking sites).
SETTLE_DEADLINE_EXTRA_S = 20.0
SETTLE_GRACE_S = 0.4
SETTLE_POLL_S = 0.05


Pairs = Dict[str, List[Dict[str, Any]]]

# The only two places the TranMan may differ from SiteHost: the Pc*
# types each sends, in order, on the Paxos step's leader->subordinate
# pairs, as (SiteHost, TranMan).  Both follow from pool threads against
# one inbox (DESIGN.md §11): the TranMan awaits the leader's own local
# prepare, and the force behind it, before the rest of ``start()`` fans
# PcPrepare out; SiteHost queues the late PcPhase2bs behind its decide
# force and re-answers each.  A change that removes either must delete
# its pin.
PINNED_PAXOS = {
    "gamma->alpha": (["PcPrepare", "PcVote"] + 2 * ["PcOutcome"],
                     ["PcVote", "PcPrepare", "PcOutcome"]),
    "gamma->beta": (["PcPrepare", "PcVote"] + 3 * ["PcOutcome"],
                    ["PcVote", "PcPrepare", "PcOutcome"]),
}


@dataclass
class ConformanceReport:
    match: bool
    sim_bytes: bytes
    live_bytes: bytes
    sim_pairs: Pairs
    live_pairs: Pairs
    live_completions: Dict[str, Dict[str, str]]  # site -> tid -> outcome
    tranman_pairs: Pairs = field(default_factory=dict)
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        legs = (("SiteHost+kernel", self.sim_pairs),
                ("SiteHost+sockets", self.live_pairs),
                ("TranMan+kernel", self.tranman_pairs))
        lines = [f"{name}: {sum(len(v) for v in pairs.values())} messages "
                 f"over {len(pairs)} site-pairs" for name, pairs in legs]
        lines.append(
            f"conformance OK: SiteHost transcripts byte-identical "
            f"({len(self.sim_bytes)} bytes); TranMan equal but for the "
            f"{len(PINNED_PAXOS)} pinned Paxos Commit pairs" if self.match
            else "conformance FAILED:\n  " + "\n  ".join(self.mismatches))
        return "\n".join(lines)


def _diff_pairs(sim: Pairs, other: Pairs, name: str = "live") -> List[str]:
    out: List[str] = []
    for pair in sorted(set(sim) | set(other)):
        a, b = sim.get(pair, []), other.get(pair, [])
        if a == b:
            continue
        if len(a) != len(b):
            out.append(f"{pair}: sim sent {len(a)} messages, {name} {len(b)}")
        for i, (ma, mb) in enumerate(zip(a, b)):
            if ma != mb:
                out.append(f"{pair}[{i}]: sim {ma.get('type')}({ma}) != "
                           f"{name} {mb.get('type')}({mb})")
                break
    return out


def _diff_tranman(host: Pairs, tranman: Pairs) -> List[str]:
    """Equality off the pinned pairs; on them exactly the pinned Pc*
    orders, around equal other traffic and the same distinct messages."""
    def rest(pairs: Pairs) -> Pairs:
        return {p: m for p, m in pairs.items() if p not in PINNED_PAXOS}

    out = _diff_pairs(rest(host), rest(tranman), "tranman")
    for pair, pinned in PINNED_PAXOS.items():
        beyond = []
        for name, pairs, want in zip(("SiteHost", "TranMan"),
                                     (host, tranman), pinned):
            pc = [m for m in pairs[pair] if m["type"].startswith("Pc")]
            if [m["type"] for m in pc] != want:
                out.append(f"{pair}: {name} sent Pc* in another order "
                           f"than the pinned {want}")
            beyond.append(([m for m in pairs[pair] if m not in pc],
                           {canonical_json(m) for m in pc}))
        if beyond[0] != beyond[1]:
            out.append(f"{pair}: legs differ beyond the pinned Pc* order")
    return out


def tranman_leg(scenario: Scenario) -> Tuple[CamelotSystem, Transcript]:
    """The third leg, built and its steps scheduled, not yet run: each
    step is one minimal transaction writing at ``server0`` of the
    coordinator and of every subordinate.  Protocol datagrams are
    recorded at the TranMan's send primitive (ComMan's RPC traffic takes
    another road; nothing here multicasts)."""
    system = CamelotSystem(SystemConfig(
        cost=scenario.cost, sites={site: 1 for site in scenario.sites}))
    transcript = Transcript()
    for site in scenario.sites:
        transcript.tap(site, system.tranman(site))
    for step in scenario.steps:
        body = system.application(step.site).minimal_transaction(
            [f"server0@{site}" for site in (step.site, *step.subordinates)],
            protocol=PROTOCOLS[step.protocol])
        system.kernel.schedule(step.at_ms, system.spawn, body)
    return system, transcript


async def run_live_scenario(scenario: Scenario, run_dir: str,
                            fsync: bool = True) -> ConformanceReport:
    """The live half: returns a report with ``sim_*`` fields empty."""
    os.makedirs(run_dir, exist_ok=True)
    sites: Dict[str, LiveSite] = {}
    for name in scenario.sites:
        sites[name] = LiveSite(
            name, run_dir, cost=scenario.cost,
            wire_ms=scenario.live_wire_ms,
            force_floor_ms=scenario.live_force_floor_ms,
            prepare_ms=scenario.live_prepare_ms,
            votes=dict(scenario.votes), fsync=fsync)
    transcript = Transcript()
    for name, site in sites.items():
        transcript.tap(name, site.host)
        await site.start()
    loop = asyncio.get_running_loop()
    start = loop.time()
    run_scenario_steps(
        scenario, {n: s.host for n, s in sites.items()},
        at=lambda ms, fn: loop.call_later(ms / 1000.0, fn))
    last_step_at = max((s.at_ms for s in scenario.steps), default=0.0)
    deadline = start + (scenario.horizon_ms / 1000.0) + SETTLE_DEADLINE_EXTRA_S
    # Quiesce: all steps fired, then every site stays settled for a grace
    # period (in-flight loopback frames land within it).
    while loop.time() < deadline:
        if loop.time() - start < last_step_at / 1000.0 + SETTLE_POLL_S:
            await asyncio.sleep(SETTLE_POLL_S)
            continue
        if all(s.settled for s in sites.values()):
            await asyncio.sleep(SETTLE_GRACE_S)
            if all(s.settled for s in sites.values()):
                break
        await asyncio.sleep(SETTLE_POLL_S)
    live_pairs = transcript.pair_sequences()
    completions = {name: {t: o.value for t, o in s.host.completions.items()}
                   for name, s in sites.items()}
    for site in sites.values():
        await site.stop()
    return ConformanceReport(
        match=False, sim_bytes=b"",
        live_bytes=canonical_json(live_pairs).encode("utf-8"),
        sim_pairs={}, live_pairs=live_pairs, live_completions=completions)


def run_conformance(run_dir: str, fsync: bool = True) -> ConformanceReport:
    """Run all three legs over the conformance scenario and compare."""
    scenario = conformance_scenario()
    sim_transcript = run_sim_scenario(scenario)
    sim_pairs = sim_transcript.pair_sequences()
    sim_bytes = sim_transcript.canonical_bytes()
    live = asyncio.run(run_live_scenario(scenario, run_dir, fsync=fsync))
    system, tranman_transcript = tranman_leg(scenario)
    system.run_for(scenario.horizon_ms)
    report = ConformanceReport(
        match=sim_bytes == live.live_bytes,
        sim_bytes=sim_bytes, live_bytes=live.live_bytes,
        sim_pairs=sim_pairs, live_pairs=live.live_pairs,
        live_completions=live.live_completions,
        tranman_pairs=tranman_transcript.pair_sequences())
    if not report.match:
        report.mismatches = _diff_pairs(sim_pairs, live.live_pairs)
        if not report.mismatches:
            report.mismatches = ["transcripts differ but per-pair diff "
                                 "found nothing (ordering of pairs?)"]
    tranman_diff = _diff_tranman(sim_pairs, report.tranman_pairs)
    if tranman_diff:
        report.match = False
        report.mismatches += tranman_diff
    _check_outcomes(report, scenario)
    return report


def _check_outcomes(report: ConformanceReport, scenario: Scenario) -> None:
    """All scripted transactions must commit everywhere they ran."""
    for step in scenario.steps:
        for site, completions in report.live_completions.items():
            if site != step.site and site not in step.subordinates:
                continue
            outcomes = set(completions.values())
            if Outcome.ABORTED.value in outcomes:
                report.match = False
                report.mismatches.append(
                    f"live: site {site} aborted a scripted transaction")
                return
