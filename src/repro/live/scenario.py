"""Scripted scenarios and canonical transcripts for conformance runs.

A :class:`Scenario` is a deterministic list of "site X begins commitment
of a transaction over protocol P" steps; the pacing each substrate
needs is this module's constants.  Both harnesses execute the same
scenario object; the :class:`Transcript` each produces is canonicalized
to per-site-pair FIFO message sequences and compared byte for byte.

Why per-pair FIFO is the right canonical form: TCP (live) and the
jitter-free LAN model (sim) both preserve order *within* a (src, dst)
pair but neither promises a global interleaving across pairs, and the
sans-IO machines only ever observe per-sender order.  Canonicalizing to
the per-pair sequences compares exactly what the protocols can depend
on and nothing the substrate is allowed to vary.

Pacing: the conformance scenario zeroes the simulator's jitter and
gives the live substrate artificial per-hop latency floors
(``LIVE_WIRE_MS`` / ``LIVE_FORCE_FLOOR_MS``) large enough to dominate
real fsync and event-loop noise, so the one genuinely timing-dependent
ordering in the scenario (a Paxos acceptor hearing two RMs' votes)
resolves the same way on both substrates.  DESIGN.md §11 spells out
what this does and does not prove.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Tuple

from repro.config import CostModel
from repro.core.outcomes import Vote
from repro.live.codec import canonical_json, message_to_dict

# Simulated-substrate pacing: the local prepare's delay.
SIM_PREPARE_MS = 5.0
# Live-substrate pacing: artificial latency floors that dominate real IO
# jitter so races resolve as they do under the model.
LIVE_WIRE_MS = 40.0
LIVE_FORCE_FLOOR_MS = 20.0
LIVE_PREPARE_MS = 10.0


class Transcript:
    """Every datagram the tapped engines put on the wire, in send order."""

    def __init__(self) -> None:
        self.entries: List[Tuple[str, str, Any]] = []

    def tap(self, src: str, engine: Any) -> None:
        """Record every message ``engine`` (site ``src``) sends from now
        on: wraps its ``send`` primitive, the one both the interpreter
        and the engine's own replies go through.  The only place a send
        is recorded; an engine nobody tapped retains nothing."""
        wire = engine.send

        def send(dst: str, message: Any) -> None:
            self.entries.append((src, dst, message))
            wire(dst, message)

        engine.send = send

    def pair_sequences(self) -> Dict[str, List[Dict[str, Any]]]:
        """Per ``"src->dst"`` pair, the FIFO sequence of messages."""
        pairs: Dict[str, List[Dict[str, Any]]] = {}
        for src, dst, message in self.entries:
            pairs.setdefault(f"{src}->{dst}", []).append(
                message_to_dict(message))
        return pairs

    def canonical_bytes(self) -> bytes:
        """The byte string conformance compares (sorted pairs, FIFO within)."""
        return canonical_json(self.pair_sequences()).encode("utf-8")


@dataclass
class ScenarioStep:
    at_ms: float                       # offset from scenario start
    site: str                          # coordinator
    protocol: str                      # "2pc" | "nb" | "paxos"
    subordinates: Tuple[str, ...]


@dataclass
class Scenario:
    sites: Tuple[str, ...]
    steps: Tuple[ScenarioStep, ...]
    cost: CostModel
    horizon_ms: float                  # sim run length / live settle deadline
    votes: Dict[str, Vote] = field(default_factory=dict)


def conformance_cost() -> CostModel:
    """The paper's cost model with every random term zeroed."""
    return replace(CostModel(),
                   datagram_jitter_base=0.0,
                   datagram_jitter_per_load=0.0,
                   datagram_send_jitter=0.0)


def conformance_scenario() -> Scenario:
    """One scripted commit per protocol family over a 3-site cluster.

    Steps are spaced far enough apart that each transaction completes
    (machines forgotten, acks flushed) before the next begins, on both
    substrates; each family gets a different coordinator so all sites
    exercise both roles.
    """
    sites = ("alpha", "beta", "gamma")
    steps = (
        ScenarioStep(0.0, "alpha", "2pc", ("beta", "gamma")),
        ScenarioStep(1200.0, "beta", "nb", ("alpha", "gamma")),
        ScenarioStep(2400.0, "gamma", "paxos", ("alpha", "beta")),
    )
    return Scenario(sites=sites, steps=steps, cost=conformance_cost(),
                    horizon_ms=4000.0)


def run_scenario_steps(scenario: Scenario, hosts: Dict[str, Any],
                       at: Callable[[float, Callable[[], None]], Any]) -> None:
    """Schedule each step's ``begin_commit`` via the harness's timer."""
    for step in scenario.steps:
        def fire(s: ScenarioStep = step) -> None:
            hosts[s.site].begin_commit(s.protocol, list(s.subordinates))
        at(step.at_ms, fire)
