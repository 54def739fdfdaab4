"""The capstone: one scripted scenario, two substrates, byte-identical
transcripts for all three protocol families — and the simulated TranMan
that draws the figures as a third leg.

``run_conformance`` executes the scenario under the simulated LAN
(deterministic kernel, jitter-free cost model) and under live loopback
TCP (real sockets, real frame codec, real fsync-backed WALs) with the
shared :class:`repro.live.host.SiteHost` engine on both sides, then
compares the canonicalized per-site-pair transcripts as bytes; the
TranMan leg must equal them too, but for two pinned consequences of its
thread pool.  These tests assert the equality itself plus the
properties that make it meaningful: all three families actually appear
on the wire, and the live run really did go through TCP and on-disk
WALs."""

import asyncio
import copy
import dataclasses
import json

import pytest

from repro.core.effects import ForceLog, Trace
from repro.core.messages import NbOutcome
from repro.core.outcomes import Vote
from repro.core.tid import TID
from repro.live.conformance import (
    PINNED_PAXOS,
    _diff_tranman,
    run_conformance,
    run_live_scenario,
    tranman_leg,
)
from repro.live.scenario import (
    Scenario,
    ScenarioStep,
    conformance_cost,
    conformance_scenario,
    run_scenario_steps,
)
from repro.live.host import SiteHost, Substrate
from repro.live.simhost import build_sim_cluster, run_sim_scenario
from repro.live.walfile import MemoryWal, read_records
from repro.log.records import commit_record
from repro.sim.tracing import Tracer


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    """One full conformance run shared by the assertions below (the live
    half costs a few wall-clock seconds)."""
    run_dir = tmp_path_factory.mktemp("conformance")
    return run_conformance(str(run_dir), fsync=True)


class TestByteIdentical:
    def test_transcripts_match(self, report):
        assert report.match, report.summary()
        assert report.sim_bytes == report.live_bytes
        assert len(report.sim_bytes) > 1000  # a real transcript, not []

    def test_all_three_families_on_the_wire(self, report):
        kinds = {m["type"] for msgs in report.sim_pairs.values()
                 for m in msgs}
        assert "PrepareRequest" in kinds        # 2PC
        assert "NbPrepare" in kinds             # non-blocking quorum
        assert "PcPrepare" in kinds and "PcPhase2b" in kinds  # Paxos
        # And the live wire carried the same vocabulary, by equality.
        assert report.sim_pairs == report.live_pairs

    def test_canonical_form_is_per_pair_fifo(self, report):
        decoded = json.loads(report.sim_bytes)
        assert set(decoded) == set(report.sim_pairs)
        for pair, msgs in decoded.items():
            src, dst = pair.split("->")
            assert src != dst  # self-delivery never crosses the wire
            assert all(m["type"] for m in msgs)

    def test_every_transaction_committed_live(self, report):
        for site, completions in report.live_completions.items():
            for tid, outcome in completions.items():
                assert outcome == "committed", (site, tid, outcome)


def _of(pairs, pair, *tids):
    return [m["type"] for m in pairs[pair] if m["tid"] in tids]


class TestTranManLeg:
    """The engine behind every figure runs the same edge and interpreter
    under a thread pool instead of one inbox; that parameter may cost
    exactly two differences, both on the Paxos Commit step."""

    def test_two_phase_and_non_blocking_are_byte_identical(self, report):
        host = {pair: [m for m in msgs if m["tid"] != "T1@gamma"]
                for pair, msgs in report.sim_pairs.items()}
        tranman = {pair: [m for m in msgs if m["tid"] != "T1@gamma"]
                   for pair, msgs in report.tranman_pairs.items()}
        assert sum(len(msgs) for msgs in host.values()) == 20
        assert tranman == host

    def test_two_phase_and_non_blocking_are_accounted_alike(self):
        """The interpreter accounts a send, not the engine under it: on
        the 20 messages both legs put on the wire byte for byte, each
        site's §3.2 counts read the same from the TranMan's tracer as
        from each ``SiteHost`` substrate's, and the totals through one
        call, ``Tracer.count``, on both engines' recorders."""
        scenario = conformance_scenario()
        scenario = dataclasses.replace(
            scenario, steps=scenario.steps[:2],
            horizon_ms=scenario.steps[2].at_ms)
        kinds = ("tranman.datagram", "tranman.piggyback")

        system, transcript = tranman_leg(scenario)
        system.run_for(scenario.horizon_ms)
        tranman = {site: {kind: sum(1 for e in system.tracer.of_kind(kind)
                                    if e.site == site) for kind in kinds}
                   for site in scenario.sites}

        kernel, hosts, host_transcript = build_sim_cluster(
            list(scenario.sites), scenario.cost)
        for host in hosts.values():
            host.start_sweeps()
        run_scenario_steps(scenario, hosts, at=kernel.schedule)
        kernel.run(until=scenario.horizon_ms)
        host = {site: {kind: hosts[site].substrate.tracer.count(kind)
                       for kind in kinds} for site in scenario.sites}

        assert len(transcript.entries) == len(host_transcript.entries) == 20
        assert tranman == host
        assert {kind: system.tracer.count(kind) for kind in kinds} == \
            {kind: sum(h.substrate.tracer.count(kind) for h in hosts.values())
             for kind in kinds}
        assert sum(sum(counts.values()) for counts in host.values()) == 20

    def test_pin_leader_prepare_fanout_waits_for_its_own_vote(self, report):
        """``PcLeader.start()`` emits ``LocalPrepare`` first; the TranMan
        awaits it, and the prepare force behind it, inline."""
        for pair in ("gamma->alpha", "gamma->beta"):
            assert _of(report.sim_pairs, pair, "T1@gamma")[:2] == \
                ["PcPrepare", "PcVote"]
            assert _of(report.tranman_pairs, pair, "T1@gamma")[:2] == \
                ["PcVote", "PcPrepare"]

    def test_pin_inputs_queued_behind_a_force_cost_redundant_outcomes(
            self, report):
        """A force parks its family on SiteHost: the late ``PcPhase2b``s
        are the leader's family, queue behind the decide force and are
        each re-answered."""
        def outcomes(pairs):
            return [_of(pairs, pair, "T1@gamma").count("PcOutcome")
                    for pair in ("gamma->alpha", "gamma->beta")]

        assert outcomes(report.sim_pairs) == [2, 3]
        assert outcomes(report.tranman_pairs) == [1, 1]
        assert sum(len(m) for m in report.sim_pairs.values()) == 39
        assert sum(len(m) for m in report.tranman_pairs.values()) == 36

    def test_a_vanished_pin_or_any_other_difference_fails(self, report):
        host, tranman = report.sim_pairs, report.tranman_pairs
        assert _diff_tranman(host, tranman) == []
        # Either pinned difference gone: the pin must be deleted.
        assert len(_diff_tranman(host, host)) == len(PINNED_PAXOS)
        # Any other difference, on a pinned pair or off it.
        for pair, index in (("gamma->alpha", -1), ("alpha->beta", 0)):
            other = copy.deepcopy(tranman)
            other[pair][index]["sender"] = "mallory"
            assert _diff_tranman(host, other)


class TestSimDeterminism:
    def test_sim_half_is_bit_stable(self):
        s = conformance_scenario()
        assert run_sim_scenario(s).canonical_bytes() == \
            run_sim_scenario(s).canonical_bytes()


class TestLiveSubstrateWasReal:
    def test_live_wals_hit_disk(self, report, tmp_path_factory):
        """Not a mock: each live site left a readable WAL with the
        protocol's records in it."""
        # The module fixture used its own dir; run a tiny live-only
        # scenario here so we can inspect the files it leaves.
        run_dir = tmp_path_factory.mktemp("wals")
        scenario = Scenario(
            sites=("alpha", "beta"),
            steps=(ScenarioStep(0.0, "alpha", "2pc", ("beta",)),),
            cost=conformance_cost(), horizon_ms=1500.0)
        asyncio.run(run_live_scenario(scenario, str(run_dir)))
        alpha = read_records(str(run_dir / "alpha.wal"))
        beta = read_records(str(run_dir / "beta.wal"))
        assert any(r.kind.name == "COORD_COMMIT" for r in alpha)
        assert any(r.kind.name == "PREPARE" for r in beta)


class TestDivergenceIsDetected:
    def test_vote_change_breaks_equality(self, tmp_path):
        """Sanity check on the oracle itself: a scenario whose live half
        votes differently than the sim half must NOT conform — byte
        equality is falsifiable, not vacuous."""
        scenario = Scenario(
            sites=("alpha", "beta"),
            steps=(ScenarioStep(0.0, "alpha", "2pc", ("beta",)),),
            cost=conformance_cost(), horizon_ms=1500.0)
        sim_bytes = run_sim_scenario(scenario).canonical_bytes()
        scenario_no = Scenario(
            sites=scenario.sites, steps=scenario.steps,
            cost=scenario.cost, horizon_ms=scenario.horizon_ms,
            votes={"beta": Vote.NO})
        live = asyncio.run(run_live_scenario(scenario_no, str(tmp_path)))
        assert live.live_bytes != sim_bytes


class _LoggedCounts(dict):
    """Counters that append each counted kind to a shared log."""

    def __init__(self, log):
        super().__init__()
        self.log = log

    def __missing__(self, kind):
        return 0

    def __setitem__(self, kind, value):
        self.log.append(kind)
        super().__setitem__(kind, value)


class _RecordingSubstrate(Substrate):
    """Logs traces; holds each force until the test releases it."""

    def __init__(self, log):
        self.forces = []
        self.wal = MemoryWal()
        self.tracer = Tracer(keep=False)
        self.tracer.counters = _LoggedCounts(log)

    def now(self):
        return 0.0

    def force(self, lsn, done):
        self.forces.append(done)


class _StubMachine:
    def __init__(self, name, tid, log, effects):
        self.name, self.tid, self.log, self.effects = name, tid, log, effects

    def on_message(self, message):
        self.log.append(f"{self.name}.on_message")
        return list(self.effects)

    def on_log_forced(self, token):
        return [Trace(f"{self.name}.forced")]


class TestOutcomeRoutingOrder:
    def test_participant_runs_to_quiescence_before_takeover(self):
        """An outcome for a site holding both a participant and a
        takeover goes to the participant first, force wait included, and
        the takeover's ``on_message`` is not even called until then —
        the order ``TransactionManager._on_datagram`` produces."""
        log = []
        substrate = _RecordingSubstrate(log)
        host = SiteHost("beta", substrate, conformance_cost())
        tid = TID("T1@alpha")
        host.machines[tid] = _StubMachine(
            "participant", tid, log,
            [ForceLog(commit_record(str(tid), "beta"), "tok"),
             Trace("participant.effect")])
        host.takeovers[tid] = _StubMachine(
            "takeover", tid, log, [Trace("takeover.effect")])

        host.deliver("alpha", NbOutcome(tid=tid, sender="alpha"))
        assert log == ["participant.on_message"]  # parked on the force
        substrate.forces.pop()()
        assert log == ["participant.on_message", "participant.forced",
                       "participant.effect",
                       "takeover.on_message", "takeover.effect"]
