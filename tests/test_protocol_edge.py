"""The protocol edge without a host: ``repro.core.edge.ProtocolEdge``.

The stateless table below was written from the parent commit's
``TransactionManager._stateless`` (and checked cell by cell against a
run of it on a stub TranMan); ``known`` is the one fact the two hosts
answer differently — ``families.family_of(tid) is not None`` in the
simulator, ``not conservative`` on a live site.
"""

import pytest

from repro.config import CostModel
from repro.core.edge import PledgeAck, ProtocolEdge
from repro.core.effects import ForceLog, SendDatagram, Trace
from repro.core.messages import (
    ANY_MESSAGE,
    FamilyAbort,
    NbAbortJoin,
    NbAbortJoinAck,
    NbOutcome,
    NbOutcomeAck,
    NbPrepare,
    NbReplicate,
    NbReplicateAck,
    NbStateReport,
    NestedCommit,
    PcOutcome,
    PcOutcomeAck,
    PcP1a,
    PcP1b,
    PcP2a,
    PcPhase2b,
    PcPrepare,
    PcVote,
    TxnInquiry,
)
from repro.core.nonblocking import NbCoordinator
from repro.core.outcomes import Outcome, ProtocolKind, TwoPhaseVariant
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.live.host import SiteHost
from repro.live.simhost import build_sim_cluster
from repro.log.records import abort_pledge_record
from repro.obs.spans import SpanRecorder
from repro.servers.recovery import RecoveryPlan

SITE, PEER = "b", "a"
SITES = ("a", "b", "c")
T = TID("T1@a")
STATES = ("none", "committed", "aborted", "pledged", "read_only")


def make(cls):
    """One message of ``cls`` about ``T`` from ``PEER``, fully configured."""
    extra = {}
    if cls is NbPrepare:
        extra = {"sites": SITES, "quorum": QuorumSpec.majority(3)}
    elif cls is NbReplicate:
        extra = {"decision_data": {
            "coordinator": PEER, "sites": list(SITES),
            "quorum": QuorumSpec.majority(3).to_dict()}}
    elif cls in (PcPrepare, PcVote, PcP1a, PcP2a):
        extra = {"sites": SITES, "acceptors": SITES}
        if cls is not PcPrepare:
            extra["leader"] = PEER
    return cls(tid=T, sender=PEER, **extra)


def make_edge(state="none", known=True, active=False):
    edge = ProtocolEdge(SITE, CostModel(), family_known=lambda tid: known,
                        txn_active=lambda tid: active, now=lambda: 0.0)
    if state in ("committed", "aborted"):
        edge.tombstones[str(T)] = Outcome(state)
    elif state == "pledged":
        edge.pledges.add(str(T))
    elif state == "read_only":
        edge.read_only_votes.add(str(T))
    return edge


def _arg(message):
    for name in ("vote", "ok", "outcome", "status"):
        value = getattr(message, name, None)
        if value is not None:
            return f"({getattr(value, 'value', value)})"
    return ""


def describe(edge, pmsg):
    """What the edge does with ``pmsg``, as one comparable string."""
    if edge.for_servers(pmsg):
        return "servers"
    try:
        replies, steps = edge.route(pmsg)
    except AssertionError:
        return "AssertionError"
    parts = [f"{type(m).__name__}{_arg(m)}->{dst}" for dst, m in replies]
    if steps:
        machine = steps[0][0]
        assert all(m is machine for m, _ in steps)
        effects = [e for _, thunk in steps for e in thunk()]
        if isinstance(machine, PledgeAck):
            assert pmsg.tid not in edge.machines
            parts.append("force:" + "".join(
                e.record.kind.value for e in effects
                if isinstance(e, ForceLog)))
        else:
            assert edge.machines[pmsg.tid] is machine
            traces = "".join(f"+{e.kind}" for e in effects
                             if isinstance(e, Trace)
                             and e.kind == "pc.acceptor_rebuilt")
            parts.append(f"spawn:{type(machine).__name__}/{len(steps)}"
                         f"{traces}")
    return ",".join(parts) or "-"


# type name -> {state: expectation}; "*" is every state not listed; a
# pair is (family known, family unknown).
_ACCEPTOR_DUTY = {
    "committed": "PcOutcome(committed)->a",
    "aborted": "PcOutcome(aborted)->a",
    "*": ("spawn:PcParticipant/2",
          "spawn:PcParticipant/1+pc.acceptor_rebuilt")}
TABLE = {
    "PrepareRequest": {
        "committed": "CommitAck->a",
        "read_only": "VoteResponse(read_only)->a",
        "aborted": "VoteResponse(no)->a",
        "*": ("spawn:TwoPhaseSubordinate/1", "VoteResponse(no)->a")},
    "NbPrepare": {
        "committed": "NbOutcomeAck->a",
        "read_only": "NbVote(read_only)->a",
        "aborted": "NbVote(no)->a",
        # A pledge stands in for lost family state: the participant is
        # rebuilt already pledged rather than refused.
        "pledged": "spawn:NbSubordinate/1",
        "none": ("spawn:NbSubordinate/1", "NbVote(no)->a")},
    "CommitNotice": {"committed": "CommitAck->a", "*": "-"},
    "AbortNotice": {"*": "-"},
    "TxnInquiry": {"committed": "InquiryResponse(committed)->a",
                   "*": "InquiryResponse(aborted)->a"},
    "NbReplicate": {"pledged": "NbReplicateAck(False)->a",
                    "aborted": "NbReplicateAck(False)->a",
                    "committed": "NbReplicateAck(True)->a",
                    "*": "spawn:NbSubordinate/1"},
    "NbAbortJoin": {"committed": "NbAbortJoinAck(False)->a",
                    "pledged": "NbAbortJoinAck(True)->a",
                    "aborted": "NbAbortJoinAck(True)->a",
                    "*": "force:abort_pledge"},
    "NbStateRequest": {"committed": "NbStateReport(committed)->a",
                       "aborted": "NbStateReport(aborted)->a",
                       "pledged": "NbStateReport(abort_pledged)->a",
                       "*": "NbStateReport(no_state)->a"},
    # make() builds outcome=COMMITTED: an ABORTED tombstone conflicts.
    "NbOutcome": {"aborted": "AssertionError", "*": "NbOutcomeAck->a"},
    "PcOutcome": {"aborted": "AssertionError", "*": "PcOutcomeAck->a"},
    "PcPrepare": {
        "committed": "PcOutcomeAck->a",
        "read_only": "PcVote(read_only)->a,PcVote(read_only)->c",
        "aborted": "PcOutcome(aborted)->a",
        "*": ("spawn:PcParticipant/1", "-")},
    "PcVote": _ACCEPTOR_DUTY, "PcP1a": _ACCEPTOR_DUTY, "PcP2a": _ACCEPTOR_DUTY,
    "NestedCommit": {"*": "servers"},
    "FamilyAbort": {"*": "servers"},
}
_STALE = ("VoteResponse", "NbVote", "CommitAck", "NbReplicateAck",
          "NbAbortJoinAck", "NbOutcomeAck", "NbStateReport", "FamilyAbortAck",
          "InquiryResponse", "PcPhase2b", "PcP1b", "PcOutcomeAck")


def expected(type_name, state, known):
    if type_name in _STALE:
        return "-"
    row = TABLE[type_name]
    cell = row[state] if state in row else row["*"]
    return cell if isinstance(cell, str) else cell[0 if known else 1]


CELLS = [(cls, state, known) for cls in ANY_MESSAGE for state in STATES
         for known in (True, False)]


class TestStatelessTable:
    def test_table_covers_every_message_type(self):
        assert {cls.__name__ for cls in ANY_MESSAGE} == set(TABLE) | set(_STALE)

    @pytest.mark.parametrize(
        "cls,state,known", CELLS,
        ids=[f"{c.__name__}-{s}-{'known' if k else 'unknown'}"
             for c, s, k in CELLS])
    def test_cell(self, cls, state, known):
        edge = make_edge(state, known)
        assert describe(edge, make(cls)) == expected(cls.__name__, state, known)

    def test_inquiry_about_a_running_transaction_is_not_answered(self):
        assert describe(make_edge(active=True), make(TxnInquiry)) == "-"
        # ... but a tombstone always is.
        assert describe(make_edge("committed", active=True),
                        make(TxnInquiry)) == "InquiryResponse(committed)->a"

    def test_aborted_outcome_conflicts_with_committed_tombstone(self):
        for cls in (NbOutcome, PcOutcome):
            pmsg = cls(tid=T, sender=PEER, outcome=Outcome.ABORTED)
            with pytest.raises(AssertionError, match="conflicts"):
                make_edge("committed").route(pmsg)
            assert describe(make_edge("aborted"), pmsg).endswith("Ack->a")

    def test_acceptor_traffic_to_a_non_acceptor_is_dropped(self):
        pmsg = PcP1a(tid=T, sender=PEER, leader=PEER, sites=SITES,
                     acceptors=("a",))
        assert describe(make_edge(), pmsg) == "-"

    def test_servers_traffic_with_a_machine_goes_to_the_machine(self):
        edge = make_edge()
        edge.machines[T] = _Stub("initiator", [])
        for cls in (NestedCommit, FamilyAbort):
            assert not edge.for_servers(make(cls))


class _Stub:
    def __init__(self, name, log):
        self.name, self.log, self.tid = name, log, T

    def on_message(self, message):
        self.log.append(self.name)
        return []


def _run(steps):
    for _, thunk in steps:
        thunk()


class TestRoutingOrder:
    def _edge(self):
        log = []
        edge = make_edge()
        edge.machines[T] = _Stub("participant", log)
        edge.takeovers[T] = _Stub("takeover", log)
        return edge, log

    @pytest.mark.parametrize("cls", [NbOutcome, PcOutcome])
    def test_outcome_reaches_participant_then_takeover(self, cls):
        edge, log = self._edge()
        replies, steps = edge.route(make(cls))
        assert not replies and log == []  # thunks not called yet
        assert [m.name for m, _ in steps] == ["participant", "takeover"]
        _run(steps)
        assert log == ["participant", "takeover"]

    @pytest.mark.parametrize("cls", [NbOutcome, PcOutcome])
    def test_outcome_with_only_a_takeover(self, cls):
        edge, log = self._edge()
        del edge.machines[T]
        _run(edge.route(make(cls))[1])
        assert log == ["takeover"]

    def test_phase2b_ballot_zero_is_the_leaders_election_ballot_the_candidates(self):
        edge, log = self._edge()
        _run(edge.route(PcPhase2b(tid=T, sender=PEER, ballot=0))[1])
        _run(edge.route(PcPhase2b(tid=T, sender=PEER, ballot=4))[1])
        assert log == ["participant", "takeover"]

    @pytest.mark.parametrize("cls", [NbStateReport, NbReplicateAck,
                                     NbAbortJoinAck, NbOutcomeAck, PcP1b,
                                     PcOutcomeAck])
    def test_takeover_responses_go_to_the_takeover(self, cls):
        edge, log = self._edge()
        _run(edge.route(make(cls))[1])
        assert log == ["takeover"]
        # Without a takeover they are the participant's.
        del edge.takeovers[T]
        _run(edge.route(make(cls))[1])
        assert log == ["takeover", "participant"]


class TestNeverBothQuorums:
    """The pledge rule, once: refused to the commit quorum from the
    record's append, promised to the abort quorum only once forced."""

    def _pledging_edge(self):
        edge = make_edge()
        replies, steps = edge.route(make(NbAbortJoin))
        assert not replies
        (pledge, thunk), = steps
        (force,) = thunk()
        assert isinstance(force, ForceLog)
        # What every host does on append, before the force is awaited:
        assert edge.note_membership(force.record) is None
        return edge, pledge, force

    def test_replicate_during_the_pledge_force_is_refused(self):
        edge, _, _ = self._pledging_edge()
        replies, steps = edge.route(make(NbReplicate))
        assert not steps and T not in edge.machines  # no helper
        (dst, ack), = replies
        assert dst == PEER and isinstance(ack, NbReplicateAck) and not ack.ok

    def test_second_abort_join_is_acked_only_after_the_force(self):
        edge, pledge, force = self._pledging_edge()
        again = NbAbortJoin(tid=T, sender="c")
        assert edge.route(again) == ((), ())
        effects = pledge.on_log_forced(force.token)
        assert [e.kind for e in effects if isinstance(e, Trace)] == [
            "nb.stateless_pledge"]
        acks = [(e.dst, e.message.ok) for e in effects
                if isinstance(e, SendDatagram)]
        assert acks == [(PEER, True), ("c", True)]
        # Durable now: a third asker is answered at once.
        assert describe(edge, again) == "NbAbortJoinAck(True)->c"

    def test_simulated_tranman_refuses_replicate_inside_the_force_window(
            self, two_sites):
        system = two_sites
        spans = SpanRecorder()
        system.tracer.attach_obs(spans)
        tm = system.tranman("b")
        system.runtimes["a"].dgram.send("b", make(NbAbortJoin))
        system.kernel.schedule(
            4.0, lambda: system.runtimes["a"].dgram.send("b", make(NbReplicate)))
        system.kernel.run(until=200.0)

        def when(kind, **detail):
            (event,) = [e for e in system.tracer.of_kind(kind)
                        if e.site == "b" and detail.items() <= e.detail.items()]
            return event.time
        # The replicate really did land inside the pledge's force window...
        assert (when("log.append", kind_of="abort_pledge")
                < when("tranman.dgram_in", kind_of="NbReplicate")
                < when("nb.stateless_pledge"))
        # ... and found the pledge: no helper, no replication record.
        assert T not in tm.machines and str(T) in tm.pledges
        assert not [e for e in system.tracer.of_kind("log.append")
                    if e.detail["kind_of"] == "replication"]
        forces = [s for s in spans.spans if s.kind == "log.force"]
        assert [(s.site, s.detail["record_kind"]) for s in forces] == [
            ("b", "abort_pledge")]


class TestOneConstructor:
    def test_sim_and_live_arguments_build_the_same_machines(self):
        """``TransactionManager._commit`` passes a sorted list without
        itself plus every option; ``SiteHost.begin_commit`` passes the
        driver's list and a variant."""
        for protocol in ProtocolKind:
            for variant in TwoPhaseVariant:
                sim = make_edge().coordinator(
                    T, ["a", "c", "d"], protocol, variant=variant,
                    quorum_policy="majority", use_multicast=False)
                live = make_edge().coordinator(
                    T, ["d", "b", "c", "a"], protocol, variant=variant)
                assert type(sim) is type(live)
                assert sim.subordinates == live.subordinates == ["a", "c", "d"]
                if protocol is ProtocolKind.PAXOS_COMMIT:
                    # Leader-first odd prefix of four sites: N=3, F=1.
                    assert sim.acceptors == live.acceptors == ["b", "a", "c"]
                if protocol is ProtocolKind.TWO_PHASE:
                    assert sim.variant is live.variant is variant

    def test_unknown_quorum_policy_is_rejected(self):
        with pytest.raises(ValueError, match="quorum policy"):
            make_edge().coordinator(T, ["a"], ProtocolKind.NON_BLOCKING,
                                    quorum_policy="unanimous")

    def test_live_coordinator_honours_a_recovered_pledge(self):
        """A SiteHost that read an abort pledge back from its WAL must
        not drive that transaction to commit."""
        kernel, hosts, _ = build_sim_cluster(list(SITES), CostModel())
        host: SiteHost = hosts["a"]
        host.recover_from_plan(RecoveryPlan(site="a", pledges={str(T)}))
        host.begin_commit("nb", ["b", "c"], tid=T)
        machine = host.machines[T]
        assert isinstance(machine, NbCoordinator) and machine.already_pledged
        kernel.run(until=10_000.0)
        assert host.completions[str(T)] is Outcome.ABORTED
        assert all(h.tombstones.get(str(T)) is not Outcome.COMMITTED
                   for h in hosts.values())


class TestRetireLog:
    """One log, one horizon (orphan + protocol timeout, 31.5 s at the
    defaults), read on whatever clock the host hands the edge."""

    def test_the_horizon_runs_from_a_transactions_newest_record(self):
        clock = [0.0]
        edge = ProtocolEdge(SITE, CostModel(), family_known=lambda tid: True,
                            txn_active=lambda tid: False,
                            now=lambda: clock[0])
        edge.note_membership(abort_pledge_record("T1@a", SITE))
        clock[0] = 31_000.0     # a takeover decides, long after the pledge
        edge.note_outcome("T1@a", Outcome.ABORTED)
        clock[0] = 31_600.0     # the pledge's own horizon has passed
        edge.note_read_only("T2@a")
        assert edge.tombstones["T1@a"] is Outcome.ABORTED
        assert "T1@a" in edge.pledges
        clock[0] = 31_000.0 + 31_500.0 + 1.0
        edge.note_completion("T3@a", Outcome.COMMITTED)
        assert "T1@a" not in edge.tombstones and "T1@a" not in edge.pledges
        assert "T2@a" in edge.read_only_votes
        clock[0] = 31_600.0 + 31_500.0 + 1.0
        edge.note_outcome("T4@a", Outcome.COMMITTED)
        assert not edge.read_only_votes
        assert edge.completions == {"T3@a": Outcome.COMMITTED}
        assert edge.tombstones == {"T4@a": Outcome.COMMITTED}
