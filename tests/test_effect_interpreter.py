"""The effect interpreter without an engine.

:mod:`repro.core.interpreter` executes machine effects for both engines
(the simulated TranMan and the live ``SiteHost``).  These tests drive it
over a recording fake of the :class:`~repro.core.interpreter.Engine`
primitives, answering its waits by hand, so the rules both
engines used to imply — handler coverage, depth-first force
continuations, piggyback flushing, the timer table, step ordering — are
tested where they are written.
"""

import inspect
from functools import partial
from types import SimpleNamespace

import pytest

from repro.config import CostModel, wan_profile
from repro.core import abortproto, nonblocking, notify, paxoscommit, twophase
from repro.core import effects as fx
from repro.core.edge import ProtocolEdge
from repro.core.interpreter import (
    HANDLERS,
    WITHHELD,
    Interpreter,
)
from repro.core.messages import (
    CommitAck,
    NbOutcome,
    NbPrepare,
    PcPrepare,
    PrepareRequest,
)
from repro.core.outcomes import Outcome, ProtocolKind, Vote
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.log.records import (
    commit_record,
    coordinator_commit_record,
    paxos_acceptor_record,
    paxos_decision_record,
    paxos_prepare_record,
    prepare_record,
)
from repro.servers.recovery import analyze, build_machines

T1 = TID("T1@alpha")


class FakeEngine:
    """Records every primitive call; its waits yield one request each
    and return whatever answer the test sends back."""

    def __init__(self):
        self.log = []
        self.timers = {}          # live handle -> fn
        self.delays = []          # every delay a timer was armed with
        self.spawned = []         # (step, label)
        self.prepare_inline = False  # local_prepare returns a wait
        self._handles = 0

    def send(self, dst, message):
        self.log.append(("send", dst, message))

    def multicast(self, dsts, message):
        self.log.append(("multicast", tuple(dsts), message))

    def append(self, record):
        self.log.append(("append", record.kind.value))
        return 7

    def force(self, lsn, record, token):
        return (yield ("force", lsn, token))

    def watch_durable(self, lsn, fn):
        self.log.append(("watch_durable", lsn))

    def start_timer(self, delay_ms, fn):
        self.delays.append(delay_ms)
        self._handles += 1
        self.timers[self._handles] = fn
        # ``cancel()`` is all the interpreter may ask of a handle.
        return SimpleNamespace(cancel=partial(self._cancel, self._handles))

    def _cancel(self, handle):
        self.log.append(("cancel_timer", handle))
        del self.timers[handle]

    def trace(self, kind, detail):
        self.log.append(("trace", kind, detail))

    def defer(self, note):
        note()

    def spawn(self, step, label):
        self.spawned.append((step, label))

    def local_prepare(self, machine, effect):
        return self._votes() if self.prepare_inline else None

    def _votes(self):
        return (yield "votes")

    def local_commit(self, tid):
        self.log.append(("local_commit", tid))

    def local_abort(self, tid):
        self.log.append(("local_abort", tid))

    def completed(self, tid, outcome):
        self.log.append(("completed", tid, outcome))

    def forgotten(self, tid):
        self.log.append(("forgotten", tid))

    def traces(self):
        return [entry[1] for entry in self.log if entry[0] == "trace"]


class StubMachine:
    """Answers every continuation with one Trace naming it."""

    def __init__(self, name="m", tid=T1, on_message=()):
        self.name, self.tid, self._on_message = name, tid, list(on_message)
        self.calls = []

    def on_message(self, message):
        self.calls.append("on_message")
        return list(self._on_message)

    def on_log_forced(self, token):
        return [fx.Trace(f"{self.name}.forced.{token}")]

    def on_local_prepared(self, vote):
        return [fx.Trace(f"{self.name}.prepared.{vote.value}")]

    def on_timer(self, token):
        return [fx.Trace(f"{self.name}.timer.{token}")]


@pytest.fixture
def rig():
    engine = FakeEngine()
    edge = ProtocolEdge("beta", CostModel(), family_known=lambda tid: True,
                        txn_active=lambda tid: False, now=lambda: 0.0)
    return engine, edge, Interpreter(edge, engine, 1000.0)


def finish(run, answer=None):
    """Drive ``run`` to its end, answering every wait with ``answer``."""
    waits = []
    try:
        waits.append(next(run))
        while True:
            waits.append(run.send(answer))
    except StopIteration:
        return waits


def force(token="tok"):
    return fx.ForceLog(commit_record(str(T1), "beta"), token)


# ------------------------------------------------------- handler table


def test_every_concrete_effect_has_exactly_one_handler():
    concrete = {cls for _, cls in inspect.getmembers(fx, inspect.isclass)
                if issubclass(cls, fx.Effect) and cls is not fx.Effect}
    assert len(concrete) == 14
    assert set(HANDLERS) == concrete


def test_unregistered_effect_raises(rig):
    class Bogus(fx.Effect):
        pass

    _, _, interp = rig
    with pytest.raises(ValueError, match="unknown effect"):
        finish(interp.run(None, [Bogus()]))


# ------------------------------------------------- waits, depth first


def test_force_continuation_runs_before_the_rest_of_the_batch(rig):
    engine, _, interp = rig
    run = interp.run(StubMachine(), [force(), fx.Trace("after")])
    assert next(run) == ("force", 7, "tok")   # the engine's own wait
    assert engine.log == [("append", "commit")]  # parked: nothing ran yet
    assert finish(run) == []
    assert engine.traces() == ["m.forced.tok", "after"]


def test_withheld_force_skips_only_the_continuation(rig):
    engine, _, interp = rig
    finish(interp.run(StubMachine(), [force(), fx.Trace("after")]),
           answer=WITHHELD)
    assert engine.traces() == ["after"]


def test_local_prepare_awaited_inline_or_left_to_the_engine(rig):
    engine, edge, interp = rig
    batch = [fx.LocalPrepare(T1), fx.Trace("after")]
    # No wait: the vote will come back as an input of its own.
    assert finish(interp.run(StubMachine(), batch)) == []
    assert engine.traces() == ["after"]
    finish(interp.local_prepared(StubMachine(), T1, Vote.YES))
    assert engine.traces() == ["after", "m.prepared.yes"]
    assert not edge.read_only_votes
    # A wait: what it returns resumes the machine before "after".
    del engine.log[:]
    engine.prepare_inline = True
    assert finish(interp.run(StubMachine(), batch),
                  answer=Vote.READ_ONLY) == ["votes"]
    assert engine.traces() == ["m.prepared.read_only", "after"]
    assert edge.read_only_votes == {str(T1)}


# ----------------------------------------------------- piggyback queue


def test_send_flushes_that_destinations_lazy_queue_first(rig):
    engine, _, interp = rig
    ack = CommitAck(tid=T1, sender="beta")
    ack2 = CommitAck(tid=TID("T2@gamma"), sender="beta")
    outcome = NbOutcome(tid=T1, sender="beta")
    finish(interp.run(None, [fx.LazySendDatagram("alpha", ack),
                             fx.LazySendDatagram("gamma", ack2)]))
    assert engine.log == [] and interp.lazy_pending
    finish(interp.run(None, [fx.SendDatagram("alpha", outcome)]))
    # The interpreter accounts each send, immediately before it.
    assert engine.log == [
        ("trace", "tranman.piggyback", {"dst": "alpha"}),
        ("send", "alpha", ack),
        ("trace", "tranman.datagram", {"dst": "alpha",
                                       "kind_of": "NbOutcome"}),
        ("send", "alpha", outcome)]
    interp.sweep()
    assert engine.log[-2:] == [
        ("trace", "tranman.piggyback", {"dst": "gamma"}),
        ("send", "gamma", ack2)]
    assert not interp.lazy_pending


def test_multicast_is_accounted_once_with_its_fanout(rig):
    engine, _, interp = rig
    outcome = NbOutcome(tid=T1, sender="beta")
    finish(interp.run(None, [fx.MulticastDatagram(("alpha", "gamma"),
                                                  outcome)]))
    assert engine.log == [
        ("trace", "tranman.multicast", {"fanout": 2, "kind_of": "NbOutcome"}),
        ("multicast", ("alpha", "gamma"), outcome)]


def test_lazy_send_to_own_site_goes_at_once_and_uncounted(rig):
    engine, _, interp = rig
    ack = CommitAck(tid=T1, sender="beta")
    finish(interp.run(None, [fx.LazySendDatagram("beta", ack)]))
    assert engine.log == [("send", "beta", ack)]
    assert not interp.lazy_pending


# --------------------------------------------------------- timer table


def test_rearming_a_live_timer_cancels_the_old_handle(rig):
    engine, _, interp = rig
    machine = StubMachine()
    finish(interp.run(machine, [fx.StartTimer("vote", 10.0)]))
    finish(interp.run(machine, [fx.StartTimer("vote", 10.0)]))
    assert engine.log == [("cancel_timer", 1)]
    assert list(engine.timers) == [2]
    finish(interp.run(machine, [fx.CancelTimer("vote")]))
    assert not engine.timers


def test_forget_cancels_every_timer_of_that_machine_only(rig):
    engine, edge, interp = rig
    mine, other = StubMachine("mine"), StubMachine("other", TID("T2@alpha"))
    edge.machines[T1] = mine
    finish(interp.run(mine, [fx.StartTimer("a", 1.0), fx.StartTimer("b", 1.0)]))
    finish(interp.run(other, [fx.StartTimer("a", 1.0)]))
    finish(interp.run(mine, [fx.Forget(T1)]))
    assert list(engine.timers) == [3]
    assert T1 not in edge.machines
    assert engine.log[-1] == ("forgotten", T1)


def test_timer_for_a_machine_the_edge_dropped_runs_nothing(rig):
    engine, edge, interp = rig
    held, dropped = StubMachine("held"), StubMachine("gone", TID("T2@alpha"))
    edge.machines[T1] = held
    for machine in (held, dropped):
        finish(interp.run(machine, [fx.StartTimer("t", 1.0)]))
    for fire in list(engine.timers.values()):
        fire()
    # A fired timer becomes an input of its own; whether its machine is
    # still the edge's is settled when that input runs.
    (held_step, label), (dropped_step, _) = engine.spawned
    assert label == "timer.t"
    assert [type(e) for e in held_step[1]()] == [fx.Trace]
    assert list(dropped_step[1]()) == []


# ------------------------------------------------- complete, takeover


def test_complete_records_the_tombstone_then_tells_the_engine(rig):
    engine, edge, interp = rig
    finish(interp.run(None, [fx.Complete(T1, Outcome.COMMITTED)]))
    assert edge.tombstones == {str(T1): Outcome.COMMITTED}
    assert engine.log == [("completed", T1, Outcome.COMMITTED)]


# ------------------------------------------------------- step ordering


def test_later_steps_wait_for_the_step_before_to_pass_its_force(rig):
    """An outcome for a site holding a participant and a takeover: the
    takeover's ``on_message`` is not even called until the participant
    has resumed past its force."""
    engine, edge, interp = rig
    participant = StubMachine("participant",
                              on_message=[force(), fx.Trace("p.effect")])
    takeover = StubMachine("takeover", on_message=[fx.Trace("t.effect")])
    edge.machines[T1], edge.takeovers[T1] = participant, takeover
    run = interp.deliver(NbOutcome(tid=T1, sender="alpha"))
    next(run)
    assert participant.calls == ["on_message"] and takeover.calls == []
    finish(run)
    assert takeover.calls == ["on_message"]
    assert engine.traces() == ["participant.forced.tok", "p.effect",
                               "t.effect"]


# -------------------------------------- waits follow the cost model
#
# Machines keep no time: a StartTimer names its wait in protocol
# timeouts and the interpreter, built with the engine's one
# ``timeout_ms``, turns it into a delay.  So whatever builds a machine —
# a commit call, a routed prepare, a takeover, crash recovery — its
# waits can only be that value times 1, times 1/2 (a poll) or times
# 1/2 * 2**k (the election backoff), at any cost model.

ABC = ("a", "b", "c")


def _commit_call(kind):
    def build(edge, interp):
        machine = edge.coordinator(T1, ["b", "c"], kind)
        finish(interp.run(machine, machine.start()), Vote.YES)
    return "a", build


def _routed(message):
    def build(edge, interp):
        finish(interp.deliver(message), Vote.YES)
    return "b", build


def _recovered(site, *records):
    def build(edge, interp):
        for lsn, record in enumerate(records, start=1):
            record.lsn = lsn
        for machine, resume in build_machines(analyze(site, records), site):
            edge.adopt(machine)
            finish(interp.run(machine, resume), Vote.YES)
    return site, build


def _constructions():
    """name -> (site, build): every way production builds a machine.
    Takeovers and candidates are not built here: the timed-out
    participants below ask the edge for them (``StartTakeover``)."""
    majority = QuorumSpec.majority(3)
    return {
        "2pc coordinator": _commit_call(ProtocolKind.TWO_PHASE),
        "nb coordinator": _commit_call(ProtocolKind.NON_BLOCKING),
        "paxos leader": _commit_call(ProtocolKind.PAXOS_COMMIT),
        "2pc subordinate": _routed(PrepareRequest(tid=T1, sender="a")),
        "nb subordinate, then takeover": _routed(NbPrepare(
            tid=T1, sender="a", sites=ABC, quorum=majority)),
        "paxos participant, then candidate": _routed(PcPrepare(
            tid=T1, sender="a", sites=ABC, acceptors=ABC)),
        "recovered 2pc subordinate": _recovered(
            "b", prepare_record("T1@a", "b", "a")),
        "recovered 2pc coordinator": _recovered(
            "a", coordinator_commit_record("T1@a", "a", ["b", "c"])),
        "recovered nb subordinate + takeover": _recovered(
            "b", prepare_record("T1@a", "b", "a", sites=list(ABC),
                                quorum_sizes=majority.to_dict())),
        "recovered nb commit (notifying takeover)": _recovered(
            "b", prepare_record("T1@a", "b", "a", sites=list(ABC),
                                quorum_sizes=majority.to_dict()),
            commit_record("T1@a", "b")),
        "recovered paxos participant": _recovered(
            "b", paxos_prepare_record("T1@a", "b", "a", list(ABC), list(ABC)),
            paxos_acceptor_record("T1@a", "b", 0, [["b", 0, "yes"]],
                                  leader="a", sites=list(ABC),
                                  acceptors=list(ABC))),
        "recovered paxos leader": _recovered(
            "a", paxos_decision_record("T1@a", "a", ["b", "c"], list(ABC))),
        "recovered paxos candidate": _recovered(
            "d", paxos_decision_record("T1@a", "d", ["a", "b"], list(ABC))),
    }


def _armed_multiples(timeout_ms, rounds=8):
    """Per construction, every delay its machines arm — at start and
    over ``rounds`` firings of every live timer, nobody ever answering
    — as a multiple of ``timeout_ms``."""
    armed = {}
    for name, (site, build) in _constructions().items():
        engine = FakeEngine()
        engine.prepare_inline = True
        edge = ProtocolEdge(site, CostModel(),
                            family_known=lambda tid: True,
                            txn_active=lambda tid: False, now=lambda: 0.0)
        interp = Interpreter(edge, engine, timeout_ms)
        build(edge, interp)
        for _ in range(rounds):
            for handle in list(engine.timers):
                fire = engine.timers.pop(handle, None)
                if fire is None:
                    continue  # cancelled by a step earlier in the round
                fire()
                while engine.spawned:
                    step, _label = engine.spawned.pop(0)
                    finish(interp.steps((step,)), Vote.YES)
        armed[name] = [delay / timeout_ms for delay in engine.delays]
    return armed


def test_every_wait_is_a_multiple_of_the_one_protocol_timeout():
    default, wan = CostModel().protocol_timeout, wan_profile().protocol_timeout
    assert (default, wan) == (1500.0, 4000.0)
    at_default, at_wan = _armed_multiples(default), _armed_multiples(wan)
    # The same waits, in the same order, whatever a timeout lasts.
    assert at_default == at_wan
    allowed = {fx.POLL * 2 ** k for k in range(6)}   # 1/2, 1, 2 .. 16
    for name, multiples in at_default.items():
        assert multiples, f"{name} armed no timer"
        assert set(multiples) <= allowed, (name, sorted(set(multiples)))
    # Plain waits, polls and backed-off elections were all exercised.
    seen = set().union(*at_default.values())
    assert {fx.POLL, 1.0, 2.0, 16.0} <= seen
    assert set(at_default["2pc coordinator"]) == {1.0}
    assert fx.POLL in at_default["nb subordinate, then takeover"]
    assert 16.0 in at_default["paxos participant, then candidate"]


def test_no_machine_takes_a_timing_or_retry_parameter():
    """The signature pin: no constructor or classmethod of a machine
    class can be handed a wait or a retry cap."""
    offenders = []
    for module in (twophase, nonblocking, paxoscommit, abortproto, notify):
        for _, cls in inspect.getmembers(module, inspect.isclass):
            if cls.__module__ != module.__name__:
                continue
            for name, member in vars(cls).items():
                func = getattr(member, "__func__", member)
                if not inspect.isfunction(func):
                    continue
                offenders += [
                    f"{cls.__name__}.{name}({param})"
                    for param in inspect.signature(func).parameters
                    if "timeout" in param or "retries" in param]
    assert offenders == []
