"""Protocol fuzzing: random delivery orders, duplication, and loss
against linked sans-IO machines.

A miniature network of MachineHosts is wired together; every outbound
message goes into a bag, and a seeded scheduler repeatedly pulls a
random message (sometimes duplicating it, sometimes dropping it) and
delivers it, interleaving log-force completions and timer firings at
random.  Invariants checked on every schedule:

- no machine ever raises a protocol violation;
- every decided machine agrees on the outcome;
- a site that decided COMMITTED holds (or held) the records commit
  requires.

Stale inputs are scheduled too, as one more action: a repeated
``on_local_prepared``, a force or durability completion repeated after
the machine stopped waiting on its token, and a timer firing again
after it fired or was cancelled.  Each must leave the invariants
standing.  With ``takeovers`` on, a participant's StartTakeover starts
the termination machine the edge would (NbTakeover / PcCandidate) on
its site, routed and bound to the site's quorum membership as
``ProtocolEdge`` does; takeovers may then duel past the step budget,
so only agreement is required of those runs.

This exercises the idempotency/duplicate/stale-message paths far more
densely than the integration suite can.
"""

import random
from functools import partial

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import nonblocking as nb
from repro.core import paxoscommit as pc
from repro.core import twophase as tp
from repro.core.abortproto import AbortInitiator
from repro.config import CostModel
from repro.core.edge import _TAKEOVER_ROUTED, PledgeAck, ProtocolEdge
from repro.core.effects import ForceLog, StartTimer, WriteLog
from repro.core.messages import (
    CommitAck,
    InquiryResponse,
    NbOutcome,
    NbReplicateAck,
    NbVote,
    PcOutcome,
    PcP1a,
    PcP2a,
    PcPhase2b,
    PcVote,
)
from repro.core.nonblocking import (
    NbCoordinator,
    NbCoordinatorState,
    NbSubordinate,
    NbTakeover,
)
from repro.core.outcomes import Outcome, Vote
from repro.core.paxoscommit import PcCandidate, PcLeader, PcParticipant
from repro.core.quorum import QuorumSpec
from repro.core.tid import TID
from repro.core.twophase import TwoPhaseCoordinator, TwoPhaseSubordinate

from tests.machine_harness import MachineHost

TID1 = TID("T1@c0")

FUZZ = settings(max_examples=40, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])


class FuzzHost(MachineHost):
    """A MachineHost that remembers every token its machine asked for, so
    a stale input can repeat one: a completion already delivered, or a
    timer that has fired or been cancelled."""

    def __init__(self, machine):
        super().__init__(machine)
        self.issued = {"force": set(), "durable": set(), "timer": set()}
        # Called with each record forced (FuzzNet sets it).
        self.membership = None

    def execute(self, effects):
        for effect in effects:
            if isinstance(effect, ForceLog):
                self.issued["force"].add(effect.token)
                if self.membership is not None:
                    self.membership(effect.record)
            elif isinstance(effect, WriteLog) and effect.token is not None:
                self.issued["durable"].add(effect.token)
            elif isinstance(effect, StartTimer):
                self.issued["timer"].add(effect.token)
        super().execute(effects)


class FuzzNet:
    """Links MachineHosts by site name and schedules chaos."""

    def __init__(self, rng: random.Random, dup_rate: float,
                 loss_rate: float, interceptor=None,
                 stale_rate: float = 0.0, takeover=None):
        self.rng = rng
        self.dup_rate = dup_rate
        self.loss_rate = loss_rate
        self.stale_rate = stale_rate
        # Emulates the TranMan's stateless protocol edge (e.g. building
        # a quorum-helper machine for a forgotten read-only site);
        # returns True when it fully handled the delivery.
        self.interceptor = interceptor
        # What the edge starts on a StartTakeover: machine -> takeover.
        self.takeover = takeover
        self.hosts = {}
        self.takeovers = {}   # site -> the takeover machine's host
        self.votes = {}       # site -> the vote its local prepare returned
        self._consumed = {}   # host -> how many sent messages processed

    def add(self, site: str, host: FuzzHost) -> None:
        self.hosts[site] = host
        self._consumed[id(host)] = 0
        host.membership = partial(self._appended, site)

    def _appended(self, site: str, record) -> None:
        """What every host does on append: the site's edge binds its
        machines to the quorum a replication record or pledge joined."""
        edge = ProtocolEdge(site, CostModel(), family_known=lambda tid: True,
                            txn_active=lambda tid: False, now=lambda: 0.0)
        edge.machines[TID1] = self.hosts[site].machine
        if site in self.takeovers:
            edge.takeovers[TID1] = self.takeovers[site].machine
        note = edge.note_membership(record)
        if note is not None:
            note()

    def prepare(self, site: str, vote: Vote) -> None:
        self.votes[site] = vote
        self.hosts[site].local_prepared(vote)

    def _all(self):
        return [*self.hosts.items(), *self.takeovers.items()]

    def _route(self, dst: str, msg):
        """The hosts at ``dst`` that get ``msg``, as the edge routes it."""
        main, takeover = self.hosts.get(dst), self.takeovers.get(dst)
        if takeover is not None and (
                isinstance(msg, _TAKEOVER_ROUTED)
                or (isinstance(msg, PcPhase2b) and msg.ballot != 0)):
            return [takeover]
        out = [] if main is None else [main]
        if takeover is not None and isinstance(msg, (NbOutcome, PcOutcome)):
            out.append(takeover)
        return out

    def _start_takeovers(self) -> None:
        for site, host in list(self.hosts.items()):
            if host.takeover_requests and site not in self.takeovers:
                takeover = FuzzHost(self.takeover(host.machine))
                takeover.membership = partial(self._appended, site)
                self.takeovers[site] = takeover
                self._consumed[id(takeover)] = 0
                self.takeovers[site].start()

    def _collect(self):
        """Sweep every host's fresh outbound messages into the bag."""
        bag = []
        for _, host in self._all():
            fresh = host.sent[self._consumed[id(host)]:]
            self._consumed[id(host)] = len(host.sent)
            for dst, msg in fresh:
                if self.rng.random() < self.loss_rate:
                    continue
                bag.append((dst, msg))
                if self.rng.random() < self.dup_rate:
                    bag.append((dst, msg))
            # Lazy sends flush too (as the piggyback sweep would).
            for dst, msg in host.lazy_sent:
                bag.append((dst, msg))
            host.lazy_sent.clear()
        return bag

    def _stale(self) -> None:
        """One stale input to a random host: a repeat of something it
        had, that it no longer waits on."""
        key, host = self.rng.choice(self._all())
        kind = self.rng.choice(("prepared", "force", "durable", "timer"))
        if kind == "prepared":
            if host is self.hosts.get(key) and key in self.votes:
                host.local_prepared(self.votes[key])
            return
        waiting = {"force": host.pending_forces,
                   "durable": host.pending_durable,
                   "timer": host.timers}[kind]
        stale = sorted(t for t in host.issued[kind] if t not in waiting)
        if not stale:
            return
        token = self.rng.choice(stale)
        if kind == "force":
            host.execute(host.machine.on_log_forced(token))
        elif kind == "timer":
            host.execute(host.machine.on_timer(token))
        else:
            host.execute(host.machine.on_log_durable(token))

    def run(self, max_steps: int = 3000) -> None:
        bag = []
        for _ in range(max_steps):
            if self.takeover is not None:
                self._start_takeovers()
            bag.extend(self._collect())
            actions = []
            if bag:
                actions.append("deliver")
            for i, (_, host) in enumerate(self._all()):
                if host.pending_forces:
                    actions.append(("force", i))
                if host.pending_durable:
                    actions.append(("durable", i))
                if host.timers:
                    actions.append(("timer", i))
            if not actions:
                bag.extend(self._collect())
                if not bag:
                    return
                actions.append("deliver")
            if self.stale_rate and self.rng.random() < self.stale_rate:
                self._stale()
                continue
            action = self.rng.choice(actions)
            if action == "deliver":
                dst, msg = bag.pop(self.rng.randrange(len(bag)))
                for host in self._route(dst, msg):
                    if (self.interceptor is not None
                            and self.interceptor(host, msg)):
                        continue
                    host.deliver(msg)
                continue
            host = self._all()[action[1]][1]
            if action[0] == "force":
                host.complete_force()
            elif action[0] == "durable":
                host.complete_durable()
            else:
                token = self.rng.choice(sorted(host.timers))
                host.fire_timer(token)


def outcomes_of(net: FuzzNet):
    """Every decided machine's outcome, takeovers included."""
    return {(site, type(host.machine).__name__): host.machine.outcome
            for site, host in net._all()
            if getattr(host.machine, "outcome", None) is not None}


def nb_takeover(sub):
    """The edge's NB termination: a takeover from the subordinate's own
    status report."""
    status, data = sub.status_report()
    return NbTakeover(sub.tid, sub.site, sub.sites, sub.quorum,
                      own_status=status, own_decision_data=data)


def pc_takeover(machine):
    """The edge's Paxos Commit termination: a leader election."""
    return PcCandidate(machine.tid, machine.site, machine.sites,
                       machine.acceptors, machine.quorum)


VOTES = [Vote.YES, Vote.NO, Vote.READ_ONLY]


def check_2pc(seed, n_subs, votes, dup, stale):
    rng = random.Random(seed)
    subs = [f"s{i}" for i in range(n_subs)]
    net = FuzzNet(rng, dup_rate=dup, loss_rate=0.0, stale_rate=stale,
                  )
    coord = FuzzHost(TwoPhaseCoordinator(TID1, "c0", subs))
    net.add("c0", coord)
    for i, site in enumerate(subs):
        net.add(site, FuzzHost(TwoPhaseSubordinate(TID1, site, "c0")))
    coord.start()
    net.prepare("c0", Vote.YES)
    for i, site in enumerate(subs):
        net.hosts[site].start()
        net.prepare(site, votes[i])
    net.run()
    decided = outcomes_of(net)
    outcome = net.hosts["c0"].machine.outcome
    assert outcome is not None, "coordinator must decide"
    agreed = {o for o in decided.values()}
    assert len(agreed) == 1, f"split outcomes: {decided}"
    if any(votes[i] is Vote.NO for i in range(n_subs)):
        assert outcome is Outcome.ABORTED


def check_nb(seed, n_subs, votes, dup, stale, takeovers):
    rng = random.Random(seed)
    subs = [f"s{i}" for i in range(n_subs)]
    sites = ["c0"] + subs
    quorum = QuorumSpec.majority(len(sites))

    def stateless_edge(host, msg):
        """TranMan's stateless layer: a read-only site that forgot the
        transaction is rebuilt as a quorum helper on NbReplicate."""
        from repro.core.messages import NbReplicate
        from repro.core.nonblocking import NbSubState

        machine = host.machine
        if (isinstance(msg, NbReplicate)
                and isinstance(machine, NbSubordinate)
                and machine.state is NbSubState.DONE
                and machine.outcome is None):
            host.machine = NbSubordinate.helper(msg.tid, machine.site, msg)
            host.deliver(msg)
            return True
        return False

    net = FuzzNet(rng, dup_rate=dup, loss_rate=0.0,
                  interceptor=stateless_edge, stale_rate=stale,
                  takeover=nb_takeover if takeovers else None)
    coord = FuzzHost(NbCoordinator(TID1, "c0", subs, quorum=quorum))
    net.add("c0", coord)
    for i, site in enumerate(subs):
        net.add(site, FuzzHost(NbSubordinate(TID1, site, "c0",
                                                sites, quorum)))
    coord.start()
    net.prepare("c0", Vote.YES)
    for i, site in enumerate(subs):
        net.hosts[site].start()
        net.prepare(site, votes[i])
    net.run()
    decided = outcomes_of(net)
    # Takeovers may duel past the step budget (timers fire as often as
    # messages land), so only a run without one must decide.
    if not net.takeovers:
        assert net.hosts["c0"].machine.outcome is not None
    assert len(set(decided.values())) <= 1, f"split outcomes: {decided}"
    if Outcome.COMMITTED in decided.values():
        # Commit implies a commit quorum's worth of replication records.
        replicated = sum(
            1 for host in net.hosts.values()
            if any(r.kind.value == "replication" for r in host.forced))
        assert replicated >= quorum.commit_quorum


def check_paxos(seed, f, n_subs, votes, dup, stale, takeovers):
    """Paxos Commit at F=0 (the leader the sole acceptor: 2PC's shape)
    and F=1 (the leader and the first two subordinates accept)."""
    rng = random.Random(seed)
    subs = [f"s{i}" for i in range(n_subs)]
    sites = ["c0"] + subs
    acceptors = sites[:2 * f + 1]
    quorum = QuorumSpec.paxos(len(acceptors))
    net = FuzzNet(rng, dup_rate=dup, loss_rate=0.0, stale_rate=stale,
                  takeover=pc_takeover if takeovers else None)
    net.add("c0", FuzzHost(PcLeader(TID1, "c0", subs, acceptors, quorum)))
    for site in subs:
        net.add(site, FuzzHost(PcParticipant(TID1, site, "c0", sites,
                                                acceptors, quorum)))
    for site in sites:
        net.hosts[site].start()
    net.prepare("c0", Vote.YES)
    for i, site in enumerate(subs):
        net.prepare(site, votes[i])
    net.run()
    decided = outcomes_of(net)
    # Candidates may duel past the step budget, as NB takeovers may.
    if not net.takeovers:
        assert net.hosts["c0"].machine.outcome is not None, \
            "leader must decide"
    assert len(set(decided.values())) <= 1, f"split outcomes: {decided}"
    if any(votes[i] is Vote.NO for i in range(n_subs)):
        assert set(decided.values()) <= {Outcome.ABORTED}


SEED = st.integers(min_value=0, max_value=100_000)
SUB_VOTES = st.lists(st.sampled_from(VOTES), min_size=4, max_size=4)
DUP = st.floats(min_value=0.0, max_value=0.4)
STALE = st.floats(min_value=0.0, max_value=0.2)


@FUZZ
@given(seed=SEED, n_subs=st.integers(min_value=1, max_value=4),
       votes=SUB_VOTES, dup=DUP, stale=STALE)
def test_2pc_fuzz_agreement(seed, n_subs, votes, dup, stale):
    check_2pc(seed, n_subs, votes, dup, stale)


@FUZZ
@given(seed=SEED, n_subs=st.integers(min_value=1, max_value=4),
       votes=SUB_VOTES, dup=DUP, stale=STALE, takeovers=st.booleans())
def test_nb_fuzz_agreement(seed, n_subs, votes, dup, stale, takeovers):
    check_nb(seed, n_subs, votes, dup, stale, takeovers)


@FUZZ
@given(seed=SEED, f=st.sampled_from([0, 1]),
       n_subs=st.integers(min_value=2, max_value=4),
       votes=SUB_VOTES, dup=DUP, stale=STALE, takeovers=st.booleans())
def test_paxos_fuzz_agreement(seed, f, n_subs, votes, dup, stale, takeovers):
    check_paxos(seed, f, n_subs, votes, dup, stale, takeovers)


@pytest.mark.parametrize("family", ["2pc", "nb", "paxos"])
def test_fuzz_over_fixed_schedules(family):
    """The same checks over 200 fixed draws per family.  What hypothesis
    draws changes from run to run; these do not, so every path they
    reach is reached by every run."""
    for seed in range(200):
        draw = random.Random(seed)
        n_subs = draw.randint(2 if family == "paxos" else 1, 4)
        votes = [draw.choice(VOTES) for _ in range(4)]
        dup, stale = draw.choice([0.0, 0.2, 0.4]), draw.choice([0.0, 0.1])
        takeovers = draw.random() < 0.5
        if family == "2pc":
            check_2pc(seed, n_subs, votes, dup, stale)
        elif family == "nb":
            check_nb(seed, n_subs, votes, dup, stale, takeovers)
        else:
            check_paxos(seed, draw.choice([0, 1]), n_subs, votes, dup,
                        stale, takeovers)


@FUZZ
@given(seed=st.integers(min_value=0, max_value=100_000),
       loss=st.floats(min_value=0.0, max_value=0.3))
def test_2pc_fuzz_with_loss_never_splits(seed, loss):
    """With loss, progress is not guaranteed inside the step budget —
    but agreement among whoever decided still is."""
    rng = random.Random(seed)
    net = FuzzNet(rng, dup_rate=0.1, loss_rate=loss)
    coord = FuzzHost(TwoPhaseCoordinator(TID1, "c0", ["s0", "s1"]))
    net.add("c0", coord)
    for site in ("s0", "s1"):
        net.add(site, FuzzHost(TwoPhaseSubordinate(TID1, site, "c0")))
    coord.start()
    coord.local_prepared(Vote.YES)
    for site in ("s0", "s1"):
        net.hosts[site].start()
        net.hosts[site].local_prepared(Vote.YES)
    net.run(max_steps=1500)
    decided = outcomes_of(net)
    assert len(set(decided.values())) <= 1


# ------------------------------------------- stale inputs, once each
#
# The fuzz reaches these by luck; each row pins one: a machine in a
# state an input no longer applies to answers with no effects.

T = TID("T1@a")
Q3 = QuorumSpec.majority(3)
PCQ3 = QuorumSpec.paxos(3)


def _2pc_coordinator_aborted():
    host = MachineHost(TwoPhaseCoordinator(T, "a", ["b"])).start()
    host.local_prepared(Vote.NO)
    return host.machine


def _2pc_subordinate_prepared():
    host = MachineHost(TwoPhaseSubordinate(T, "b", "a")).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    return host.machine


def _nb_coordinator_replicating():
    host = MachineHost(NbCoordinator(T, "a", ["b", "c"], quorum=Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    for sub in ("b", "c"):
        host.deliver(NbVote(tid=T, sender=sub, vote=Vote.YES))
    host.complete_force()
    assert host.machine.state is NbCoordinatorState.REPLICATING
    return host.machine


def _nb_coordinator_aborted():
    host = MachineHost(NbCoordinator(T, "a", ["b", "c"], quorum=Q3)).start()
    host.local_prepared(Vote.NO)
    assert host.machine.outcome is Outcome.ABORTED
    return host.machine


def _nb_subordinate_prepared():
    host = MachineHost(NbSubordinate(T, "b", "a", ["a", "b", "c"],
                                     Q3)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    return host.machine


def _nb_takeover():
    host = MachineHost(NbTakeover(T, "b", ["a", "b", "c"], Q3,
                                  own_status="prepared")).start()
    return host.machine


def _pc_leader():
    return MachineHost(PcLeader(T, "a", ["b", "c"], ["a", "b", "c"],
                                PCQ3)).start().machine


def _pc_participant(acceptors=("a",), quorum=QuorumSpec.paxos(1)):
    host = MachineHost(PcParticipant(T, "b", "a", ["a", "b"],
                                     list(acceptors), quorum)).start()
    host.local_prepared(Vote.YES)
    host.complete_force()
    return host.machine


def _pc_candidate():
    return MachineHost(PcCandidate(T, "b", ["a", "b", "c"], ["a", "b", "c"],
                                   PCQ3)).start().machine


STALE = {
    "2pc coordinator: abort after abort":
        lambda: _2pc_coordinator_aborted().abort_now(),
    "2pc subordinate: an in-doubt inquiry answer":
        lambda: _2pc_subordinate_prepared().on_message(
            InquiryResponse(tid=T, sender="a", outcome=Outcome.IN_DOUBT)),
    "2pc subordinate: a coordinator's message":
        lambda: _2pc_subordinate_prepared().on_message(
            CommitAck(tid=T, sender="c")),
    "nb coordinator: a replication ack from a stranger":
        lambda: _nb_coordinator_replicating().on_message(
            NbReplicateAck(tid=T, sender="z", ok=True)),
    "nb coordinator: abort after abort":
        lambda: _nb_coordinator_aborted().abort_now(),
    "nb subordinate: a coordinator's message":
        lambda: _nb_subordinate_prepared().on_message(
            NbVote(tid=T, sender="c", vote=Vote.YES)),
    "nb subordinate: another machine's timer":
        lambda: _nb_subordinate_prepared().on_timer(nb.NB_TAKEOVER_TIMER),
    "nb takeover: another machine's timer":
        lambda: _nb_takeover().on_timer(nb.NB_OUTCOME_TIMER),
    "pc leader: a force token it never asked for":
        lambda: _pc_leader().on_log_forced(pc.PC_COMMIT_DURABLE),
    "pc leader: an election-ballot 2b":
        lambda: _pc_leader().on_message(PcPhase2b(
            T, "c", ballot=3, votes=(("b", "no"),))),
    "pc participant: a force token it never asked for":
        lambda: _pc_participant().on_log_forced(pc.PC_DECIDE_FORCE),
    "pc participant: another machine's timer":
        lambda: _pc_participant().on_timer(pc.PC_VOTE_TIMER),
    "pc participant, no acceptor: a ballot-0 vote":
        lambda: _pc_participant().on_message(PcVote(
            T, "c", vote=Vote.YES, leader="a", sites=("a", "b"),
            acceptors=("a",))),
    "pc participant, no acceptor: a phase-1a":
        lambda: _pc_participant().on_message(PcP1a(T, "c", ballot=4,
                                                   leader="c")),
    "pc participant, no acceptor: a phase-2a":
        lambda: _pc_participant().on_message(PcP2a(T, "c", ballot=4)),
    "pc candidate: a force token it never asked for":
        lambda: _pc_candidate().on_log_forced(pc.PC_ACCEPT_FORCE),
    "pc candidate: another machine's timer":
        lambda: _pc_candidate().on_timer(pc.PC_VOTE_TIMER),
    "abort initiator: a foreign message":
        lambda: AbortInitiator(T, "a", ["b"]).on_message(
            CommitAck(tid=T, sender="b")),
    "abort initiator: another machine's timer":
        lambda: AbortInitiator(T, "a", ["b"]).on_timer(tp.ACK_TIMER),
    "stateless pledge: another force token":
        lambda: PledgeAck(T, "b", forced=lambda tid: None).on_log_forced(
            nb.NB_PLEDGE_FORCE),
}


@pytest.mark.parametrize("case", STALE)
def test_a_stale_input_changes_nothing(case):
    assert STALE[case]() == []
