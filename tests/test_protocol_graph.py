"""The protocol machines, run: the §3.2 primitive counts against the
paper's closed-form cost formulas, and the transition graph the
recorder (``tests/transition_graph.py``) reads off the fixed corpus,
checked and pinned."""

from collections import deque
from types import SimpleNamespace

import pytest

from repro.analysis.static_analysis import path_counts
from repro.config import CostModel
from repro.core.edge import ProtocolEdge
from repro.core.interpreter import Interpreter
from repro.core.messages import ANY_MESSAGE
from repro.core.outcomes import PROTOCOLS, Outcome, Vote
from repro.core.tid import TID

from tests.transition_graph import digest


# ------------------------------------------------- counts cross-check


class _Site:
    """One site's engine for the two-site run: a force and the local vote
    return at once, a written record is durable at once, timers never
    fire, and sends and spawned steps join one FIFO queue."""

    def __init__(self, name, queue, vote):
        self.name, self._queue, self._vote = name, queue, vote
        self.forces = 0
        self.outcome = None
        self.committed = False
        self._lsn = 0
        edge = ProtocolEdge(name, CostModel(),
                            family_known=lambda tid: True,
                            txn_active=lambda tid: True, now=lambda: 0.0)
        self.interp = Interpreter(edge, self, 1000.0)

    def send(self, dst, message):
        self._queue.append(("datagram", dst, message))

    def append(self, record):
        self._lsn += 1
        return self._lsn

    def force(self, lsn, record, token):
        self.forces += 1
        yield from ()

    def watch_durable(self, lsn, fn):
        fn()

    def start_timer(self, delay_ms, fn):
        return SimpleNamespace(cancel=lambda: None)

    def local_prepare(self, machine, effect):
        yield from ()
        return self._vote

    def spawn(self, step, label):
        self._queue.append(("step", self.name, step))

    def defer(self, note):
        note()

    def local_commit(self, tid):
        self.committed = True

    def completed(self, tid, outcome):
        self.outcome = outcome

    def trace(self, kind, detail):
        pass

    def local_abort(self, tid):
        pass

    def forgotten(self, tid):
        pass


def _settle(run):
    """Drive a run that, with every wait answered at once, never yields."""
    assert list(run) == []


def run_counts(protocol, op, n_subs=1):
    """Forces and delivered datagrams of one transaction, coordinator
    ``a`` over ``n_subs`` subordinates through the real edge and
    interpreter, up to the point where ``a`` has completed and every
    subordinate has committed locally (the §3.2 critical path)."""
    vote = Vote.YES if op == "write" else Vote.READ_ONLY
    queue = deque()
    subs = list("bcd"[:n_subs])
    sites = {name: _Site(name, queue, vote) for name in ["a"] + subs}
    a = sites["a"]
    coord = a.interp.edge.coordinator(TID("T1@a"), subs, PROTOCOLS[protocol])
    _settle(a.interp.run(coord, coord.start()))
    datagrams = 0
    while not (a.outcome is Outcome.COMMITTED
               and all(sites[name].committed for name in subs)):
        assert queue, "the run stalled before the transaction committed"
        kind, dst, payload = queue.popleft()
        interp = sites[dst].interp
        if kind == "datagram":
            datagrams += 1
            _settle(interp.deliver(payload))
        else:
            _settle(interp.steps([payload]))
    return {"log_forces": sum(site.forces for site in sites.values()),
            "datagrams": datagrams}


FAMILIES = {"2pc": "two_phase", "nb": "non_blocking", "paxos": "paxos_commit"}

# Every (protocol, op, n_subs) the cross-check runs.
COUNT_GRID = [(protocol, op, n_subs) for n_subs in (1, 0)
              for protocol in sorted(FAMILIES) for op in ("write", "read")]


class TestCountCrossCheck:
    """The machines, run, price one transaction exactly as the analysis
    formulas do: optimized presumed-abort 2PC forces twice and sends
    three datagrams, the non-blocking protocol forces four times and
    sends five, and a read-only transaction forces nothing and sends
    two in every family.  With no subordinate there is no message, and
    a write forces once (twice under the non-blocking protocol)."""

    @pytest.mark.parametrize("protocol,op,n_subs", [
        pytest.param(protocol, op, n_subs, id=f"{protocol}-{op}"
                     + ("" if n_subs else "-0subs"))
        for protocol, op, n_subs in COUNT_GRID])
    def test_counts_match_the_formula(self, protocol, op, n_subs):
        assert run_counts(protocol, op, n_subs) == \
            path_counts(FAMILIES[protocol], op, n_subs)

    def test_paxos_commit_matches_formula_and_degenerates_to_2pc(self):
        """Gray & Lamport's F=0 case: with two sites the leader is the
        sole acceptor, and Paxos Commit costs exactly what 2PC does."""
        for op in ("write", "read"):
            assert run_counts("paxos", op) == run_counts("2pc", op)
        assert run_counts("paxos", "write") == {"log_forces": 2,
                                                "datagrams": 3}


# ------------------------------------------- the observed transition graph

# States no row may leave: DONE, and per machine the other states it
# forgets in.  A Paxos participant acks and forgets in COMMITTING once
# its lazy commit record is durable.
TERMINAL = {"PcParticipant": {"COMMITTING"}}

# Message classes the edge handles before any machine sees them.
EDGE_HANDLED = {"NestedCommit"}


def _terminal(machine):
    return {"DONE"} | TERMINAL.get(machine, set())


class TestObservedGraph:
    """The graph the recorder read off the fixed corpus
    (``tests/transition_graph.py``): one row per distinct (machine,
    input, state before, state after, effects) a run produced."""

    def test_every_state_is_entered(self, transition_graph):
        """An enum member that is neither the constructor's state nor
        where some row ends is protocol surface no run reaches."""
        unreached = [
            f"{name}.{state}"
            for name, m in transition_graph["graph"].items()
            for state in m["states"]
            if state not in m["initial"]
            and state not in {r["dst"] for r in m["rows"]}]
        assert unreached == []

    def test_no_row_leaves_a_terminal_state(self, transition_graph):
        leaving = [
            (name, r["input"], r["src"], r["dst"], r["effects"])
            for name, m in transition_graph["graph"].items()
            for r in m["rows"]
            if r["src"] in _terminal(name) and r["dst"] != r["src"]]
        assert leaving == []

    def test_every_entered_state_is_left(self, transition_graph):
        stuck = []
        for name, m in transition_graph["graph"].items():
            entered = set(m["initial"]) | {r["dst"] for r in m["rows"]}
            left = {r["src"] for r in m["rows"] if r["dst"] != r["src"]}
            stuck += [f"{name}.{state}"
                      for state in sorted(entered - left - {None}
                                          - _terminal(name))]
        assert stuck == []

    def test_every_message_class_reaches_a_machine(self, transition_graph):
        inputs = {r["input"] for m in transition_graph["graph"].values()
                  for r in m["rows"]}
        assert {cls.__name__ for cls in ANY_MESSAGE} - inputs == \
            EDGE_HANDLED

    def test_graph_is_pinned(self, transition_graph):
        """One sha256 over the observed graph: a row that moves anywhere
        in ``core/`` (an effect reordered, a row gained or lost) fails
        here.  After an intended change, diff ``python -m
        tests.transition_graph OUT.json`` against the parent's and
        account for every moved row before updating the digest."""
        graph = transition_graph["graph"]
        assert len(graph) == 10
        assert sum(len(m["rows"]) for m in graph.values()) == 446
        assert digest(graph) == (
            "619bff96c326456008cb65c2edfbf6814a06289c2582483a05bf26157c1b6046")
