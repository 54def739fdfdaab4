"""flow-protocol-graph: the statically extracted transition graphs and
the state-machine checks on synthetic trees; and the §3.2 primitive
counts, measured by running the protocol machines, against the paper's
closed-form cost formulas."""

import hashlib
import json
import textwrap
from collections import deque
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.analysis.static_analysis import path_counts
from repro.config import CostModel
from repro.core.edge import ProtocolEdge
from repro.core.interpreter import Interpreter
from repro.core.outcomes import PROTOCOLS, Outcome, Vote
from repro.core.tid import TID
from repro.lint import run_lint
from repro.lint.engine import build_context
from repro.lint.flow.protograph import emit_graphs


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


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
        for n_subs in (1, 0) for protocol in sorted(FAMILIES)
        for op in ("write", "read")])
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


# ------------------------------------------------- state-machine checks


class TestStateChecks:
    def test_unreachable_member_flagged(self, tmp_path):
        _write(tmp_path, "core/toy.py", """
            from enum import Enum


            class ToyState(Enum):
                IDLE = "idle"
                RUNNING = "running"
                ZOMBIE = "zombie"


            class Toy:
                def __init__(self, tid):
                    self.tid = tid
                    self.state = ToyState.IDLE

                def on_message(self, msg):
                    if self.state is ToyState.IDLE:
                        self.state = ToyState.RUNNING
                        return []
                    if self.state is ToyState.RUNNING:
                        return []
                    return []
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-protocol-graph"])
        keys = {f.key for f in report.findings}
        assert "unreachable:ToyState.ZOMBIE" in keys
        assert not any(k.startswith("unreachable:") and "ZOMBIE" not in k
                       for k in keys)

    def test_dead_end_member_flagged(self, tmp_path):
        _write(tmp_path, "core/toy.py", """
            from enum import Enum


            class ToyState(Enum):
                IDLE = "idle"
                STUCK = "stuck"


            class Toy:
                def __init__(self, tid):
                    self.tid = tid
                    self.state = ToyState.IDLE

                def on_message(self, msg):
                    if self.state is ToyState.IDLE:
                        self.state = ToyState.STUCK
                        return []
                    return []
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-protocol-graph"])
        keys = {f.key for f in report.findings}
        assert "deadend:ToyState.STUCK" in keys

    def test_terminal_done_state_allowed(self, tmp_path):
        _write(tmp_path, "core/toy.py", """
            from enum import Enum


            class ToyState(Enum):
                IDLE = "idle"
                DONE = "done"


            class Toy:
                def __init__(self, tid):
                    self.tid = tid
                    self.state = ToyState.IDLE

                def on_message(self, msg):
                    if self.state is ToyState.IDLE:
                        self.state = ToyState.DONE
                        return []
                    return []
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-protocol-graph"])
        assert not report.findings

    def test_live_tree_clean(self):
        report = run_lint(rule_ids=["flow-protocol-graph"])
        assert not report.findings, [f.message for f in report.findings]


# ------------------------------------------------------- graph emission


class TestEmitGraphs:
    def test_specs_and_dot_for_all_machines(self, tmp_path):
        import repro
        root = Path(repro.__file__).resolve().parent
        written = emit_graphs(build_context(root), tmp_path)
        names = {p.name for p in written}
        assert "TwoPhaseCoordinator.json" in names
        assert "TwoPhaseSubordinate.dot" in names
        assert "NbCoordinator.json" in names

        spec = json.loads((tmp_path / "TwoPhaseSubordinate.json").read_text())
        assert spec["machine"] == "TwoPhaseSubordinate"
        assert spec["initial"] == "PREPARING"
        assert spec["transitions"], "extracted graph must not be empty"
        # The prepared-vote edge: the YES vote is only sent from the
        # forced-prepare continuation.
        assert any(t["src"] == "FORCING_PREPARE" and t["dst"] == "PREPARED"
                   and t["input"].startswith("forced:")
                   for t in spec["transitions"])

        dot = (tmp_path / "TwoPhaseSubordinate.dot").read_text()
        assert dot.startswith("digraph")
        assert '"FORCING_PREPARE" -> "PREPARED"' in dot

    def test_emitted_specs_are_pinned(self, tmp_path):
        """One sha256 over the ten machines' JSON specs: a transition
        that moves anywhere in ``core/`` (an effect reordered, a row
        gained or lost) fails here, not only in the CI artifact.  After
        an intended change, diff ``python -m repro.lint --emit-graphs
        DIR`` against the parent's and update the digest."""
        import repro
        root = Path(repro.__file__).resolve().parent
        specs = sorted(p for p in emit_graphs(build_context(root), tmp_path)
                       if p.suffix == ".json")
        digest = hashlib.sha256()
        for path in specs:
            digest.update(path.name.encode() + b"\0" + path.read_bytes())
        assert len(specs) == 10
        assert digest.hexdigest() == (
            "f6607238757ad130e8a6103f29246e09c9852952fb8e8296fc92934edfa4a767")
