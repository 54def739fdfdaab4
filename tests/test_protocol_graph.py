"""flow-protocol-graph: the statically extracted transition graphs and
the happy-path walk over them must agree with the paper's closed-form
cost formulas, and the state-machine checks must catch dead enum
members on synthetic trees."""

import hashlib
import json
import textwrap
from pathlib import Path

from repro.analysis.static_analysis import path_counts, protocol_graph_counts
from repro.lint import run_lint
from repro.lint.engine import build_context
from repro.lint.flow.protograph import emit_graphs


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


# ------------------------------------------------- counts cross-check


class TestCountCrossCheck:
    """The ISSUE-mandated gate: counts read off the *extracted graph*
    (no simulator involved) equal the analysis formulas — optimized
    presumed-abort 2PC forces twice and sends three datagrams; the
    non-blocking protocol forces four times and sends five."""

    def test_two_phase_matches_formula(self):
        walked = protocol_graph_counts("two_phase")
        assert walked == path_counts("two_phase", "write", n_subs=1)
        assert walked == {"log_forces": 2, "datagrams": 3}

    def test_non_blocking_matches_formula(self):
        walked = protocol_graph_counts("non_blocking")
        assert walked == path_counts("non_blocking", "write", n_subs=1)
        assert walked == {"log_forces": 4, "datagrams": 5}

    def test_paxos_commit_matches_formula_and_degenerates_to_2pc(self):
        """The F=0 acceptance gate: the PcLeader/PcParticipant graph
        walk must price exactly like optimized 2PC — the degeneration is
        verified from extracted source structure, not just measured."""
        walked = protocol_graph_counts("paxos_commit")
        assert walked == path_counts("paxos_commit", "write", n_subs=1)
        assert walked == protocol_graph_counts("two_phase")
        assert walked == {"log_forces": 2, "datagrams": 3}

    def test_unknown_protocol_rejected(self):
        import pytest
        with pytest.raises(ValueError):
            protocol_graph_counts("three_phase")


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
