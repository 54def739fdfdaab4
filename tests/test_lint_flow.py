"""repro.lint.flow: the whole-program layer sees what per-file rules
cannot — taint through helpers in other modules, IO reachable from
core/, unguarded COMMIT sends on one CFG path — plus the engine pieces
(call graph, path enumeration) on synthetic trees, the inline
``# lint: bounded()`` acknowledgement, and the lint runtime budget."""

import textwrap
import time
from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint
from repro.lint.engine import build_context
from repro.lint.flow import flow_program
from repro.lint.flow import cfg

_FLOW_RULES = {"flow-determinism", "flow-sansio-purity",
               "flow-force-discipline", "flow-protocol-graph",
               "live-io-fence"}


def _per_file_rules():
    return sorted(set(all_rules()) - _FLOW_RULES)


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


def _ids(report, rule):
    return [f for f in report.findings if f.rule == rule]


# ------------------------------------------------------------ call graph


class TestCallGraph:
    def test_methods_nested_calls_and_aliased_imports(self, tmp_path):
        _write(tmp_path, "analysis/util.py", """
            import time as clock


            def stamp():
                return clock.time()


            def wrapped():
                return stamp() + 1
            """)
        _write(tmp_path, "sim/engine.py", """
            from analysis.util import wrapped


            class Kernel:
                def tick(self):
                    return wrapped()


            class Runner:
                def __init__(self):
                    self.kernel = Kernel()

                def go(self):
                    return self.kernel.tick()
            """)
        program = flow_program(build_context(tmp_path))

        # Aliased import normalizes to the real primitive.
        stamp = program.funcs["analysis/util.py::stamp"]
        assert any(ref.dotted == "time.time" and ref.is_call
                   for ref in stamp.externals)
        # Nested project call: wrapped -> stamp.
        assert "analysis/util.py::stamp" in list(
            program.callees("analysis/util.py::wrapped"))
        # Cross-module import binding: Kernel.tick -> wrapped.
        assert "analysis/util.py::wrapped" in list(
            program.callees("sim/engine.py::Kernel.tick"))
        # Attribute call through a constructor-typed attribute.
        assert "sim/engine.py::Kernel.tick" in list(
            program.callees("sim/engine.py::Runner.go"))


# --------------------------------------------------------- determinism


class TestFlowDeterminism:
    @pytest.fixture
    def tainted_tree(self, tmp_path):
        _write(tmp_path, "analysis/util.py", """
            import time


            def stamp():
                return time.time()


            def indirection():
                return stamp()
            """)
        _write(tmp_path, "sim/kernel.py", """
            from analysis.util import indirection


            class Kernel:
                def now(self):
                    return indirection()
            """)
        return tmp_path

    def test_taint_through_return_values(self, tainted_tree):
        report = run_lint(root=tainted_tree, rule_ids=["flow-determinism"])
        found = _ids(report, "flow-determinism")
        assert len(found) == 1
        f = found[0]
        assert "kernel.py" in f.file
        # Witness chain names every hop down to the primitive.
        assert "indirection" in f.message and "stamp" in f.message \
            and "time.time" in f.message

    def test_invisible_to_per_file_rules(self, tainted_tree):
        report = run_lint(root=tainted_tree, rule_ids=_per_file_rules())
        # The primitive lives outside sim scope; the helper call inside
        # sim scope is opaque to single-file analysis.
        assert not [f for f in report.findings if "kernel.py" in f.file]

    def test_in_scope_primitive_flagged_once_at_the_use(self, tmp_path):
        _write(tmp_path, "sim/direct.py", """
            import time


            def now():
                return time.time()


            class Kernel:
                def tick(self):
                    return now()
            """)
        found = _ids(run_lint(root=tmp_path, rule_ids=["flow-determinism"]),
                     "flow-determinism")
        # The read in now() is the finding; tick() calling now() is not
        # a second one.
        assert [(f.line, f.key) for f in found] == [
            (6, "sim/direct.py::now:time.time()")]

    # One sim/ file per shape neither the per-file rules nor the
    # helper-only taint used to see: (source, line of the one finding).
    GAPS = {
        "alias_from": ("from time import perf_counter as pc\n"
                       "def f():\n"
                       "    return pc()\n", 3),
        "alias_time": ("import time as t\n"
                       "def f():\n"
                       "    return t.time()\n", 3),
        "alias_random": ("import random as r\n"
                         "def f():\n"
                         "    return r.random()\n", 3),
        "alias_os": ("import os as o\n"
                     "def f():\n"
                     "    return o.environ.get('X')\n", 3),
        "class_body": ("import time\n"
                       "class Clock:\n"
                       "    T0 = time.time()\n", 3),
        "module_comprehension": ("import time\n"
                                 "STAMPS = [time.time_ns() for _ in "
                                 "range(3)]\n", 2),
    }

    @pytest.mark.parametrize("shape", sorted(GAPS))
    def test_gap_shape_flagged_once_at_its_line(self, tmp_path, shape):
        source, line = self.GAPS[shape]
        _write(tmp_path, "sim/gap.py", source)
        found = _ids(run_lint(root=tmp_path, rule_ids=["flow-determinism"]),
                     "flow-determinism")
        assert [f.line for f in found] == [line], [f.message for f in found]


# -------------------------------------------------------------- purity


class TestSansIoPurity:
    def test_import_fence_reachability_and_ctor_fence(self, tmp_path):
        _write(tmp_path, "core/machine.py", """
            import socket


            def _resolve():
                return socket.gethostname()


            class Proto:
                def __init__(self, tid, kernel):
                    self.tid = tid
                    self.kernel = kernel

                def on_message(self, msg):
                    return []

                def lookup(self):
                    return _resolve()
            """)
        # No file under core/ is a host any more: the protocol edge is
        # held to the same fences as the machines.
        _write(tmp_path, "core/edge.py", """
            import socket


            class ProtocolEdge:
                def __init__(self, site, kernel):
                    self.site = site
                    self.kernel = kernel
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-sansio-purity"])
        keys = {f.key for f in _ids(report, "flow-sansio-purity")}
        assert "import:core/machine.py:socket" in keys
        # The use is the finding; Proto.lookup calling _resolve, both
        # in core/, is not a second one.
        assert "core/machine.py::_resolve:socket.gethostname" in keys
        assert not [k for k in keys if "Proto.lookup" in k]
        assert "ctor:core/machine.py::Proto:kernel" in keys
        assert "import:core/edge.py:socket" in keys
        assert "ctor:core/edge.py::ProtocolEdge:kernel" in keys

    def test_call_into_an_io_helper_outside_core_flagged_at_the_call(
            self, tmp_path):
        _write(tmp_path, "log/records.py", """
            def dump(record):
                with open("records.log", "a") as out:
                    out.write(repr(record))
            """)
        _write(tmp_path, "core/archiver.py", """
            from log.records import dump


            class Archiver:
                def on_message(self, msg):
                    dump(msg)
                    return []
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-sansio-purity"])
        found = _ids(report, "flow-sansio-purity")
        assert [(f.file, f.line, f.key) for f in found] == [
            ("core/archiver.py", 7,
             "core/archiver.py::Archiver.on_message"
             "->log/records.py::dump")]
        assert "dump -> open" in found[0].message

    def test_pure_module_stays_clean(self, tmp_path):
        _write(tmp_path, "core/clean.py", """
            from enum import Enum
            from dataclasses import dataclass


            @dataclass
            class Notice:
                tid: str


            class Machine:
                def __init__(self, tid):
                    self.tid = tid

                def on_message(self, msg):
                    return [Notice(self.tid)]
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-sansio-purity"])
        assert not _ids(report, "flow-sansio-purity")


# ----------------------------------------------------- force discipline


_BAD_MACHINE = """
    class BadCoordinator:
        def __init__(self, tid):
            self.tid = tid

        def on_message(self, msg):
            if msg.kind == "inquiry":
                # Seeded violation: the COMMIT claim races the force on
                # this early-return path.
                return [SendDatagram("s1", CommitNotice(tid=self.tid,
                                                        sender="c"))]
            return [ForceLog("commit-record", "COMMIT_FORCE")]

        def on_log_forced(self, token):
            if token == "COMMIT_FORCE":
                # Guarded: force completion dominates this send.
                return [SendDatagram("s1", CommitNotice(tid=self.tid,
                                                        sender="c"))]
            return []
    """


class TestForceDiscipline:
    def test_unguarded_path_flagged_guarded_path_clean(self, tmp_path):
        _write(tmp_path, "core/bad2pc.py", _BAD_MACHINE)
        report = run_lint(root=tmp_path, rule_ids=["flow-force-discipline"])
        found = _ids(report, "flow-force-discipline")
        assert len(found) == 1
        assert "on_message" in found[0].message
        assert "CommitNotice" in found[0].message

    def test_invisible_to_per_file_rules(self, tmp_path):
        _write(tmp_path, "core/bad2pc.py", _BAD_MACHINE)
        report = run_lint(root=tmp_path, rule_ids=_per_file_rules())
        assert not report.findings

    def test_force_in_same_effect_list_does_not_guard(self, tmp_path):
        _write(tmp_path, "core/racy.py", """
            class RacyMachine:
                def __init__(self, tid):
                    self.tid = tid

                def on_message(self, msg):
                    # The host executes effects asynchronously: listing
                    # the force first guards nothing.
                    return [
                        ForceLog("commit-record", "COMMIT_FORCE"),
                        SendDatagram("s1", CommitNotice(tid=self.tid,
                                                        sender="c")),
                    ]
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-force-discipline"])
        assert len(_ids(report, "flow-force-discipline")) == 1


    def test_message_passed_into_a_helper_keeps_its_class(self, tmp_path):
        """The notice reaches the send through the helper's parameter:
        the unforced path must still be flagged, the forced one not."""
        _write(tmp_path, "core/relay.py", """
            class RelayCoordinator:
                def __init__(self, tid):
                    self.tid = tid

                def on_message(self, msg):
                    return self._tell(msg.sender,
                                      CommitNotice(tid=self.tid, sender="c"))

                def on_log_forced(self, token):
                    if token == "COMMIT_FORCE":
                        return self._tell("s1", CommitNotice(tid=self.tid,
                                                             sender="c"))
                    return []

                def _tell(self, dst, notice):
                    return [SendDatagram(dst, notice)]
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-force-discipline"])
        found = _ids(report, "flow-force-discipline")
        assert len(found) == 1
        assert "RelayCoordinator.on_message" in found[0].message
        assert "CommitNotice" in found[0].message


# ----------------------------------------------------- path enumeration


class TestCfgPaths:
    def test_early_return_paths_keep_distinct_guards(self, tmp_path):
        _write(tmp_path, "core/paths.py", """
            class M:
                def __init__(self):
                    self.count = 0

                def on_message(self, msg):
                    if msg.kind == "skip":
                        return []
                    if msg.kind == "trace":
                        return [Trace("seen", {})]
                    return [ForceLog("rec", "TOK")]
            """)
        program = flow_program(build_context(tmp_path))
        fn = program.funcs["core/paths.py::M.on_message"]
        paths = cfg.explore(program, fn, cfg.effect_names_for(program))
        assert len(paths) == 3
        with_force = [p for p in paths if any(
            isinstance(e, cfg.EffectEv) and e.kind == "ForceLog"
            for e in p.events)]
        assert len(with_force) == 1
        # The force path is guarded by the *negation* of both early
        # returns.
        rendered = {a.render() for a in with_force[0].facts}
        assert any("skip" in r and "not" in r for r in rendered)
        assert any("trace" in r and "not" in r for r in rendered)


# --------------------------------------------------------- bounded ack


class TestBoundedAck:
    GROWER = """
        class Tracker:
            def __init__(self):
                self.seen = []{init_ack}

            def on_event(self, event):
                self.seen.append(event){grow_ack}
        """

    def _report(self, tmp_path, init_ack="", grow_ack=""):
        _write(tmp_path, "sim/tracker.py",
               self.GROWER.format(init_ack=init_ack, grow_ack=grow_ack))
        return run_lint(root=tmp_path, rule_ids=["unbounded-growth"])

    def test_unacked_growth_still_fires(self, tmp_path):
        assert _ids(self._report(tmp_path), "unbounded-growth")

    def test_ack_on_grow_site(self, tmp_path):
        report = self._report(
            tmp_path, grow_ack="  # lint: bounded(scratch, reset per run)")
        assert not _ids(report, "unbounded-growth")

    def test_ack_on_init_construction_line(self, tmp_path):
        report = self._report(
            tmp_path, init_ack="  # lint: bounded(bounded by config)")
        assert not _ids(report, "unbounded-growth")

    def test_ack_requires_a_reason(self, tmp_path):
        report = self._report(tmp_path, grow_ack="  # lint: bounded()")
        assert _ids(report, "unbounded-growth")


# ------------------------------------------------------- live-tree gates


def test_live_tree_flow_rules_clean_within_budget():
    """All four whole-program analyses hold on the real tree, and the
    full 13-rule run (flow included) fits the CI latency budget."""
    start = time.perf_counter()
    report = run_lint()
    elapsed = time.perf_counter() - start
    flow_rules = {"flow-determinism", "flow-sansio-purity",
                  "flow-force-discipline", "flow-protocol-graph"}
    assert flow_rules <= set(report.rules_run)
    assert not [f for f in report.findings if f.rule in flow_rules], (
        [f.message for f in report.findings])
    assert elapsed < 30.0, (
        f"whole-tree lint took {elapsed:.1f}s; budget is 30s")
