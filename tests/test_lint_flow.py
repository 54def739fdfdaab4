"""repro.lint.flow: the whole-program layer sees what per-file rules
cannot — taint through helpers in other modules, IO reachable from
core/ — plus the call graph on synthetic trees, the inline
``# lint: bounded()`` acknowledgement, and the lint runtime budget."""

import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, run_lint
from repro.lint.engine import build_context
from repro.lint.flow import flow_program

_FLOW_RULES = {"flow-determinism", "flow-sansio-purity", "live-io-fence"}


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


    def test_relative_and_module_qualified_references(self, tmp_path):
        """Relative imports (one and two levels up), ``import pkg`` and
        ``import pkg.mod as alias`` of project modules, and classes
        reached through a module: each resolves to its definition."""
        _write(tmp_path, "core/__init__.py", "")
        _write(tmp_path, "core/helpers.py", """
            class Box:
                def __init__(self):
                    self.n = 0

                def peek(self):
                    return self.n


            def util():
                return 1
            """)
        _write(tmp_path, "core/sub/__init__.py", "")
        _write(tmp_path, "core/sub/deep.py", """
            from ..helpers import util


            def f():
                return util()
            """)
        _write(tmp_path, "core/machine.py", """
            from . import helpers
            import core
            import core.helpers as ch


            class Cycle(Loop):
                pass


            class Loop(Cycle):
                pass


            class M:
                def __init__(self):
                    self.box = ch.Box()

                def go(self, tag: "not a type("):
                    ch.Box()
                    ch.Box.peek(self.box)
                    ch.missing()
                    core.helpers.util()
                    return helpers.util()
            """)
        program = flow_program(build_context(tmp_path))
        assert set(program.callees("core/machine.py::M.go")) == {
            "core/helpers.py::Box.__init__", "core/helpers.py::Box.peek",
            "core/helpers.py::util"}
        assert list(program.callees("core/sub/deep.py::f")) == [
            "core/helpers.py::util"]
        assert program.classes["core/machine.py::M"].attr_types == {
            "box": "core/helpers.py::Box"}
        # A project package is no external primitive.
        assert program.funcs["core/machine.py::M.go"].externals == []
        # Inheritance that loops back on itself ends the method lookup.
        assert program.class_method("core/machine.py::Cycle", "m") is None


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
        "seedless_random": ("import random\n"
                            "def f():\n"
                            "    return random.Random()\n", 3),
    }

    @pytest.mark.parametrize("shape", sorted(GAPS))
    def test_gap_shape_flagged_once_at_its_line(self, tmp_path, shape):
        source, line = self.GAPS[shape]
        _write(tmp_path, "sim/gap.py", source)
        found = _ids(run_lint(root=tmp_path, rule_ids=["flow-determinism"]),
                     "flow-determinism")
        assert [f.line for f in found] == [line], [f.message for f in found]


    def test_call_through_a_subscript_is_not_followed(self, tmp_path):
        """Outside functions a fence reads direct uses only (DESIGN.md
        §9): a call whose callee is no name is passed over."""
        _write(tmp_path, "sim/table.py", """
            import time
            CLOCKS = {"wall": time.time}
            STAMP = CLOCKS["wall"]()
            """)
        report = run_lint(root=tmp_path, rule_ids=["flow-determinism"])
        assert report.findings == []


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
        # A host class imported from the tree, and passed in under a
        # neutral name that only its annotation gives away.
        _write(tmp_path, "sim/kernel.py", """
            class Kernel:
                pass
            """)
        _write(tmp_path, "core/timed.py", """
            from sim.kernel import Kernel


            class Timed:
                def __init__(self, tid, clock: Kernel):
                    self.tid = tid
                    self.clock = clock
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
        assert "import:core/timed.py:sim/kernel.py" in keys
        assert "ctor:core/timed.py::Timed:clock" in keys

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


def test_live_tree_flow_rules_clean_within_budget(tree_lint):
    """Both call-graph analyses hold on the real tree, and the session's
    full whole-tree run (flow included) fits the CI latency budget."""
    report = tree_lint.report
    flow_rules = {"flow-determinism", "flow-sansio-purity"}
    assert flow_rules <= set(report.rules_run)
    assert not [f for f in report.findings if f.rule in flow_rules], (
        [f.message for f in report.findings])
    assert tree_lint.seconds < 30.0, (
        f"whole-tree lint took {tree_lint.seconds:.1f}s; budget is 30s")
