"""repro.lint: every rule fires on a seeded fixture, stays quiet on the
repaired tree, and the CLI gates accordingly (ISSUE 2 acceptance)."""

import json
import textwrap
from pathlib import Path

import pytest

from repro.lint import all_rules, rule, run_lint
from repro.lint.__main__ import main as lint_main
from repro.lint.findings import source_line


def _write(root: Path, rel: str, source: str) -> None:
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(source))


@pytest.fixture
def fixture_tree(tmp_path: Path) -> Path:
    """A mini package tree with exactly one violation per rule."""
    _write(tmp_path, "sim/bad_clock.py", """
        import os
        import random
        import time


        class Broadcaster:
            def __init__(self, kernel):
                self.kernel = kernel

            def go(self):
                stamp = time.time()                      # flow-determinism
                jitter = random.random()                 # flow-determinism
                cache_dir = os.getenv("CACHE")           # flow-determinism
                for dst in {"a", "b"}:                   # unordered-iteration
                    self.kernel.post(0.0, print, dst)
                handle = self.kernel.post_soon(print, 1) # consumed result
                return stamp, jitter, cache_dir, handle
        """)
    _write(tmp_path, "chaos/oracles.py", """
        def oracle(name):
            def register(fn):
                return fn
            return register


        @oracle("meddling")
        def check_meddling(ctx):
            ctx.system.tracer.events.clear()   # chaos-oracle-readonly
            return []
        """)
    _write(tmp_path, "obs/sampler.py", """
        def sample_queue_depth(recorder, system):
            system.run_for(1.0)                # obs-readonly
            return recorder
        """)
    _write(tmp_path, "core/bookkeeping.py", """
        class OutcomeLedger:
            def __init__(self):
                self.outcomes = {}

            def on_complete(self, tid, outcome):
                self.outcomes[tid] = outcome   # unbounded-growth
        """)
    return tmp_path


ALL_RULES = {
    "flow-determinism", "unordered-iteration",
    "consumed-fire-and-forget", "chaos-oracle-readonly", "obs-readonly",
    "unbounded-growth",
}


def test_registered_rules_are_exactly_these_eight():
    assert set(all_rules()) == {
        "unordered-iteration", "consumed-fire-and-forget",
        "chaos-oracle-readonly", "obs-readonly", "unbounded-growth",
        "flow-determinism", "flow-sansio-purity", "live-io-fence",
    }


def test_every_rule_fires_on_fixture(fixture_tree):
    report = run_lint(root=fixture_tree)
    assert {f.rule for f in report.findings} == ALL_RULES
    # file:line pointing at real locations
    for f in report.findings:
        assert f.line >= 1
        assert f.file


def test_fixture_findings_carry_locations(fixture_tree):
    report = run_lint(root=fixture_tree)
    clock = sorted((f.line, f.message) for f in report.findings
                   if f.rule == "flow-determinism")
    assert all(f.file.endswith("sim/bad_clock.py") for f in report.findings
               if f.rule == "flow-determinism")
    # time.time(), random.random(), os.getenv: one finding each.
    assert [line for line, _ in clock] == [12, 13, 14]
    for (_, message), prim in zip(clock, ("time.time()", "random.random()",
                                          "os.getenv")):
        assert prim in message


def test_cli_exits_nonzero_on_fixture(fixture_tree, capsys):
    rc = lint_main([str(fixture_tree)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[flow-determinism]" in out
    # findings are file:line prefixed
    assert "sim/bad_clock.py:" in out


def test_cli_exits_zero_on_repaired_tree(tree_lint, monkeypatch, capsys):
    """The live package tree is the 'repaired tree': lint must pass,
    with no suppression file to lean on.  The CLI reads the session's
    one whole-tree run instead of parsing the tree again."""
    repo_root = Path(__file__).resolve().parent.parent
    assert not (repo_root / "lint-baseline.json").exists()

    def session_run(root=None, rule_ids=None):
        assert (root, rule_ids) == (None, None)
        return tree_lint.report

    monkeypatch.setattr("repro.lint.__main__.run_lint", session_run)
    assert lint_main([]) == 0


@pytest.mark.parametrize("flag", ["--no-baseline", "--baseline=x.json",
                                  "--update-baseline", "--verbose"])
def test_cli_has_no_suppression_flags(flag, capsys):
    """Inline ``# lint:`` acks are the only suppression: the four
    baseline-era flags are usage errors, not silently accepted."""
    with pytest.raises(SystemExit) as exc:
        lint_main([flag])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_cli_json_format(fixture_tree, capsys):
    rc = lint_main([str(fixture_tree), "--format", "json"])
    assert rc == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is False
    assert set(payload) == {"findings", "checked_files", "rules", "clean"}
    assert {f["rule"] for f in payload["findings"]} == ALL_RULES
    for f in payload["findings"]:
        assert set(f) == {"rule", "file", "line", "column", "message"}


def test_rule_filter_and_unknown_rule(fixture_tree, capsys):
    rc = lint_main([str(fixture_tree), "--rules", "flow-determinism"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "[flow-determinism]" in out and "[unordered-iteration]" not in out
    assert lint_main([str(fixture_tree), "--rules", "nope"]) == 2


@pytest.mark.parametrize("stale", ["wallclock", "unseeded-random",
                                   "no-environ"])
def test_stale_rule_id_fails_and_lists_known_ids(fixture_tree, capsys, stale):
    """The per-file determinism rules were folded into flow-determinism:
    naming one is a usage error that says what to ask for instead."""
    assert lint_main([str(fixture_tree), "--rules", stale]) == 2
    err = capsys.readouterr().err
    assert f"unknown lint rule(s): ['{stale}']" in err
    assert all(rid in err for rid in all_rules())


def test_determinism_rules_skip_harness_code(tmp_path):
    """bench/ and analysis/ run outside the sim clock: wall-clock reads
    there are legitimate (they time the harness itself)."""
    _write(tmp_path, "bench/timing.py", """
        import time


        def wall():
            return time.perf_counter()
        """)
    report = run_lint(root=tmp_path)
    assert report.findings == []


def test_sorted_iteration_is_clean(tmp_path):
    _write(tmp_path, "sim/good.py", """
        from typing import Set


        class Fanout:
            def __init__(self, kernel):
                self.kernel = kernel
                self.targets: Set[str] = set()

            def go(self):
                for dst in sorted(self.targets):
                    self.kernel.post(0.0, print, dst)
        """)
    report = run_lint(root=tmp_path)
    assert report.findings == []


def test_unsorted_set_attr_feeding_effects_flagged(tmp_path):
    _write(tmp_path, "core/fanout.py", """
        from typing import Set


        class Proto:
            def __init__(self):
                self.acked: Set[str] = set()

            def resend(self):
                return [SendDatagram(dst, "m") for dst in self.acked]
        """)
    report = run_lint(root=tmp_path)
    assert [f.rule for f in report.findings] == ["unordered-iteration"]
    assert "self.acked" in report.findings[0].message


def test_local_assigned_a_set_expression_feeding_effects_flagged(tmp_path):
    """A plain local is set-typed by what it is assigned: a set
    expression (the abort forwarder's shape) iterated unsorted fires,
    the same local sorted does not."""
    _write(tmp_path, "core/forward.py", """
        def forward(known, sender_knew, me):
            forward_to = set(known) - sender_knew - {me}
            return [SendDatagram(dst, "m") for dst in forward_to]


        def forward_sorted(known, sender_knew, me):
            forward_to = set(known) - sender_knew - {me}
            return [SendDatagram(dst, "m") for dst in sorted(forward_to)]
        """)
    report = run_lint(root=tmp_path)
    assert [(f.rule, f.line) for f in report.findings] == \
        [("unordered-iteration", 4)]
    assert "'forward_to'" in report.findings[0].message


def test_dict_view_feeding_kernel_posts_flagged(tmp_path):
    _write(tmp_path, "sim/fanout.py", """
        class Fanout:
            def __init__(self, kernel):
                self.kernel = kernel
                self.peers = {}

            def go(self):
                for dst, _ in self.peers.items():
                    self.kernel.post(0.0, print, dst)
        """)
    report = run_lint(root=tmp_path, rule_ids=["unordered-iteration"])
    assert [f.line for f in report.findings] == [8]
    assert ".items() view" in report.findings[0].message


def test_oracle_mutations_flagged_reads_clean(tmp_path):
    """chaos-oracle-readonly: every mutation shape through the context
    parameter (or a local aliasing it) fires; pure reads stay clean."""
    _write(tmp_path, "chaos/oracles.py", """
        def oracle(name):
            def register(fn):
                return fn
            return register


        @oracle("dirty")
        def check_dirty(ctx):
            ctx.state["outcome"] = None             # subscript assign
            ctx.system.lan.loss_probability = 0.5   # attribute assign
            ctx.system.lan.delivered += 1           # aug-assign
            del ctx.state["tid"]                    # delete
            machines = ctx.system.tranman("a").machines
            machines.pop("T1")                      # mutator via alias
            return []


        @oracle("clean")
        def check_clean(ctx):
            violations = []
            for site in ctx.live_sites():
                if ctx.tombstone(site) is None:
                    violations.append(site)         # local list: fine
            counts = dict(ctx.system.tracer.counters)
            counts.update(extra=1)                  # copy, not sim state
            return violations


        def helper_not_an_oracle(ctx):
            ctx.state.clear()                       # undecorated: exempt
        """)
    report = run_lint(root=tmp_path, rule_ids=["chaos-oracle-readonly"])
    flagged = [f for f in report.findings if "check_dirty" in f.message]
    assert len(flagged) == 5
    assert not [f for f in report.findings if "check_clean" in f.message]
    assert not [f for f in report.findings if "helper" in f.message]


def test_obs_readonly_mutations_flagged_reads_clean(tmp_path):
    """obs-readonly: obs code may read sim objects reached through any
    parameter but never write to them or steer the run."""
    _write(tmp_path, "obs/collect.py", """
        def dirty(system, tracer):
            tracer.record(0.0, "fake")            # steering call
            system.lan.loss_probability = 0.5     # attribute assign
            system.tracer.counters["x"] += 1      # aug-assign via alias
            tm = system.tranman("a")
            tm.machines.pop("T1")                 # mutator via alias
            del system.sites["a"]                 # delete
            return []


        def clean(system, recorder):
            depth = len(system.tranman("a").machines)
            recorder.gauge(system.kernel.now, "depth", depth)
            rows = [s for s in recorder.all_spans() if s.closed]
            counts = dict(system.tracer.counters)
            counts["extra"] = 1                   # copy, not sim state
            return rows


        def writes_a_recorder(recorder, spans):
            recorder.record(0.0, "fake")          # the sink's counters
            spans.attach_obs(None)                # redirects the hooks
            return []
        """)
    report = run_lint(root=tmp_path, rule_ids=["obs-readonly"])
    assert len([f for f in report.findings if "'dirty'" in f.message]) == 5
    assert not [f for f in report.findings if "'clean'" in f.message]
    assert len([f for f in report.findings
                if "'writes_a_recorder'" in f.message]) == 2


def test_readonly_taint_follows_a_tuple_loop_target(tmp_path):
    _write(tmp_path, "obs/sweep.py", """
        def crash_all(system):
            for name, site in system.sites.items():
                site.crash()
        """)
    report = run_lint(root=tmp_path, rule_ids=["obs-readonly"])
    assert [f.line for f in report.findings] == [4]
    assert ".crash()" in report.findings[0].message


def test_obs_readonly_exempts_scenario_driver(tmp_path):
    """obs/__main__.py builds and drives the system by design."""
    _write(tmp_path, "obs/__main__.py", """
        def main(system):
            system.run_for(100.0)
            return 0
        """)
    report = run_lint(root=tmp_path, rule_ids=["obs-readonly"])
    assert report.findings == []


def test_unbounded_growth_flags_grow_only_container(tmp_path):
    _write(tmp_path, "core/ledger.py", """
        class Ledger:
            def __init__(self):
                self.seen = set()
                self.rows = []

            def on_event(self, tid):
                self.seen.add(tid)
                self.rows.append(tid)
        """)
    report = run_lint(root=tmp_path, rule_ids=["unbounded-growth"])
    assert {f.key for f in report.findings} == {"Ledger.seen", "Ledger.rows"}


def test_unbounded_growth_any_shrink_suppresses(tmp_path):
    _write(tmp_path, "core/pruned.py", """
        class Pruned:
            def __init__(self):
                self.tombstones = {}
                self.retired = []
                self.live = set()

            def on_complete(self, tid, outcome):
                self.tombstones[tid] = outcome
                self.retired.append(tid)
                self.live.add(tid)

            def expire(self, tid):
                self.tombstones.pop(tid, None)
                self.live.discard(tid)

            def sweep(self):
                self.retired = [t for t in self.retired if t.alive]
        """)
    report = run_lint(root=tmp_path, rule_ids=["unbounded-growth"])
    assert report.findings == []


def test_unbounded_growth_ignores_init_and_delegation(tmp_path):
    _write(tmp_path, "core/clean.py", """
        class Clean:
            def __init__(self, diskman, names):
                self.diskman = diskman
                self.names = []
                for n in names:
                    self.names.append(n)      # construction, not growth

            def on_update(self, record):
                # Delegation: diskman is a component, not a container.
                self.diskman.append(record)
        """)
    report = run_lint(root=tmp_path, rule_ids=["unbounded-growth"])
    assert report.findings == []


def test_unbounded_growth_subscript_assignment_counts(tmp_path):
    _write(tmp_path, "core/subscripted.py", """
        class ByKey:
            def __init__(self):
                self.index = {}

            def on_event(self, key, value):
                self.index[key] = value

        class ByKeyDeleted:
            def __init__(self):
                self.index = {}

            def on_event(self, key, value):
                self.index[key] = value

            def forget(self, key):
                del self.index[key]
        """)
    report = run_lint(root=tmp_path, rule_ids=["unbounded-growth"])
    assert {f.key for f in report.findings} == {"ByKey.index"}


def test_an_unparsable_file_fails_the_run(tmp_path):
    """A file no rule can read must not let the tree lint clean."""
    _write(tmp_path, "sim/broken.py", "def f(:\n")
    with pytest.raises(SyntaxError):
        run_lint(root=tmp_path)


def test_a_rule_id_registers_once():
    with pytest.raises(ValueError, match="duplicate lint rule id"):
        rule("unordered-iteration", "again")(lambda ctx: [])
    assert all_rules()["unordered-iteration"].__name__ \
        == "check_unordered_iteration"


def test_source_line_outside_the_file_is_none():
    assert source_line(["x = 1"], 1) == "x = 1"
    assert source_line(["x = 1"], 2) is None
