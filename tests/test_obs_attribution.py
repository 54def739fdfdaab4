"""Live latency attribution vs the paper's static analysis.

The tolerance tests of ISSUE 5: for each canonical scenario the live
critical-path comparable chain must land within tolerance of the static
Table 3 formula, and the per-transaction primitive counts must match the
paper's §4.3 ratios (2 forces / 3 messages for 2PC updates vs 4 forces /
5 messages for non-blocking, counting the on-path messages — the lazy
acks ride after completion).
"""

import pytest

from repro.analysis import static_analysis as sa
from repro.config import SystemConfig
from repro.core.outcomes import Outcome, ProtocolKind
from repro.obs.attribution import attribute_run, compare_static, render_report
from repro.obs.spans import SpanRecorder
from repro.system import CamelotSystem

DRAIN_MS = 300.0


def _run(sites, op, protocol, trials=4):
    system = CamelotSystem(SystemConfig(sites=sites, seed=1))
    recorder = SpanRecorder()
    system.tracer.attach_obs(recorder)
    app = system.application("a")
    services = system.default_services()

    def workload():
        for _ in range(trials + 1):  # first transaction is warmup
            yield from app.minimal_transaction(services, op=op,
                                               protocol=protocol)

    system.run_process(workload())
    system.run_for(DRAIN_MS)
    measured = [r for r in app.history[1:]
                if r.outcome is Outcome.COMMITTED]
    assert len(measured) == trials
    assert recorder.balanced
    return system, recorder, measured


def _summary(system, recorder, measured):
    summary = attribute_run(recorder, [str(r.tid) for r in measured])
    assert summary.n == len(measured)
    # Balance invariant, averaged: attributed + gaps == wall.
    assert summary.attributed_ms + summary.gap_ms == \
        pytest.approx(summary.wall_ms)
    return summary


def test_local_update_matches_static_within_10pct():
    system, recorder, measured = _run({"a": 1}, "write",
                                      ProtocolKind.TWO_PHASE)
    summary = _summary(system, recorder, measured)
    comparison = compare_static(summary,
                                sa.local_completion("write", system.cost))
    assert comparison.within(0.10), f"deviation {comparison.deviation:+.1%}"


def test_twophase_1sub_update_matches_static_within_10pct():
    system, recorder, measured = _run({"a": 1, "b": 1}, "write",
                                      ProtocolKind.TWO_PHASE)
    summary = _summary(system, recorder, measured)
    comparison = compare_static(
        summary, sa.completion("two_phase", "write", 1, system.cost))
    assert comparison.within(0.10), f"deviation {comparison.deviation:+.1%}"


def test_local_read_matches_static_within_15pct():
    system, recorder, measured = _run({"a": 1}, "read",
                                      ProtocolKind.TWO_PHASE)
    summary = _summary(system, recorder, measured)
    comparison = compare_static(summary,
                                sa.local_completion("read", system.cost))
    assert comparison.within(0.15), f"deviation {comparison.deviation:+.1%}"


def test_nonblocking_1sub_update_matches_static_within_15pct():
    system, recorder, measured = _run({"a": 1, "b": 1}, "write",
                                      ProtocolKind.NON_BLOCKING)
    summary = _summary(system, recorder, measured)
    comparison = compare_static(
        summary, sa.completion("non_blocking", "write", 1, system.cost))
    assert comparison.within(0.15), f"deviation {comparison.deviation:+.1%}"


# ------------------------------------------------------------ §4.3 ratios


def _on_path_counts(recorder, record):
    """Per-transaction primitive counts up to the commit point."""
    spans = [s for s in recorder.for_tid(str(record.tid))
             if s.t0 <= record.committed_at]
    forces = [s for s in spans if s.kind == "log.force"]
    datagrams = [s for s in spans
                 if s.kind in ("net.datagram", "net.multicast")]
    return len(forces), len(datagrams)


def test_sec43_two_phase_two_forces_three_messages():
    expected = sa.path_counts("two_phase", "write", 1)
    _, recorder, measured = _run({"a": 1, "b": 1}, "write",
                                 ProtocolKind.TWO_PHASE)
    for record in measured:
        forces, datagrams = _on_path_counts(recorder, record)
        assert forces == expected["log_forces"] == 2
        assert datagrams == expected["datagrams"] == 3


def test_sec43_nonblocking_four_forces_five_messages():
    expected = sa.path_counts("non_blocking", "write", 1)
    _, recorder, measured = _run({"a": 1, "b": 1}, "write",
                                 ProtocolKind.NON_BLOCKING)
    for record in measured:
        forces, datagrams = _on_path_counts(recorder, record)
        assert forces == expected["log_forces"] == 4
        assert datagrams == expected["datagrams"] == 5


def test_sec43_reads_force_nothing():
    _, recorder, measured = _run({"a": 1}, "read", ProtocolKind.TWO_PHASE)
    for record in measured:
        forces, _ = _on_path_counts(recorder, record)
        assert forces == sa.path_counts("two_phase", "read", 0)["log_forces"]
        assert forces == 0


# ---------------------------------------------------------------- reports


def test_render_report_and_exit_predicate():
    system, recorder, measured = _run({"a": 1, "b": 1}, "write",
                                      ProtocolKind.TWO_PHASE)
    summary = _summary(system, recorder, measured)
    static_path = sa.completion("two_phase", "write", 1, system.cost)
    comparison = compare_static(summary, static_path)
    text, ok = render_report(summary, "2PC update, 1 sub",
                             comparison=comparison,
                             static_label=static_path.label, tolerance=0.10,
                             balanced=recorder.balanced)
    assert "critical-path breakdown" in text
    assert "log force" in text
    assert "inter-TranMan datagram" in text
    assert "(unattributed)" in text
    assert "self-checks:" in text and "FAIL" not in text
    assert ok


def test_report_not_ok_when_unbalanced_or_off_static():
    system, recorder, measured = _run({"a": 1}, "write",
                                      ProtocolKind.TWO_PHASE)
    summary = _summary(system, recorder, measured)
    comparison = compare_static(summary,
                                sa.local_completion("write", system.cost))

    def verdict(summary, comparison, tolerance, balanced):
        text, ok = render_report(summary, "local update",
                                 comparison=comparison, tolerance=tolerance,
                                 balanced=balanced)
        # The printed checks and the exit status are the same values.
        assert ok == ("FAIL" not in text and summary.n > 0)
        return ok

    assert not verdict(summary, comparison, 0.10, balanced=False)
    # An absurdly tight tolerance must fail the gate.
    assert not verdict(summary, comparison, 0.0001, recorder.balanced)
    # No committed transaction fails although every printed check is ok.
    empty = attribute_run(recorder, [])
    assert not verdict(empty, None, 0.10, True)
