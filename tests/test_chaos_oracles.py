"""The chaos oracles fire: each violation arm, on a real end state.

The sweeps only ever show the oracles silent, which a deleted arm would
also be.  Here each test runs the chaos transaction to a clean commit on
a real :class:`CamelotSystem`, breaks the one fact its oracle judges (a
split tombstone, a clobbered ``x``, a held lock, a site left in doubt,
an undecided live majority), and asserts the exact ``Violation``.
"""

import pytest

from repro.chaos.oracles import (OracleContext, Violation, check_atomicity,
                                 check_delayed_commit, check_durability,
                                 check_lock_leakage, check_resolution)
from repro.chaos.scenario import ScenarioSpec, build_system, start_workload
from repro.chaos.schedule import FaultSchedule
from repro.core.outcomes import Outcome
from repro.core.tid import TID
from repro.servers.lockmgr import LockMode


def _settled(protocol="2pc", workload=start_workload):
    """The chaos transaction run for 3 s on a real system: with the
    default workload it commits and every oracle is silent."""
    spec = ScenarioSpec(protocol=protocol)
    system = build_system(spec)
    state = workload(system, spec)
    system.run_for(3_000.0)
    ctx = OracleContext(system=system, spec=spec,
                        schedule=FaultSchedule(), state=state)
    return ctx, system.tranman


def test_atomicity_fires_on_a_split_tombstone():
    ctx, tranman = _settled()
    tranman("b").tombstones[ctx.tid] = Outcome.ABORTED
    assert check_atomicity(ctx) == [Violation(
        "atomicity",
        "split decision for T1@a: application=committed, "
        "complete@a=committed, tombstone@a=committed, "
        "tombstone@b=aborted, tombstone@c=committed")]


def test_durability_fires_on_a_clobbered_value():
    ctx, _ = _settled()
    ctx.system.server("server0@b").values["x"] = 0
    assert check_durability(ctx) == [
        Violation("durability",
                  "site decided committed but x=0 (expected 9)", site="b"),
        Violation("durability",
                  "transaction committed but x=0 after repair "
                  "(expected 9)", site="b"),
    ]


def test_delayed_commit_fires_on_a_heuristic_decision():
    ctx, _ = _settled()
    ctx.system.tracer.record(ctx.system.kernel.now, "2pc.heuristic_damage",
                             site="b")
    assert check_delayed_commit(ctx) == [Violation(
        "delayed-commit",
        "1 2pc.heuristic_damage event(s): chaos scenarios must resolve "
        "without heuristic decisions")]


def test_delayed_commit_fires_on_a_prepared_site_left_in_doubt():
    ctx, tranman = _settled()
    del tranman("b").tombstones[ctx.tid]
    assert check_delayed_commit(ctx) == [Violation(
        "delayed-commit",
        "durably prepared site still in doubt after full repair "
        "(coordinator outcome committed)", site="b")]


def test_delayed_commit_fires_on_a_prepared_site_resolved_the_other_way():
    ctx, tranman = _settled()
    tranman("c").tombstones[ctx.tid] = Outcome.ABORTED
    assert check_delayed_commit(ctx) == [Violation(
        "delayed-commit",
        "prepared site resolved aborted but the coordinator decided "
        "committed", site="c")]


def test_locks_fires_on_a_lock_nothing_will_release():
    ctx, _ = _settled()
    ctx.system.server("server0@b").locks.acquire("x", TID.parse("T9@b"),
                                                 LockMode.WRITE)
    assert check_lock_leakage(ctx) == [Violation(
        "locks",
        "server0@b still holds locks ['x'] with no machine left to "
        "release them", site="b")]


def _written_never_committed(system, spec):
    """Every write done, then the application never calls commit."""
    app = system.application(spec.coordinator)
    state = {"written": []}

    def body():
        tid = yield from app.begin(protocol=spec.protocol_kind)
        state["tid"] = str(tid)
        for service in system.default_services():
            yield from app.write(tid, service, "x", 9)
            state["written"].append(service)

    system.spawn(body(), name="chaos.txn")
    return state


def test_resolution_fires_when_no_site_ever_decided():
    # Stopped before the orphan sweep (30 s) aborts the idle family.
    ctx, _ = _settled(workload=_written_never_committed)
    assert ctx.all_writes_done() and not ctx.decided()
    assert check_resolution(ctx) == [Violation(
        "resolution",
        "transaction reached the commit protocol but no site ever decided")]


@pytest.mark.parametrize("protocol", ["nb", "paxos"])
def test_resolution_fires_on_an_undecided_live_majority(protocol):
    ctx, tranman = _settled(protocol)
    ctx.system.crash_site("c")
    del tranman("b").tombstones[ctx.tid]
    assert check_resolution(ctx) == [Violation(
        "resolution",
        f"live site undecided despite a live majority under the "
        f"{protocol} protocol (dead: ['c'])", site="b")]
