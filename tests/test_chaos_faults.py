"""Chaos fault modes added with the Paxos Commit family: crash-restart
composites, message duplication, the leader-failover sweep, and the
paxos scenario wiring itself."""

import json

import pytest

from repro.chaos.scenario import PROTOCOLS, ScenarioSpec, run_schedule
from repro.chaos.schedule import (
    DEFAULT_RESTART_DELAY_MS,
    EXTRA_KINDS,
    KINDS,
    FaultEvent,
    FaultSchedule,
    leader_failover_schedules,
)


# ------------------------------------------------------- event mechanics


def test_random_kind_contract_is_frozen():
    """KINDS is part of the random_schedule seed contract: appending to
    it would silently re-map every historical seed.  New fault modes go
    to EXTRA_KINDS (directed schedules only)."""
    assert KINDS == ("crash", "restart", "partition", "heal", "loss")
    assert set(EXTRA_KINDS) == {"crash_restart", "duplicate"}


def test_crash_restart_event_validation_and_timing():
    with pytest.raises(ValueError):
        FaultEvent(1.0, "crash_restart")            # needs a site
    event = FaultEvent(100.0, "crash_restart", site="a")
    assert event.restart_time == 100.0 + DEFAULT_RESTART_DELAY_MS
    custom = FaultEvent(100.0, "crash_restart", site="a", delay=250.0)
    assert custom.restart_time == 350.0
    # Plain events restart (for horizon purposes) at their own time.
    assert FaultEvent(70.0, "heal").restart_time == 70.0


def test_duplicate_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(1.0, "duplicate")                # needs a probability
    event = FaultEvent(1.0, "duplicate", probability=0.3)
    assert event.probability == 0.3


def test_schedule_horizon_covers_the_restart():
    sched = FaultSchedule(events=(
        FaultEvent(100.0, "crash_restart", site="a", delay=9_000.0),
        FaultEvent(400.0, "heal"),
    ))
    assert sched.horizon() == 9_100.0


def test_new_kinds_json_round_trip():
    sched = FaultSchedule(events=(
        FaultEvent(40.0, "partition", groups=(("a",), ("b", "c"))),
        FaultEvent(60.0, "duplicate", probability=0.25),
        FaultEvent(130.0, "crash_restart", site="b", delay=4_000.0),
    ), label="rt")
    blob = json.dumps(sched.to_json(), sort_keys=True)
    back = FaultSchedule.from_json(json.loads(blob))
    assert back == sched
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_leader_failover_sweep_shape():
    scheds = leader_failover_schedules(("a", "b", "c"), "a")
    # Per crash instant: crash-dead, crash-restart, duplicate+restart.
    assert len(scheds) == 15
    for sched in scheds:
        assert sched.label.startswith("failover/")
        assert all(e.site in (None, "a") for e in sched.events)
    kinds = [tuple(e.kind for e in s.events) for s in scheds[:3]]
    assert ("crash",) in kinds
    assert ("crash_restart",) in kinds
    assert ("duplicate", "crash_restart") in kinds


# ----------------------------------------------------- paxos scenario runs


def test_paxos_protocol_is_registered():
    assert "paxos" in PROTOCOLS


def test_paxos_fault_free_run_is_clean_and_deterministic():
    spec = ScenarioSpec(protocol="paxos")
    empty = FaultSchedule(label="fault-free")
    first = run_schedule(spec, empty)
    second = run_schedule(spec, empty)
    assert first.ok, [v.describe() for v in first.violations]
    assert first.signature == second.signature
    assert set(first.tombstones.values()) == {"committed"}


def test_paxos_survives_permanent_leader_crash():
    """The F-fault-tolerance claim at its sharpest: leader a dies
    mid-protocol and never returns, yet both survivors decide."""
    spec = ScenarioSpec(protocol="paxos")
    result = run_schedule(spec, FaultSchedule(
        events=(FaultEvent(140.0, "crash", site="a"),),
        label="leader-dead"))
    assert result.ok, [v.describe() for v in result.violations]
    assert result.tombstones.get("b") is not None
    assert result.tombstones.get("c") is not None


def test_crash_restart_composite_resolves_for_all_families():
    sched = FaultSchedule(events=(
        FaultEvent(130.0, "crash_restart", site="a", delay=5_000.0),
    ), label="bounce")
    for protocol in sorted(PROTOCOLS):
        result = run_schedule(ScenarioSpec(protocol=protocol), sched)
        assert result.ok, (protocol,
                           [v.describe() for v in result.violations])


def test_duplication_is_safe_for_all_families():
    """Satellite claim: every family's handlers are duplicate-safe.
    With 40% of datagrams doubled the fault-free run must still commit
    everywhere, with no oracle violations."""
    sched = FaultSchedule(events=(
        FaultEvent(1.0, "duplicate", probability=0.4),
    ), label="dup40")
    for protocol in sorted(PROTOCOLS):
        result = run_schedule(ScenarioSpec(protocol=protocol), sched)
        assert result.ok, (protocol,
                           [v.describe() for v in result.violations])
        assert set(result.tombstones.values()) == {"committed"}, protocol


def test_duplication_runs_are_deterministic():
    sched = FaultSchedule(events=(
        FaultEvent(1.0, "duplicate", probability=0.4),
    ), label="dup-det")
    spec = ScenarioSpec(protocol="paxos")
    assert run_schedule(spec, sched).signature == \
        run_schedule(spec, sched).signature
