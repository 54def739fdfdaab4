"""Chaos framework: schedules, oracles, shrinking, replay, and the
kill-safety regressions the framework's first sweeps uncovered."""

import json

import pytest

from repro.chaos.boundaries import golden_boundaries, systematic_schedules
from repro.chaos.bugs import BUGS, seeded_bug
from repro.chaos.oracles import Violation
from repro.chaos.scenario import ScenarioSpec, run_schedule
from repro.chaos.schedule import (
    FaultEvent,
    FaultSchedule,
    random_schedule,
    random_schedules,
)
from repro.chaos.shrinker import replay, shrink_schedule, write_repro
from repro.chaos.__main__ import main as chaos_main
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.resources import Semaphore


# ------------------------------------------------------------ schedules


def test_fault_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(1.0, "meteor")
    with pytest.raises(ValueError):
        FaultEvent(1.0, "crash")               # crash needs a site
    with pytest.raises(ValueError):
        FaultEvent(1.0, "partition")           # partition needs groups
    with pytest.raises(ValueError):
        FaultEvent(1.0, "loss")                # loss needs a probability


def test_random_schedule_is_seed_deterministic():
    a = random_schedule(("a", "b", "c"), seed=42)
    b = random_schedule(("a", "b", "c"), seed=42)
    assert a.events == b.events
    assert random_schedule(("a", "b", "c"), seed=43).events != a.events


def test_random_schedules_are_prefix_stable():
    few = random_schedules(("a", "b"), 7, 5)
    many = random_schedules(("a", "b"), 7, 10)
    assert [s.events for s in few] == [s.events for s in many[:5]]


def test_schedule_json_round_trip():
    sched = random_schedule(("a", "b", "c"), seed=3, label="rt")
    blob = json.dumps(sched.to_json(), sort_keys=True)
    back = FaultSchedule.from_json(json.loads(blob))
    assert back == sched
    assert json.dumps(back.to_json(), sort_keys=True) == blob


def test_schedule_orders_events_by_time():
    sched = FaultSchedule(events=(
        FaultEvent(200.0, "heal"),
        FaultEvent(100.0, "crash", site="a"),
    ))
    assert [e.time for e in sched.events] == [100.0, 200.0]
    assert sched.horizon() == 200.0


# ------------------------------------------------------------- scenario


def test_fault_free_run_is_clean_and_deterministic():
    spec = ScenarioSpec(protocol="2pc")
    empty = FaultSchedule(label="fault-free")
    first = run_schedule(spec, empty)
    second = run_schedule(spec, empty)
    assert first.ok and second.ok
    assert first.signature == second.signature
    assert set(first.tombstones.values()) == {"committed"}


@pytest.mark.parametrize("protocol,prefix", [
    ("2pc", "914c13c76e99e143"),
    ("nb", "c94ebcfcc10ed513"),
    ("paxos", "fe1f94525d9a4ad7"),
])
def test_fault_free_signature_is_pinned(protocol, prefix):
    """The signature hashes the system tracer's counters, the clock and
    the tombstones: a recorder change that adds, drops or renames one
    counted kind moves it.  Independent of PYTHONHASHSEED."""
    result = run_schedule(ScenarioSpec(protocol=protocol),
                          FaultSchedule(label="fault-free"))
    assert result.ok
    assert result.signature[:16] == prefix


def test_nb_fault_free_run_is_clean():
    result = run_schedule(ScenarioSpec(protocol="nb"),
                          FaultSchedule(label="fault-free"))
    assert result.ok
    assert set(result.tombstones.values()) == {"committed"}


def test_single_crash_with_restart_resolves():
    spec = ScenarioSpec(protocol="2pc")
    sched = FaultSchedule(events=(
        FaultEvent(138.0, "crash", site="a"),
        FaultEvent(5_000.0, "restart", site="a"),
    ), label="coord-crash")
    result = run_schedule(spec, sched)
    assert result.ok, [v.describe() for v in result.violations]


def test_in_sim_exception_becomes_crash_violation(monkeypatch):
    """A protocol assertion tripping mid-run must surface as a 'crash'
    violation, not abort the exploration loop."""
    from repro.core import twophase

    def boom(self, *a, **k):
        raise RuntimeError("seeded explosion")
    monkeypatch.setattr(twophase.TwoPhaseCoordinator,
                        "on_local_prepared", boom)
    result = run_schedule(ScenarioSpec(protocol="2pc"), FaultSchedule())
    assert not result.ok
    assert [v.oracle for v in result.violations] == ["crash"]
    assert "seeded explosion" in result.violations[0].message


# ----------------------------------------------------------- boundaries


def test_golden_boundaries_cover_protocol_window():
    spec = ScenarioSpec(protocol="2pc")
    times = golden_boundaries(spec)
    assert times == sorted(set(times))
    assert len(times) >= 5
    # The commit protocol's message activity lives well inside 1s.
    assert all(0.0 < t < 1_000.0 for t in times)


def test_systematic_schedules_pair_crash_with_restart():
    spec = ScenarioSpec(protocol="2pc")
    scheds = systematic_schedules(spec)[:12]   # two boundaries' worth
    assert scheds
    for sched in scheds:
        kinds = [e.kind for e in sched.events]
        assert kinds == ["crash", "restart"]
        assert sched.events[0].site == sched.events[1].site


# ------------------------------------------- seeded bug, shrink, replay


def test_seeded_bug_registry():
    assert "vote_before_prepare_durable" in BUGS
    with pytest.raises(KeyError):
        with seeded_bug("no_such_bug"):
            pass
    with seeded_bug(None):       # passthrough
        pass


def test_seeded_bug_is_caught_shrunk_and_replayable(tmp_path):
    """The acceptance loop end-to-end: a deliberately broken subordinate
    (YES vote before the prepare record is durable) must be caught by an
    oracle, shrink to a minimal crash/restart pair, and replay
    byte-identically from the written repro."""
    spec = ScenarioSpec(protocol="2pc", bug="vote_before_prepare_durable")
    sched = FaultSchedule(events=(
        FaultEvent(90.0, "heal"),                 # decoy no-op
        FaultEvent(121.0, "crash", site="b"),
        FaultEvent(300.0, "loss", probability=0.0),   # decoy no-op
        FaultEvent(5_121.0, "restart", site="b"),
    ), label="seeded")
    result = run_schedule(spec, sched)
    assert not result.ok
    assert "durability" in {v.oracle for v in result.violations}

    minimal_sched, minimal = shrink_schedule(spec, result)
    assert len(minimal_sched) <= 3
    kinds = {e.kind for e in minimal_sched.events}
    assert "crash" in kinds

    path = tmp_path / "repro.json"
    write_repro(str(path), minimal)
    reproduced, fresh, expected = replay(str(path))
    assert reproduced
    assert fresh.signature == expected


def test_without_bug_same_schedule_is_clean():
    spec = ScenarioSpec(protocol="2pc")
    sched = FaultSchedule(events=(
        FaultEvent(121.0, "crash", site="b"),
        FaultEvent(5_121.0, "restart", site="b"),
    ), label="clean")
    result = run_schedule(spec, sched)
    assert result.ok, [v.describe() for v in result.violations]


def test_shrink_requires_a_failing_result():
    spec = ScenarioSpec(protocol="2pc")
    clean = run_schedule(spec, FaultSchedule())
    with pytest.raises(ValueError):
        shrink_schedule(spec, clean)


# ------------------------------------------------------------------ CLI


def test_cli_small_clean_sweep_exits_zero(capsys):
    rc = chaos_main(["--protocol", "2pc", "--schedules", "3",
                     "--mode", "random", "--seed", "11"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "no invariant violations" in out


def test_cli_seeded_bug_writes_repro_and_replays(tmp_path, capsys):
    out_dir = tmp_path / "repros"
    rc = chaos_main(["--protocol", "2pc", "--schedules", "3", "--seed", "7",
                     "--mode", "random",
                     "--bug", "vote_before_prepare_durable",
                     "--out", str(out_dir)])
    capsys.readouterr()
    assert rc == 1
    repros = sorted(out_dir.glob("repro-*.json"))
    assert repros
    rc = chaos_main(["--replay", str(repros[0])])
    out = capsys.readouterr().out
    assert rc == 0
    assert "reproduced" in out


def test_cli_replay_divergence_detected(tmp_path, capsys):
    out_dir = tmp_path / "repros"
    chaos_main(["--protocol", "2pc", "--schedules", "3", "--seed", "7",
                "--mode", "random",
                "--bug", "vote_before_prepare_durable",
                "--out", str(out_dir)])
    capsys.readouterr()
    path = sorted(out_dir.glob("repro-*.json"))[0]
    data = json.loads(path.read_text())
    data["signature"] = "0" * 64
    path.write_text(json.dumps(data))
    rc = chaos_main(["--replay", str(path)])
    out = capsys.readouterr().out
    assert rc == 2
    assert "DIVERGED" in out


# ------------------------------------------------- kill-safety regression


def test_semaphore_handoff_to_killed_waiter_is_returned():
    """A waiter killed at the instant the semaphore was handed to it must
    pass the unit on, not leak it (the restarted-site CPU starvation bug
    the first systematic sweep found)."""
    kernel = Kernel()
    sem = Semaphore(kernel, value=1, name="cpu")
    order = []

    def holder():
        yield from sem.down()
        order.append("holder")
        from repro.sim.process import Sleep
        yield Sleep(10.0)
        sem.up()

    def victim():
        yield from sem.down()
        order.append("victim")      # never: killed first
        sem.up()

    def survivor():
        yield from sem.down()
        order.append("survivor")
        sem.up()

    Process(kernel, holder(), "holder")
    victim_proc = Process(kernel, victim(), "victim")
    Process(kernel, survivor(), "survivor")
    # Kill the victim exactly when the unit is released and handed over.
    kernel.schedule(10.0, victim_proc.kill)
    kernel.run()
    assert order == ["holder", "survivor"]
    assert sem.value == 1           # no leaked capacity


def test_nb_pledge_and_replicate_never_share_a_site():
    """Regression for the takeover self-pledge split-brain: a partition
    flap that once let site b ack a replicate while its own takeover
    counted it pledged.  Both quorum sets must stay disjoint."""
    spec = ScenarioSpec(protocol="nb")
    sched = random_schedules(("a", "b", "c"), 7, 31)[30]
    result = run_schedule(spec, sched)
    assert result.ok, [v.describe() for v in result.violations]
    assert len(set(result.tombstones.values())) == 1


def test_violation_json_round_trip():
    v = Violation(oracle="atomicity", message="split", site="b")
    assert Violation.from_json(v.to_json()) == v
