"""Multi-process cluster tests: real ``kill -9``, real restarts, real
WAL recovery.

These drive the same scripted demos the CI ``live-smoke`` job runs —
each site is its own OS process speaking the frame codec over loopback
TCP, crash windows are pinned with ``--hold`` tokens, and recovery at
restart reads the actual on-disk WAL through the simulator's own
:func:`repro.servers.recovery.analyze` discriminators.  Slowest tests
in the repo by design; each stays well inside the 60 s smoke budget."""

import os

import pytest

from repro.live.__main__ import main
from repro.live.cluster import (
    control,
    demo_happy_path,
    demo_paxos_leader_kill,
    demo_two_phase_subordinate_kill,
    spawn_site,
    stop_site,
    wait_until,
)
from repro.live.walfile import read_records


def _quiet(_msg: str) -> None:
    pass


class TestHappyPath:
    def test_one_commit_per_family_across_processes(self, tmp_path):
        tids = demo_happy_path(str(tmp_path), log=_quiet)
        assert len(tids) == 3
        assert {t.split("@")[1] for t in tids} == {"alpha", "beta", "gamma"}
        # Every site left a non-trivial WAL on disk.
        for s in ("alpha", "beta", "gamma"):
            assert read_records(str(tmp_path / f"{s}.wal"))


class TestSubordinateKill9:
    def test_two_phase_subordinate_killed_mid_prepare(self, tmp_path):
        outcomes = demo_two_phase_subordinate_kill(str(tmp_path), log=_quiet)
        assert outcomes["alpha"] == "aborted"
        assert outcomes["gamma"] == "aborted"
        # The killed site's WAL holds the durable prepare that made the
        # transaction in-doubt — proof the hold window did its job.
        kinds = [r.kind.name for r in
                 read_records(str(tmp_path / "gamma.wal"))]
        assert "PREPARE" in kinds
        assert "ABORT" in kinds  # written during recovery resolution


class TestLeaderKill9:
    def test_paxos_leader_killed_after_durable_decision(self, tmp_path):
        outcomes = demo_paxos_leader_kill(str(tmp_path), log=_quiet)
        assert outcomes == {"alpha": "committed", "beta": "committed",
                            "gamma": "committed"}


class TestRestartDiscovery:
    def test_restarted_site_found_on_fresh_ephemeral_port(self, tmp_path):
        """Port hygiene end to end: kill a site, restart it (new
        ephemeral port), and a peer's next send still reaches it via the
        re-read port file."""
        run_dir = str(tmp_path)
        alpha = spawn_site(run_dir, "alpha")
        try:
            first_port = control(run_dir, "alpha", {"cmd": "ping"})
            assert first_port["ok"]
            old = int(open(os.path.join(run_dir, "alpha.port")).read())
            stop_site(run_dir, "alpha", alpha)
            alpha = spawn_site(run_dir, "alpha")
            new = int(open(os.path.join(run_dir, "alpha.port")).read())
            # Ephemeral rebinding: same name, (almost surely) new port,
            # and control traffic follows the file, not the old socket.
            assert control(run_dir, "alpha", {"cmd": "ping"})["ok"]
            beta = spawn_site(run_dir, "beta")
            try:
                begun = control(run_dir, "beta",
                                {"cmd": "begin", "protocol": "2pc",
                                 "subs": ["alpha"]})
                tid = begun["tid"]
                wait_until(
                    lambda: (control(run_dir, "beta", {"cmd": "status"})
                             ["tombstones"].get(tid)) == "committed",
                    20.0, "commit across the restarted site")
                # Traces are counted per kind, not kept; the §3.2 send
                # accounting is among them (the coordinator's prepare
                # and its commit notice, plus any retransmission).
                traces = control(run_dir, "beta", {"cmd": "status"})["traces"]
                assert traces["live.complete"] == 1
                assert traces["tranman.datagram"] >= 2
                # The control commands nobody sent are gone.
                for cmd in ("hold", "transcript"):
                    answer = control(run_dir, "beta", {"cmd": cmd})
                    assert not answer["ok"] and "unknown" in answer["error"]
            finally:
                stop_site(run_dir, "beta", beta)
            assert isinstance(old, int) and isinstance(new, int)
        finally:
            stop_site(run_dir, "alpha", alpha)


class TestSiteFlags:
    @pytest.mark.parametrize("flag", [
        ["--wire-ms", "5"], ["--force-floor-ms", "5"],
        ["--prepare-ms", "5"], ["--vote", "beta=no"]],
        ids=lambda flag: flag[0])
    def test_flags_nothing_passed_are_usage_errors(self, flag, tmp_path,
                                                   capsys):
        """Pacing and scripted votes are ``LiveSite`` arguments (the
        conformance harness and the benchmark pass them in-process); the
        site process takes a name, a directory and ``--hold`` only."""
        with pytest.raises(SystemExit) as exit_info:
            main(["site", "--name", "alpha", "--dir", str(tmp_path), *flag])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
