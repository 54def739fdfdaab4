"""Multi-process demo cluster: real processes, real ``kill -9``.

Each site is one OS process (``python -m repro.live site``) with its own
WAL file; the driver talks to sites over their TCP control channel and
crashes them with ``SIGKILL`` — no cooperation, no cleanup, exactly the
fail-stop model the paper's recovery story assumes.

Deterministic crash windows: a site launched with ``--hold <token>``
completes the fsync for that force but *suppresses* the continuation —
the precise state a crash between the disk write and the protocol's
next step leaves behind.  The driver polls ``status`` until the hold
registers, then SIGKILLs the process, so "crashed right after forcing
the prepare record" is a scripted, repeatable event rather than a race.

Two scripted demos double as the CI ``live-smoke`` assertions — one
choreography (:func:`_kill_demo`), two sets of arguments:

- :func:`demo_two_phase_subordinate_kill` — subordinate dies
  mid-prepare; coordinator times out and aborts; the restarted
  subordinate recovers in-doubt from its real WAL and resolves by
  inquiry.
- :func:`demo_paxos_leader_kill` — the Paxos Commit *leader* dies after
  durably deciding but before telling anyone; the remaining F+1=2
  acceptors elect candidates and commit without it; the restarted
  leader finds its decision in the WAL and finishes notification.
  Consistency across all three sites is asserted.
"""

from __future__ import annotations

import os
import signal
import socket
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.live.codec import FrameDecoder, encode_control_frame
from repro.live.ports import clear_port_file, wait_port_file

CONTROL_TIMEOUT_S = 5.0
POLL_S = 0.05


class ClusterError(RuntimeError):
    pass


# ----------------------------------------------------------- control IO


def control(run_dir: str, site: str, payload: Dict[str, Any],
            timeout_s: float = CONTROL_TIMEOUT_S) -> Dict[str, Any]:
    """One synchronous control round-trip with a site process."""
    port = wait_port_file(run_dir, site, timeout_s=timeout_s)
    with socket.create_connection(("127.0.0.1", port),
                                  timeout=timeout_s) as sock:
        sock.settimeout(timeout_s)
        sock.sendall(encode_control_frame(payload))
        decoder = FrameDecoder()
        while True:
            data = sock.recv(65536)
            if not data:
                raise ClusterError(f"{site}: connection closed mid-control")
            frames = decoder.feed(data)
            if frames:
                return frames[0][1]


def wait_until(predicate, timeout_s: float, what: str) -> None:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(POLL_S)
    raise ClusterError(f"timed out after {timeout_s}s waiting for {what}")


# ------------------------------------------------------------ processes


def spawn_site(run_dir: str, site: str,
               hold: Sequence[str] = ()) -> subprocess.Popen:
    """Launch one LiveSite process; returns once its port is published."""
    clear_port_file(run_dir, site)
    cmd = [sys.executable, "-m", "repro.live", "site",
           "--name", site, "--dir", run_dir]
    for token in hold:
        cmd += ["--hold", token]
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.Popen(cmd, env=env)
    try:
        wait_port_file(run_dir, site, timeout_s=10.0)
    except TimeoutError as exc:
        proc.kill()
        raise ClusterError(f"site {site} never published its port") from exc
    return proc


def kill9(proc: subprocess.Popen) -> None:
    proc.send_signal(signal.SIGKILL)
    proc.wait()


def stop_site(run_dir: str, site: str, proc: subprocess.Popen) -> None:
    try:
        control(run_dir, site, {"cmd": "stop"}, timeout_s=2.0)
    except (ClusterError, OSError, TimeoutError):
        pass
    try:
        proc.wait(timeout=5.0)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()


def _status(run_dir: str, site: str) -> Dict[str, Any]:
    return control(run_dir, site, {"cmd": "status"})


def _outcome_at(run_dir: str, site: str, tid: str) -> Optional[str]:
    status = _status(run_dir, site)
    return status["tombstones"].get(tid) or status["completions"].get(tid)


# ---------------------------------------------------------------- demos


def _kill_demo(run_dir: str, log: Any, protocol: str, family: str,
               victim: str, hold: str, expected: str,
               resolvers: Sequence[str], killed: str,
               resolved: str) -> Dict[str, str]:
    """The kill -9 choreography, once: alpha coordinates one ``protocol``
    transaction over beta and gamma; ``victim`` wedges after forcing
    ``hold`` and is SIGKILLed; ``resolvers`` must reach ``expected``
    while it is down, the victim after its restart, and nobody may hold
    anything else.  Returns the outcome map of the sites that know one."""
    sites = ["alpha", "beta", "gamma"]
    procs: Dict[str, subprocess.Popen] = {}
    try:
        for s in sites:
            procs[s] = spawn_site(run_dir, s,
                                  hold=[hold] if s == victim else ())
        log(f"cluster up: alpha beta gamma ({victim} holds {hold})")
        begun = control(run_dir, "alpha",
                        {"cmd": "begin", "protocol": protocol,
                         "subs": ["beta", "gamma"]})
        tid = begun["tid"]
        log(f"alpha began {family} transaction {tid}")
        wait_until(lambda: _status(run_dir, victim)["held"],
                   10.0, f"{victim} to reach the {hold} hold")
        kill9(procs.pop(victim))
        log(killed)
        for s in resolvers:
            wait_until(
                lambda s=s: _outcome_at(run_dir, s, tid) == expected,
                30.0, f"{s} to resolve {tid} to {expected} "
                      f"without {victim}")
        log(resolved.format(tid=tid))
        procs[victim] = spawn_site(run_dir, victim)
        log(f"{victim} restarted; recovering from its WAL")
        wait_until(lambda: _outcome_at(run_dir, victim, tid) == expected,
                   20.0, f"recovered {victim} to resolve {tid}")
        if not _status(run_dir, victim)["recovered"]:
            raise ClusterError(f"{victim} did not run recovery at boot")
        outcomes = {s: _outcome_at(run_dir, s, tid) for s in sites}
        log(f"outcomes: {outcomes}")
        for s, outcome in outcomes.items():
            # A bystander may have forgotten (or never learnt) the
            # outcome; it may not hold a different one.
            owes = s == victim or s in resolvers
            if outcome != expected and (owes or outcome is not None):
                raise ClusterError(f"{s} resolved {tid} to {outcome!r}, "
                                   f"expected {expected}")
        return {s: o for s, o in outcomes.items() if o is not None}
    finally:
        for site, proc in procs.items():
            stop_site(run_dir, site, proc)


def demo_two_phase_subordinate_kill(run_dir: str,
                                    log: Any = print) -> Dict[str, str]:
    """Kill a 2PC subordinate mid-prepare; recover it from its real WAL.

    The coordinator's vote timeout fires and presumed abort decides.
    Returns the final per-site outcome map (all "aborted").
    """
    return _kill_demo(
        run_dir, log, protocol="2pc", family="2PC", victim="gamma",
        hold="2pc.prepare_force", expected="aborted", resolvers=("alpha",),
        killed="gamma SIGKILLed with a durable prepare record and "
               "no vote sent",
        resolved="alpha aborted {tid} after vote timeout")


def demo_paxos_leader_kill(run_dir: str, log: Any = print) -> Dict[str, str]:
    """Kill the Paxos Commit leader post-decision; the cluster stays live.

    F=1 with 3 acceptors: the two surviving acceptors are a quorum, so
    the surviving RMs' candidates finish the commit without the leader.
    The restarted leader finds its durable decision and completes
    notification.  Returns the per-site outcome map (all "committed").
    """
    return _kill_demo(
        run_dir, log, protocol="paxos", family="Paxos Commit",
        victim="alpha", hold="pc.decide", expected="committed",
        resolvers=("beta", "gamma"),
        killed="alpha (leader) SIGKILLed: decision durable, nobody told",
        resolved="beta and gamma committed by quorum election — "
                 "non-blocking at F=1 despite a dead leader")


def demo_happy_path(run_dir: str, log: Any = print) -> List[str]:
    """No failures: one commit per protocol family across 3 processes."""
    procs: Dict[str, subprocess.Popen] = {}
    tids: List[str] = []
    try:
        for s in ("alpha", "beta", "gamma"):
            procs[s] = spawn_site(run_dir, s)
        log("cluster up: alpha beta gamma")
        for coordinator, protocol in (("alpha", "2pc"), ("beta", "nb"),
                                      ("gamma", "paxos")):
            subs = [s for s in ("alpha", "beta", "gamma")
                    if s != coordinator]
            begun = control(run_dir, coordinator,
                            {"cmd": "begin", "protocol": protocol,
                             "subs": subs})
            tid = begun["tid"]
            wait_until(
                lambda: _outcome_at(run_dir, coordinator, tid) == "committed",
                20.0, f"{protocol} transaction {tid} to commit")
            log(f"{protocol}: {tid} committed (coordinator {coordinator})")
            tids.append(tid)
        return tids
    finally:
        for site, proc in procs.items():
            stop_site(run_dir, site, proc)
