"""Exact work, pinned without the clock (ROADMAP item 4).

The conformance scenario's TranMan leg is fully determined — three
sites, the zero-jitter ``conformance_cost()``, one minimal transaction
per protocol family — so the number of kernel events it fires and the
number of inputs each TranMan pool handles repeat exactly.  A change
that claims less work on the simulated site's hot paths moves these
literals down and says so; one that adds a hop nobody priced moves them
up and fails here, on any host, at any speed.
"""

import re

import pytest

from repro.config import SystemConfig
from repro.core.outcomes import Outcome, ProtocolKind
from repro.core.tid import TID
from repro.live.conformance import tranman_leg
from repro.live.scenario import conformance_scenario, run_scenario_steps
from repro.live.simhost import build_sim_cluster
from repro.mach.message import Message
from repro.system import CamelotSystem


class _CountingMonitor:
    """The ``Kernel.monitor`` protocol, counting dispatches."""

    def __init__(self):
        self.fired = 0

    def on_schedule(self, seq):
        pass

    def before_fire(self, time, seq, fn, args):
        self.fired += 1


def test_conformance_leg_fires_exactly_this_many_events():
    scenario = conformance_scenario()
    system, transcript = tranman_leg(scenario)
    monitor = _CountingMonitor()
    system.kernel.monitor = monitor
    system.run_for(scenario.horizon_ms)
    assert len(transcript.entries) == 36
    # Every input a pool thread served: application calls, server joins
    # and the 36 datagrams above (11 + 12 + 13 taken per site).
    assert {site: system.tranman(site).pool.handled
            for site in scenario.sites} == \
        {"alpha": 16, "beta": 17, "gamma": 18}
    # Measured on this tree.  A forwarding process between the datagram
    # layer and the request port would add one wake per datagram taken
    # (2,070 with one pump per site).  2,033 until the work that stood
    # for nothing went: the disk manager's tickless sweep fires 105
    # times where it polled 1,191 and its pager 30 for 33, and the 72
    # receivers ``IpcFabric._deliver`` / ``_trigger_reply`` wake run in
    # that callback's turn instead of a second one (872).  The 36
    # datagrams above wake their pool thread in the arrival's own turn
    # too (``TransactionManager._take_datagram``): 872 - 36 = 836.
    assert monitor.fired == 836


def test_a_pool_thread_dequeues_the_message_the_sender_sent():
    """No envelope and no Mach wrapper: the object a ``SendDatagram``
    effect carried is, by identity, what the destination's request port
    hands a pool thread."""
    scenario = conformance_scenario()
    system, transcript = tranman_leg(scenario)
    dequeued = []
    for site in scenario.sites:
        pool = system.tranman(site).pool

        def handler(msg, handle=pool.handler):
            dequeued.append(msg)
            return handle(msg)

        pool.handler = handler
    system.run_for(scenario.horizon_ms)
    datagrams = [m for m in dequeued if not isinstance(m, Message)]
    assert len(dequeued) == 16 + 17 + 18 and len(datagrams) == 36
    assert sorted(map(id, datagrams)) == \
        sorted(id(message) for _, _, message in transcript.entries)


def test_sitehost_leg_fires_exactly_this_many_events():
    """The SiteHost-over-kernel leg rides the TranMan's wire
    (``DatagramService`` over ``Lan``).  Literals measured on the
    private LAN path that wire replaced: one wire fires exactly the
    events, deliveries and per-site counts the private one did."""
    scenario = conformance_scenario()
    kernel, hosts, transcript = build_sim_cluster(
        list(scenario.sites), scenario.cost, votes=scenario.votes,
        prepare_ms=scenario.sim_prepare_ms)
    monitor = _CountingMonitor()
    kernel.monitor = monitor
    for host in hosts.values():
        host.start_sweeps()
    run_scenario_steps(scenario, hosts, at=kernel.schedule)
    kernel.run(until=scenario.horizon_ms)
    endpoints = {site: host.substrate.dgram for site, host in hosts.items()}
    assert len(transcript.entries) == 39
    assert endpoints["alpha"].lan.delivered == 39
    assert {site: (e.sent, e.received) for site, e in endpoints.items()} == \
        {"alpha": (12, 12), "beta": (13, 14), "gamma": (14, 13)}
    assert monitor.fired == 327


def test_a_booted_site_runs_exactly_these_processes():
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    names = sorted(p.name for p in system.runtime("a").site.processes)
    # 20 TranMan + 8 ComMan + 4 data-server pool threads, and four
    # background loops: nothing stands between the datagram layer and
    # the TranMan's pool.
    assert len(names) == 36
    assert [n for n in names if not re.search(r"\.t\d+$", n)] == [
        "a/diskman.pager", "a/diskman.sweep",
        "a/tranman.orphans", "a/tranman.piggyback"]


def test_an_idle_system_fires_almost_nothing():
    """No work, no events: over ten simulated seconds three booted
    sites fire each process's first step (108), the still-polled
    ``tranman.piggyback`` every 50 ms (3 x 200) and the orphan reaper
    once per site — and nothing from the disk manager, whose sweep and
    pager park until something is appended or dirtied."""
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1, "c": 1}))
    monitor = _CountingMonitor()
    system.kernel.monitor = monitor
    system.run_for(1_000.0)
    armed = system.kernel.pending
    assert armed == 6  # one piggyback and one orphan timer per site
    system.run_for(9_000.0)
    assert monitor.fired == 108 + 600 + 3
    assert system.kernel.pending == armed


@pytest.mark.parametrize("protocol", list(ProtocolKind))
def test_message_bodies_carry_tids_not_their_strings(protocol, monkeypatch):
    """Inside a site a Mach message body carries the TID itself: serial
    distributed commits over two sites parse no TID string, and every
    body ``tid`` a data server receives is a :class:`TID`."""
    parsed = []
    real_parse = TID.parse.__func__
    monkeypatch.setattr(TID, "parse", classmethod(
        lambda cls, text: parsed.append(text) or real_parse(cls, text)))
    system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}))
    received = []
    for site in ("a", "b"):
        pool = system.server(f"server0@{site}").pool

        def handler(msg, handle=pool.handler):
            received.append(msg.body.get("tid"))
            return handle(msg)

        pool.handler = handler
    app = system.application("a")
    services = system.default_services()
    assert len(services) == 2

    def serial():
        outcomes = []
        for op in ("write", "read", "write"):
            record = yield from app.minimal_transaction(
                services, op=op, protocol=protocol)
            outcomes.append(record.outcome)
        return outcomes

    assert system.run_process(serial()) == [Outcome.COMMITTED] * 3
    system.run_for(2_000.0)
    assert parsed == []
    # Per transaction: an operation and a prepare at each server, and
    # each written-to server's drop_locks.
    assert len(received) >= 3 * 4
    assert all(type(tid) is TID for tid in received)
