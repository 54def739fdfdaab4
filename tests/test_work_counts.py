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

from repro.config import SystemConfig
from repro.live.conformance import tranman_leg
from repro.live.scenario import conformance_scenario
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
    # (2,070 with one pump per site).
    assert monitor.fired == 2033


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
