"""Unit tests for the token-ring LAN model."""

import pytest

from repro.config import rt_pc_profile
from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer


def quiet_cost(**overrides):
    """Cost model with all randomness off, for exact-latency asserts."""
    base = dict(datagram_send_jitter=0.0, datagram_jitter_base=0.0,
                datagram_jitter_per_load=0.0)
    base.update(overrides)
    return rt_pc_profile().with_overrides(**base)


def build(cost=None, seed=0):
    k = Kernel()
    lan = Lan(k, cost or quiet_cost(), RngStreams(seed), Tracer())
    for name in ("a", "b", "c"):
        lan.register_site(name, None)
    return k, lan


def test_unicast_latency_is_datagram_constant():
    k, lan = build()
    arrived = []
    lan.unicast("a", "b", "payload", lambda p: arrived.append((p, k.now)))
    k.run()
    assert arrived == [("payload", 10.0)]


def test_back_to_back_sends_serialize_at_nic():
    """The paper: the third prepare leaves ~3.4 ms after the first."""
    k, lan = build()
    arrivals = []
    for i in range(3):
        lan.unicast("a", "b", i, lambda p: arrivals.append((p, k.now)))
    k.run()
    times = [t for _, t in sorted(arrivals)]
    assert times[0] == pytest.approx(10.0)
    assert times[1] == pytest.approx(11.7)
    assert times[2] == pytest.approx(13.4)


def test_multicast_single_cycle_and_shared_transit():
    k, lan = build()
    arrivals = []
    lan.multicast("a", ["b", "c"], "m",
                  lambda d: (lambda p: arrivals.append((d, p, k.now))))
    k.run()
    # simultaneous, one send cycle
    assert sorted(arrivals) == [("b", "m", 10.0), ("c", "m", 10.0)]


def test_partition_drops_cross_group_traffic():
    k, lan = build()
    arrived = []
    lan.partition([["a"], ["b", "c"]])
    lan.unicast("a", "b", "x", arrived.append)
    lan.unicast("b", "c", "y", arrived.append)
    k.run()
    assert arrived == ["y"]
    assert lan.dropped == 1
    assert lan.dropped_partition == 1
    assert lan.dropped_loss == 0 and lan.dropped_dead == 0


def test_heal_restores_connectivity():
    k, lan = build()
    lan.partition([["a"], ["b"]])
    lan.heal()
    arrived = []
    lan.unicast("a", "b", "x", arrived.append)
    k.run()
    assert arrived == ["x"]


def test_reachable_reflects_partition():
    __, lan = build()
    assert lan.reachable("a", "b")
    lan.partition([["a"], ["b"]])
    assert not lan.reachable("a", "b")
    assert not lan.reachable("b", "c")  # b has its own group; c stayed in 0
    assert lan.reachable("a", "a")
    # Sites in the same named group reach each other; unnamed sites
    # stay together in group 0.
    lan.partition([["b", "c"]])
    assert lan.reachable("b", "c")
    assert not lan.reachable("a", "b")


def test_crashed_destination_loses_mail():
    class FakeSite:
        alive = True

    k = Kernel()
    lan = Lan(k, quiet_cost(), RngStreams(0), Tracer())
    site_b = FakeSite()
    lan.register_site("a", FakeSite())
    lan.register_site("b", site_b)
    arrived = []
    lan.unicast("a", "b", "x", arrived.append)
    site_b.alive = False  # crashes while the message is in flight
    k.run()
    assert arrived == []
    assert lan.dropped == 1
    assert lan.dropped_dead == 1
    assert lan.dropped_partition == 0 and lan.dropped_loss == 0


def test_crashed_source_cannot_send():
    class FakeSite:
        alive = False

    k = Kernel()
    lan = Lan(k, quiet_cost(), RngStreams(0), Tracer())
    lan.register_site("a", FakeSite())
    lan.register_site("b", None)
    arrived = []
    lan.unicast("a", "b", "x", arrived.append)
    k.run()
    assert arrived == []


def test_message_loss_probability():
    cost = quiet_cost()
    k = Kernel()
    lan = Lan(k, cost, RngStreams(0), Tracer())
    lan.register_site("a", None)
    lan.register_site("b", None)
    lan.loss_probability = 0.5
    arrived = []
    for i in range(200):
        lan.unicast("a", "b", i, arrived.append)
    k.run()
    assert 50 < len(arrived) < 150  # roughly half


def test_jitter_grows_with_load():
    cost = rt_pc_profile().with_overrides(datagram_send_jitter=0.0,
                                          datagram_jitter_base=0.5,
                                          datagram_jitter_per_load=3.0)
    # Measure mean transit when alone vs amid heavy traffic.
    def mean_transit(background):
        k = Kernel()
        lan = Lan(k, cost, RngStreams(1), Tracer())
        for name in ("a", "b", "c"):
            lan.register_site(name, None)
        samples = []
        for i in range(100):
            base = i * 100.0
            if background:
                for j in range(8):
                    k.schedule(base, lan.unicast, "c", "b", None,
                               lambda p: None)
            def send(t0=base):
                sent_at = k.now
                lan.unicast("a", "b", None,
                            lambda p, s=sent_at: samples.append(k.now - s))
            k.schedule(base + 0.1, send)
        k.run()
        return sum(samples) / len(samples)

    assert mean_transit(True) > mean_transit(False) + 1.0


def test_send_jitter_charged_per_event_not_per_destination():
    cost = rt_pc_profile().with_overrides(datagram_send_jitter=5.0,
                                          datagram_jitter_base=0.0,
                                          datagram_jitter_per_load=0.0)
    k = Kernel()
    lan = Lan(k, cost, RngStreams(3), Tracer())
    for name in ("a", "b", "c", "d"):
        lan.register_site(name, None)
    arrivals = []
    lan.multicast("a", ["b", "c", "d"], "m",
                  lambda d: (lambda p: arrivals.append(k.now)))
    k.run()
    assert len(set(arrivals)) == 1  # one draw for the whole group


def test_drop_counters_split_by_cause():
    class FakeSite:
        alive = True

    k = Kernel()
    tracer = Tracer()
    lan = Lan(k, quiet_cost(), RngStreams(0), tracer)
    sites = {name: FakeSite() for name in ("a", "b", "c")}
    for name, site in sites.items():
        lan.register_site(name, site)

    # Partition drop: a -> b across the boundary.
    lan.partition([["a"], ["b", "c"]])
    assert lan.partitioned
    lan.unicast("a", "b", "x", lambda p: None)
    k.run()
    lan.heal()
    assert not lan.partitioned

    # Dead-destination drop: c dies while mail is in flight.
    lan.unicast("a", "c", "x", lambda p: None)
    sites["c"].alive = False
    k.run()
    sites["c"].alive = True

    # Loss drop: force certain loss for one send.
    lan.loss_probability = 0.999999
    lan.unicast("a", "b", "x", lambda p: None)
    k.run()

    assert lan.drop_counts() == {"loss": 1, "partition": 1, "dead": 1,
                                 "total": 3}
    assert lan.dropped == 3
    assert tracer.counters.get("net.drop.partition") == 1
    assert tracer.counters.get("net.drop.dead") == 1
    assert tracer.counters.get("net.lost") == 1


def test_dead_source_counts_as_dead_drop():
    class FakeSite:
        alive = False

    k = Kernel()
    tracer = Tracer()
    lan = Lan(k, quiet_cost(), RngStreams(0), tracer)
    lan.register_site("a", FakeSite())
    lan.register_site("b", None)
    lan.unicast("a", "b", "x", lambda p: None)
    lan.multicast("a", ["b"], "x", lambda d: (lambda p: None))
    k.run()
    assert lan.dropped_dead == 2
    assert tracer.counters.get("net.drop.dead") == 2
