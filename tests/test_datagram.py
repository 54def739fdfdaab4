"""Unit tests for the TranMan datagram layer."""

from repro.config import SystemConfig, rt_pc_profile
from repro.core.messages import CommitAck
from repro.core.tid import TID
from repro.net.datagram import DatagramService
from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer
from repro.system import CamelotSystem


def build(n=2):
    k = Kernel()
    cost = rt_pc_profile().with_overrides(datagram_send_jitter=0.0,
                                          datagram_jitter_base=0.0,
                                          datagram_jitter_per_load=0.0)
    lan = Lan(k, cost, RngStreams(0), Tracer())
    peers = {}
    services = {}
    for i in range(n):
        name = f"s{i}"
        lan.register_site(name, None)
        services[name] = DatagramService(k, lan, name, Tracer(), peers=peers)
        services[name].got = []
        services[name].receiver = services[name].got.append
    return k, lan, services


def drain(service):
    """What the endpoint handed its registered callable, in order."""
    items, service.got[:] = list(service.got), []
    return items


def test_send_reaches_destination_inbox():
    k, lan, svc = build()
    svc["s0"].send("s1", "hello")
    k.run()
    assert drain(svc["s1"]) == ["hello"]
    assert drain(svc["s0"]) == [] and lan.delivered == 1


def test_loopback_send_skips_the_lan():
    k, lan, svc = build()
    svc["s0"].send("s0", "self")
    k.run()
    assert drain(svc["s0"]) == ["self"]
    assert lan.delivered == 0


def test_identical_sends_both_deliver():
    # Duplicate detection is the receiving machine's idempotence, not
    # this layer's: a retransmission must reach the protocol again.
    k, lan, svc = build()
    svc["s0"].send("s1", "m")
    svc["s0"].send("s1", "m")
    k.run()
    assert len(drain(svc["s1"])) == 2


def test_multicast_reaches_all_and_self():
    k, lan, svc = build(3)
    svc["s0"].multicast(["s0", "s1", "s2"], "announce")
    k.run()
    for name in ("s0", "s1", "s2"):
        assert drain(svc[name]) == ["announce"]


def test_lost_datagram_never_arrives():
    k, lan, svc = build()
    lan.loss_probability = 1.0 - 1e-12  # effectively always
    svc["s0"].send("s1", "m")
    k.run()
    assert drain(svc["s1"]) == []


def test_counters():
    k, lan, svc = build()
    svc["s0"].send("s1", "m")
    k.run()
    drain(svc["s1"])
    assert svc["s0"].sent == 1
    assert svc["s1"].received == 1


def test_mail_in_flight_across_a_restart_reaches_the_new_incarnation():
    k, lan, svc = build()
    svc["s0"].send("s1", "m")
    # s1 restarts while the datagram is on the wire: the new endpoint
    # replaces the old one in the shared registry.
    reborn = DatagramService(k, lan, "s1", Tracer(), peers=svc["s0"].peers)
    got = []
    reborn.receiver = got.append
    k.run()
    assert got == ["m"]
    assert drain(svc["s1"]) == [] and svc["s1"].received == 0


def test_loopback_to_a_site_that_crashes_in_the_same_instant_is_dropped():
    """Loopback skips the LAN's dead-site check, so the datagram reaches
    the dead incarnation's TranMan; its request port is gone, and the
    mail is lost without a DeadPortError out of the kernel loop."""
    system = CamelotSystem(SystemConfig(sites={"a": 1}))
    tranman = system.tranman("a")
    tranman.send("a", CommitAck(tid=TID("T1@a"), sender="a"))
    system.crash_site("a")
    assert tranman.port.dead
    system.run_for(100.0)
    assert system.runtime("a").dgram.received == 1
    assert tranman.pool.handled == 0


def test_multicast_to_self_only_goes_no_further():
    k, lan, svc = build()
    svc["s0"].multicast(["s0"], "m")
    k.run()
    assert drain(svc["s0"]) == ["m"]
    assert svc["s0"].sent == 0 and lan.delivered == 0
    assert lan.tracer.of_kind("net.multicast") == []   # no empty send


def test_arrival_with_no_endpoint_is_dropped_and_traced():
    k, lan, svc = build()
    tracer = svc["s0"].tracer
    svc["s0"].send("s1", "m")
    del svc["s0"].peers["s1"]        # the site went away mid-flight
    k.run()
    assert drain(svc["s1"]) == [] and svc["s1"].received == 0
    assert [e.site for e in tracer.of_kind("net.no_endpoint")] == \
        ["s1"]
