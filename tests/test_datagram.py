"""Unit tests for the TranMan datagram layer."""

from repro.config import rt_pc_profile
from repro.net.datagram import DatagramService
from repro.net.lan import Lan
from repro.sim.kernel import Kernel
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer


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
    return k, lan, services


def drain(service):
    items = []
    while True:
        ok, item = service.inbox.try_get()
        if not ok:
            break
        items.append(item)
    return items


def test_send_reaches_destination_inbox():
    k, lan, svc = build()
    svc["s0"].send("s1", "hello")
    k.run()
    got = drain(svc["s1"])
    assert [d.payload for d in got] == ["hello"]
    assert got[0].src == "s0"


def test_loopback_send_skips_the_lan():
    k, lan, svc = build()
    svc["s0"].send("s0", "self")
    k.run()
    assert [d.payload for d in drain(svc["s0"])] == ["self"]
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
        assert [d.payload for d in drain(svc[name])] == ["announce"]


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
