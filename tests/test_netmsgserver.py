"""Unit tests for the NetMsgServer: name service + remote RPC."""

import pytest

from repro.config import rt_pc_profile
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.netmsgserver import NameDirectory, NetMsgServer
from repro.mach.site import Site
from repro.net.lan import Lan
from repro.servers.comman import CommunicationManager
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.rng import RngStreams
from repro.sim.tracing import Tracer


def build_pair():
    k = Kernel()
    cost = rt_pc_profile().with_overrides(datagram_send_jitter=0.0,
                                          datagram_jitter_base=0.0,
                                          datagram_jitter_per_load=0.0)
    tracer = Tracer()
    lan = Lan(k, cost, RngStreams(0), tracer)
    fabric = IpcFabric(k, cost, tracer)
    directory = NameDirectory()
    sites = {}
    nms = {}
    for name in ("a", "b"):
        site = Site(k, name, cost)
        lan.register_site(name, site)
        fabric.sites[name] = site
        sites[name] = site
        nms[name] = NetMsgServer(k, lan, directory, name, cost, tracer)
    return k, sites, nms, directory, fabric


def test_directory_register_lookup():
    k, sites, nms, directory, fabric = build_pair()
    port = sites["b"].create_port("svc")
    directory.register("svc", "b", port)
    assert directory.lookup("svc") == ("b", port)
    assert directory.services() == ["svc"]
    with pytest.raises(KeyError):
        directory.lookup("nothing-registered")


def test_remote_rpc_round_trip_is_paper_19_1ms():
    k, sites, nms, directory, fabric = build_pair()
    port = sites["b"].create_port("svc")

    def server():
        msg = yield from port.receive()
        fabric.reply(msg, msg.reply("pong"))

    def client():
        reply = yield from nms["a"].remote_call("b", port,
                                                Message(kind="ping"))
        return (reply.kind, k.now)

    Process(k, server())
    proc = Process(k, client())
    k.run()
    kind, elapsed = proc.done.value
    assert kind == "pong"
    assert elapsed == pytest.approx(19.1, abs=0.01)


def test_remote_rpc_timeout_on_dead_destination():
    k, sites, nms, directory, fabric = build_pair()
    port = sites["b"].create_port("svc")
    sites["b"].crash()

    def client():
        reply = yield from nms["a"].remote_call("b", port,
                                                Message(kind="ping"),
                                                timeout=100.0)
        return reply

    proc = Process(k, client())
    k.run()
    assert proc.done.value is None
    assert k.now >= 100.0


def test_remote_rpc_to_a_destroyed_port_is_dropped_at_arrival():
    """The site is up but the port died (its server was torn down): the
    request is dropped where it lands, traced, and the caller times out."""
    k, sites, nms, directory, fabric = build_pair()
    port = sites["b"].create_port("svc")
    port.destroy()

    def client():
        return (yield from nms["a"].remote_call("b", port,
                                                Message(kind="ping"),
                                                timeout=100.0))

    proc = Process(k, client())
    k.run()
    assert proc.done.value is None
    assert [s.site for s in nms["b"].tracer.of_kind("nms.dead_port")] == ["b"]


def test_call_service_local_is_plain_ipc():
    """A service on the caller's own site: the ComMan looks it up in the
    NetMsgServer's directory and makes one plain IPC round trip."""
    k, sites, nms, directory, fabric = build_pair()
    port = sites["a"].create_port("svc")
    directory.register("svc", "a", port)
    comman = CommunicationManager(k, sites["a"], fabric, nms["a"],
                                  nms["a"].cost, nms["a"].tracer)

    def server():
        msg = yield from port.receive()
        fabric.reply(msg, msg.reply("ok"))

    def client():
        reply = yield from comman.call_service("svc", Message(kind="x"))
        return (reply.kind, k.now)

    Process(k, server())
    proc = Process(k, client())
    k.run()
    assert proc.done.value == ("ok", 3.0)


def test_remote_rpc_respects_partitions():
    k, sites, nms, directory, fabric = build_pair()
    port = sites["b"].create_port("svc")
    lan = nms["a"].lan
    lan.partition([["a"], ["b"]])

    def client():
        reply = yield from nms["a"].remote_call("b", port,
                                                Message(kind="ping"),
                                                timeout=50.0)
        return reply

    proc = Process(k, client())
    k.run()
    assert proc.done.value is None
