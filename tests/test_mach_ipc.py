"""Unit tests for messages, ports, and the local IPC fabric."""

import pytest

from repro.config import rt_pc_profile
from repro.mach.ipc import IpcFabric
from repro.mach.message import Message
from repro.mach.ports import DeadPortError, Port
from repro.mach.site import Site
from repro.sim.kernel import Kernel
from repro.sim.process import Process
from repro.sim.tracing import Tracer

from tests.conftest import run_proc


def make_fabric(kernel):
    return IpcFabric(kernel, rt_pc_profile(), Tracer())


# ------------------------------------------------------------- Message


def test_message_reply_preserves_trans():
    msg = Message(kind="op", trans={"tid": "T1@a"})
    reply = msg.reply("op_ok", value=3)
    assert reply.trans == {"tid": "T1@a"}
    assert reply.body == {"value": 3}


# ---------------------------------------------------------------- Port


def test_port_receive_fifo():
    k = Kernel()
    port = Port(k, "a", name="p")
    port.enqueue(Message(kind="m1"))
    port.enqueue(Message(kind="m2"))

    def body():
        first = yield from port.receive()
        second = yield from port.receive()
        return (first.kind, second.kind)

    assert run_proc(k, body()) == ("m1", "m2")


def test_dead_port_rejects_traffic():
    k = Kernel()
    port = Port(k, "a")
    port.destroy()
    with pytest.raises(DeadPortError):
        port.enqueue(Message(kind="x"))
    with pytest.raises(DeadPortError):
        next(port.receive())


def test_destroy_drains_queued_mail():
    k = Kernel()
    port = Port(k, "a")
    port.enqueue(Message(kind="x"))
    dropped = port.destroy()
    assert len(dropped) == 1


# ---------------------------------------------------------------- IPC


def test_inline_send_latency():
    k = Kernel()
    fabric = make_fabric(k)
    port = Port(k, "a")
    fabric.send(port, Message(kind="x"))
    k.run()
    assert k.now == 1.5
    assert len(port.queue) == 1


def test_oneway_and_outofline_latencies():
    k = Kernel()
    fabric = make_fabric(k)
    msg = Message(kind="x", outofline_kb=1.0)
    assert fabric.latency_for("oneway", msg) == 1.0
    assert fabric.latency_for("outofline", msg) == pytest.approx(
        5.5 + (8.4 + 180.0) / 1000.0)
    assert fabric.latency_for("immediate", msg) == 0.0


def test_unknown_flavour_rejected():
    k = Kernel()
    fabric = make_fabric(k)
    with pytest.raises(ValueError):
        fabric.latency_for("bogus", Message(kind="x"))


def test_call_round_trip_costs_two_legs():
    """Request + reply at 1.5 each: the paper's 3 ms server IPC."""
    k = Kernel()
    fabric = make_fabric(k)
    port = Port(k, "a")

    def server():
        msg = yield from port.receive()
        fabric.reply(msg, msg.reply("ok"))

    def client():
        reply = yield from fabric.call(port, Message(kind="ping"),
                                       sender_site="a")
        return (reply.kind, k.now)

    Process(k, server())
    proc = Process(k, client())
    k.run()
    assert proc.done.value == ("ok", 3.0)


def test_send_to_crashed_site_dropped():
    k = Kernel()
    fabric = make_fabric(k)
    site = Site(k, "a", rt_pc_profile())
    fabric.sites["a"] = site
    port = site.create_port("p")
    fabric.send(port, Message(kind="x"))
    site.crash()
    k.run()
    # In-flight mail to a crashed site is lost, not queued.
    assert port.dead


def test_reply_to_crashed_caller_dropped():
    k = Kernel()
    fabric = make_fabric(k)
    site_a = Site(k, "a", rt_pc_profile())
    fabric.sites["a"] = site_a
    port = Port(k, "b")
    got = []

    def server():
        msg = yield from port.receive()
        site_a.crash()
        fabric.reply(msg, msg.reply("ok"))

    def client():
        reply = yield from fabric.call(port, Message(kind="ping"),
                                       sender_site="a")
        got.append(reply)

    Process(k, server())
    Process(k, client())
    k.run()
    assert got == []  # caller never resumed


def test_reply_without_a_reply_handle_is_refused():
    k = Kernel()
    with pytest.raises(ValueError):
        make_fabric(k).reply(Message(kind="oneway"), Message(kind="ok"))


def test_a_port_name_is_created_once_per_site():
    site = Site(Kernel(), "a", rt_pc_profile())
    site.create_port("p")
    with pytest.raises(ValueError):
        site.create_port("p")


def test_restarting_a_live_site_changes_nothing():
    site = Site(Kernel(), "a", rt_pc_profile())
    port = site.create_port("p")
    site.restart()
    assert site.alive and site.ports == {"p": port} and not port.dead
