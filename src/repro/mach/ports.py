"""Ports: named message queues owned by a site.

A port is the only rendezvous in the system; all higher layers (RPC,
servers, the transaction manager's request interface) receive through
one.  Ports die when their site crashes — the fabric drops mail for a
dead port at delivery time (``ipc.dropped``), and receivers are killed
with their process.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.mach.message import Message
from repro.sim.kernel import Kernel
from repro.sim.resources import Channel


class DeadPortError(RuntimeError):
    """Receive attempted on a port whose owner has crashed."""


class Port:
    """A message queue bound to a site.

    Mail reaches a port through :class:`~repro.mach.ipc.IpcFabric`,
    which charges the transfer latency, drops mail for a dead port, and
    hands a live port's mail to ``queue.hand_off`` so the receiver runs
    in the delivery's own kernel turn.  So do the NetMsgServer, for a
    remote request, and the TranMan, whose request port also takes
    protocol messages straight off the datagram layer, as themselves:
    each hand off is the last act of a datagram arrival's turn.
    """

    def __init__(self, kernel: Kernel, site: str, name: str = "port"):
        self.kernel = kernel
        self.site = site
        self.name = name
        self.queue = Channel(kernel, name=f"{site}:{self.name}")
        self.dead = False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flag = " DEAD" if self.dead else ""
        return f"<Port {self.site}:{self.name}{flag}>"

    def receive(self) -> Generator[Any, Any, Message]:
        """``yield from`` it: block until a message arrives.  Returns the
        channel's own ``get``, so a wait costs no wrapper frame."""
        if self.dead:
            raise DeadPortError(f"receive on dead port {self!r}")
        return self.queue.get()

    def destroy(self) -> list[Message]:
        """Kill the port (site crash); returns and discards queued mail."""
        self.dead = True
        return self.queue.drain()
