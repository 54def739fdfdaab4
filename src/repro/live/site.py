"""``LiveSite``: one transaction-manager site over real sockets + disk.

A LiveSite owns an asyncio TCP server, a :class:`~repro.live.walfile.FileWal`,
and a :class:`~repro.live.host.SiteHost` interpreting the sans-IO
machines' effects over them — the site itself is the host's
:class:`~repro.live.host.Substrate`.  Peers are discovered through the
port-file handshake (:mod:`repro.live.ports`): every outbound connection
attempt re-reads the peer's port file, so a site that was ``kill -9``-ed
and restarted on a fresh ephemeral port is found without any
coordinator.

Delivery discipline: TCP already gives per-connection FIFO, and a frame
crosses the event loop with one callback per hop — no task, future or
``asyncio.Event`` on the way.  Outbound, each peer has an *outbox*: the
wire text of each message queued for it in this wake-up, FIFO, made at
``send`` so the outbox is bounded in bytes.  A flush frames each
connected peer's outbox as one frame (cut into more only where a
backlog would pass ``MAX_PAYLOAD``) and hands it to the transport as one
write, so a burst costs one header, CRC, envelope and scan per peer,
not one per message, and one ``send``.  A delay line flushes as the last
act of every batch it runs, so the replies to a read leave in that
read's own loop turn; a send from anywhere else (a timer, a control
command, a caller outside the loop's callbacks) schedules one
``call_soon`` flush.  A peer's one task only connects: it runs while
there is no live connection, and writes the outbox once there is.
``OUTBOX_MAX_BYTES`` bounds what the site holds for a peer — the outbox
plus the bytes its transport has not yet handed to the kernel — so a
message that would pass it (a reader that stalls, or a peer being
waited for) is dropped and counted ``"overflow"``; a batch whose peer
stayed unreachable counts one ``"dead"`` drop per message.  Inbound,
each accepted connection is an ``asyncio.Protocol``: its
``data_received`` feeds the bytes to a ``FrameDecoder`` and hands every
whole frame — the good frames before a malformed one included — to a
single *delay line* (one FIFO queue drained by one timer armed for its
head) as one entry that delivers the frame's messages in order, which
preserves receipt order across senders while adding the scenario's
``wire_ms`` latency floor; control frames are answered in place.  A
second delay line paces force completions by ``force_floor_ms``.  Those
floors are what lets the conformance harness compare live transcripts
byte-for-byte against the simulator: they dominate real fsync and
event-loop jitter, so causally-unordered races resolve the same way on
both substrates.  Demo clusters run with both floors at zero.

Group commit: a force is queued, not written.  The same flush that
writes each peer's outbox once per wake-up then makes one
``FileWal.force`` to the highest LSN queued, so every force asked for
in a wake-up shares one write (and one fsync); their completions then
enter the force delay line in request order.  What fills a wake-up
with forces is the host's per-family parking: a force holds only its
own transaction family, so a read carrying eight families' prepares
runs all eight to their forces before the flush.

Robustness contract (satellite: codec hardening): a malformed,
truncated, oversized, or CRC-failing frame NEVER crashes the site — the
connection is dropped and the event counted per cause in
``frame_drops``, mirroring ``Lan.drop_counts()``; a connection that ends
in the middle of a frame counts one ``"torn"`` drop.  A message that
names an unknown type or carries a field of another type than declared
is counted (``"type"`` / ``"fields"``, one drop per message) and never
reaches the host; the frame's other messages deliver, and the
connection stays.

Storage errors are the opposite case: a batched write or fsync that
raised **fail-stops** the site (the WAL is dead, see
:mod:`repro.live.walfile`).  No machine in the batch is told, the
port file is cleared, ``serve_until_stopped`` returns with
``LiveSite.failure`` set, and ``python -m repro.live site`` exits
non-zero; recovery from what is really on disk is the restart's job.
A delivered frame or force completion that raises fail-stops the site
the same way, with that exception as the failure.

A stopped site, cleanly or by a fail-stop, runs no machine:
:meth:`SiteHost.stop` cancels the sweep and every protocol timer the
interpreter armed, and no input runs after it — a vote whose prepare
delay is still pending, a loopback delivery or a completion already
queued on the loop included.  A coordinator stopped while it waits for
a vote never times out, logs an abort or tells anyone.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from functools import partial
from typing import Any, Callable, Deque, Dict, List, Optional, Set, Tuple

from repro.config import CostModel
from repro.core.outcomes import Vote
from repro.servers.recovery import analyze
from repro.live.codec import (
    KIND_MESSAGE,
    FrameDecoder,
    FrameError,
    decode_message_payload,
    encode_control_frame,
    encode_message_frame,
    message_room,
    message_text,
)
from repro.live.host import SiteHost, Substrate
from repro.live.ports import bind_server_socket, clear_port_file, \
    read_port_file, write_port_file
from repro.live.walfile import FileWal
from repro.sim.tracing import Tracer

# Outbound connection patience: how long a sender retries reaching a
# peer (re-reading its port file each attempt) before dropping its backlog.
CONNECT_TIMEOUT_S = 8.0
CONNECT_POLL_S = 0.1
# Bytes one peer's outbox and transport buffer may hold together (some
# 60,000 ordinary messages, 17 frames of the largest); a message that
# would pass it is dropped as "overflow".  The outbox counts each text
# and its separator, not the header and envelope its frame will add.
OUTBOX_MAX_BYTES = 4 * 1024 * 1024


class _DelayLine:
    """FIFO queue drained by one timer: order-preserving paced callbacks.

    asyncio's own timer heap does not promise FIFO for equal deadlines,
    so pacing via ``call_later`` per event could reorder same-instant
    deliveries.  One timer armed for the head of a deque cannot: it runs
    every callback that is due, in order, calls ``after`` once, then
    re-arms for the next (``call_at``; ``call_soon`` when the floor is
    zero).  A callback that raises stops the line — nothing after it
    runs — and is handed to ``on_error``.
    """

    def __init__(self, floor_ms: float,
                 on_error: Callable[[Exception], None],
                 after: Callable[[], None]):
        self.floor_s = floor_ms / 1000.0
        self.on_error = on_error
        self.after = after
        self._queue: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._timer: Optional[asyncio.Handle] = None

    def start(self) -> None:
        self._loop = asyncio.get_running_loop()

    def stop(self) -> None:
        """Disarm; a stopped line takes nothing and runs nothing."""
        self._loop = None
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def put(self, fn: Callable[[], None]) -> None:
        loop = self._loop
        if loop is None:
            return
        due = loop.time() + self.floor_s
        self._queue.append((due, fn))
        if self._timer is None:
            # With no floor the entry is due now: it needs the next loop
            # turn, not a place in the loop's timer heap.
            self._timer = (loop.call_at(due, self._drain) if self.floor_s
                           else loop.call_soon(self._drain))

    @property
    def pending(self) -> int:
        return len(self._queue)

    def _drain(self) -> None:
        loop, queue = self._loop, self._queue
        try:
            while queue:
                due, fn = queue[0]
                if due > loop.time():
                    self._timer = loop.call_at(due, self._drain)
                    break
                queue.popleft()
                fn()
            else:
                self._timer = None
        except Exception as exc:
            self.stop()
            self.on_error(exc)
            return
        self.after()


class _Outbox:
    """One peer: the wire texts of the messages queued for it, oldest
    first, and its link."""

    def __init__(self) -> None:
        self.texts: List[str] = []
        # Bytes the texts take in a frame: each one's length plus the
        # byte that separates it from the next.
        self.size = 0
        self.transport: Optional[asyncio.Transport] = None
        self.connecting: Optional[asyncio.Task] = None

    @property
    def pending(self) -> int:
        return len(self.texts)

    def write(self, src: str, room: int) -> bool:
        """Everything queued leaves as one write on a live connection,
        in frames from ``src`` whose texts fit ``room``
        (``codec.message_room``); False (and nothing taken) if there is
        no connection or the write killed it."""
        texts = self.texts
        if not texts:
            return True
        transport = self.transport
        if transport is None or transport.is_closing():
            return False
        if self.size <= room:
            transport.write(encode_message_frame(src, *texts))
        else:
            transport.write(b"".join(self._frames(src, room)))
        if transport.is_closing():
            return False
        self.texts, self.size = [], 0
        return True

    def _frames(self, src: str, room: int) -> List[bytes]:
        """A backlog past one frame as the fewest that fit, in order."""
        texts = self.texts
        frames, start, used = [], 0, 0
        for end, text in enumerate(texts):
            if used + len(text) + 1 > room:
                frames.append(encode_message_frame(src, *texts[start:end]))
                start, used = end, 0
            used += len(text) + 1
        frames.append(encode_message_frame(src, *texts[start:]))
        return frames


class _Inbound(asyncio.Protocol):
    """One accepted connection: each read goes to the decoder, and each
    whole frame to the delay line (a message) or back down the
    connection (a control command's answer)."""

    def __init__(self, site: "LiveSite"):
        self.site = site
        self.decoder = FrameDecoder()
        self.transport: Any = None

    def connection_made(self, transport: Any) -> None:
        self.transport = transport
        self.site._accepted.add(transport)

    def data_received(self, data: bytes) -> None:
        site, garbage = self.site, None
        try:
            frames = self.decoder.feed(data)
        except FrameError as exc:
            # The good frames before the bad one arrived whole: deliver
            # them, whatever chunks TCP cut the stream in.
            frames, garbage = exc.frames, exc.cause
        for kind, payload in frames:
            if kind == KIND_MESSAGE:
                site._on_message_frame(payload)
            else:
                self.transport.write(
                    encode_control_frame(site._handle_control(payload)))
        if garbage is not None:
            # Never let wire garbage near the machines: count and sever
            # (framing cannot resynchronise).  The unread tail is part
            # of this drop, not a torn frame.
            site.count_drop(garbage)
            self.decoder = FrameDecoder()
            self.transport.close()

    def connection_lost(self, exc: Optional[Exception]) -> None:
        self.site._accepted.discard(self.transport)
        if self.decoder.buffered:
            # The peer went away mid-frame (reset or killed): half a
            # frame is a drop, never a delivery.
            self.site.count_drop("torn")


class LiveSite(Substrate):
    """One site: TCP server + WAL + host, embeddable or standalone, and
    the real-IO substrate its :class:`SiteHost` runs over.

    The conformance harness runs several LiveSites on one event loop
    (real loopback TCP between them); ``python -m repro.live site`` runs
    exactly one per OS process for the kill -9 demos.
    """

    def __init__(self, site: str, run_dir: str, cost: Optional[CostModel] = None,
                 wire_ms: float = 0.0, force_floor_ms: float = 0.0,
                 prepare_ms: float = 0.0,
                 votes: Optional[Dict[str, Vote]] = None,
                 hold_force_tokens: Tuple[str, ...] = (),
                 fsync: bool = True):
        self.site = site
        self.run_dir = run_dir
        os.makedirs(run_dir, exist_ok=True)
        self.cost = cost if cost is not None else CostModel()
        self.wal = FileWal(os.path.join(run_dir, f"{site}.wal"), fsync=fsync)
        self.tracer = Tracer(keep=False)
        # What a batch of deliveries or force completions sent leaves
        # as its last act, in its own loop turn.
        self.inbound = _DelayLine(wire_ms, self._fail_stop, self._flush)
        self.forces = _DelayLine(force_floor_ms, self._fail_stop, self._flush)
        self.frame_drops: Dict[str, int] = {}
        self._out_queues: Dict[str, _Outbox] = {}
        # What one frame from this site has for its messages' texts.
        self._room = message_room(site)
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._running = False
        self._flush_due: Optional[asyncio.Handle] = None
        # The completions of the forces asked for since the last flush,
        # in order, and the highest LSN any force has asked for.
        self._forcing: List[Callable[[], None]] = []
        self._force_lsn = 0
        self.host = SiteHost(site, self, self.cost, votes=votes,
                             hold_force_tokens=hold_force_tokens,
                             prepare_delay_ms=prepare_ms)
        # The storage error or raising input this site fail-stopped on.
        self.failure: Optional[Exception] = None
        self._fail_stopping: Optional[asyncio.Future] = None
        self.recovered = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._accepted: Set[Any] = set()  # inbound transports
        self._stopping = asyncio.Event()

    # The name ``perf/`` reads the drop counters by: the site itself.
    substrate = property(lambda self: self)

    # -------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Recover from the WAL, start serving, publish our port."""
        self._loop = asyncio.get_running_loop()
        self._running = True
        self.inbound.start()
        self.forces.start()
        records = self.wal.recovered_records
        if records:
            plan = analyze(self.site, records)
            self.host.recover_from_plan(plan)
            self.recovered = True
        sock = bind_server_socket()
        self.port = sock.getsockname()[1]
        self._server = await self._loop.create_server(
            lambda: _Inbound(self), sock=sock)
        write_port_file(self.run_dir, self.site, self.port)
        self.host.start_sweeps()

    async def stop(self) -> None:
        self._halt()
        if self._server is not None:
            self._server.close()
            for transport in list(self._accepted):
                transport.close()
            await self._server.wait_closed()
            self._server = None
        clear_port_file(self.run_dir, self.site)
        self.wal.close()
        self._stopping.set()

    def _halt(self) -> None:
        """Nothing at this site steps again: no machine, delay line,
        flush or connect."""
        self.host.stop()
        self._running = False
        self.inbound.stop()
        self.forces.stop()
        for outbox in self._out_queues.values():
            if outbox.connecting is not None:
                outbox.connecting.cancel()
            if outbox.transport is not None:
                outbox.transport.close()

    def _fail_stop(self, exc: Exception) -> None:
        if self.failure is None:
            self.failure = exc
            # At once: not even a callback already queued ahead of the
            # stop runs.
            self._halt()
            self._fail_stopping = asyncio.ensure_future(self.stop())

    async def serve_until_stopped(self) -> None:
        """Returns once stopped; ``failure`` says if by a fail-stop."""
        await self._stopping.wait()

    @property
    def settled(self) -> bool:
        """No protocol work in flight anywhere in this site."""
        return (self.host.idle and self.inbound.pending == 0
                and not self._forcing and self.forces.pending == 0
                and all(outbox.pending == 0
                        for outbox in self._out_queues.values()))

    def count_drop(self, cause: str, n: int = 1) -> None:
        self.frame_drops[cause] = self.frame_drops.get(cause, 0) + n

    def drop_counts(self) -> Dict[str, int]:
        """Per-cause dropped-input counters (cf. ``Lan.drop_counts``)."""
        out = dict(self.frame_drops)
        out["total"] = sum(self.frame_drops.values())
        return out

    def now(self) -> float:
        return self._loop.time() * 1000.0

    # ----------------------------------------------------------- wire

    def send(self, dst: str, message: Any) -> None:
        if dst == self.site:
            # Loopback without the wire floor, like the simulator's
            # post_soon self-delivery.
            self._loop.call_soon(self.host.deliver, dst, message)
            return
        outbox = self._out_queues.get(dst)
        if outbox is None:
            outbox = self._out_queues[dst] = _Outbox()
        text = message_text(message)
        size = len(text) + 1
        if size > self._room:
            raise FrameError("oversize", f"{len(text)} byte message")
        held = outbox.size + size
        if outbox.transport is not None:
            held += outbox.transport.get_write_buffer_size()
        if held > OUTBOX_MAX_BYTES:
            self.count_drop("overflow")
            return
        outbox.texts.append(text)
        outbox.size += size
        if self._flush_due is None:
            self._flush_due = self._loop.call_soon(self._flush)

    def _flush(self) -> None:
        """Everything sent or forced since the last flush leaves: one
        frame and one write per peer (or that peer's connect task, if it
        has no live connection), then one WAL write for all the forces.
        The first send or force of a wake-up schedules it.  The frames
        may go first: none of them waits on these forces, whose
        completions have not run, so a peer starts on them while the
        disk works."""
        due, self._flush_due = self._flush_due, None
        if due is None or not self._running:
            return
        due.cancel()  # a no-op when it is the callback running now
        site, room = self.site, self._room
        for dst, outbox in self._out_queues.items():
            # While a connect is in flight, it writes what is queued.
            if outbox.connecting is None and not outbox.write(site, room):
                outbox.connecting = self._loop.create_task(
                    self._reconnect(dst, outbox))
        if self._forcing:
            self._write_forces()

    def _on_message_frame(self, payload: Dict[str, Any]) -> None:
        """A frame received: its messages are one entry of the paced
        FIFO delay line, delivered in order.  A bad message is one
        counted drop; the rest of its frame goes on."""
        try:
            src, messages = decode_message_payload(payload, self.count_drop)
        except FrameError as exc:
            self.count_drop(exc.cause)
            return
        if messages:
            host = self.host

            def deliver() -> None:
                for message in messages:
                    host.deliver(src, message)

            self.inbound.put(deliver)

    async def _connect(self, dst: str) -> Optional[asyncio.Transport]:
        loop = self._loop
        deadline = loop.time() + CONNECT_TIMEOUT_S
        while loop.time() < deadline:
            port = read_port_file(self.run_dir, dst)
            if port is not None:
                try:
                    # Peers never answer on this link: the base
                    # protocol closes it when the peer goes away.
                    transport, _ = await loop.create_connection(
                        asyncio.Protocol, "127.0.0.1", port)
                    return transport
                except OSError:
                    pass  # stale port file (peer died); re-read and retry
            await asyncio.sleep(CONNECT_POLL_S)
        return None

    async def _reconnect(self, dst: str, outbox: _Outbox) -> None:
        try:
            for _ in range(2):
                outbox.transport = await self._connect(dst)
                if outbox.transport is None:
                    break
                if outbox.write(self.site, self._room):
                    return
            # Peer stayed unreachable past the connect budget: drop,
            # like the LAN model's dead-site drop.  Protocol timeouts /
            # recovery own redelivery semantics.
            self.count_drop("dead", outbox.pending)
            outbox.texts, outbox.size = [], 0
        finally:
            outbox.connecting = None

    # ------------------------------------------------------------ wal

    def force(self, lsn: int, done: Callable[[], None]) -> None:
        # Queued for this wake-up's flush, whose one write makes every
        # force asked for in the meantime durable (group commit); only
        # the *completions* are paced, and nothing that follows a force
        # runs before them.
        if lsn > self._force_lsn:
            self._force_lsn = lsn
        self._forcing.append(done)
        if self._flush_due is None:
            self._flush_due = self._loop.call_soon(self._flush)

    def _write_forces(self) -> None:
        dones, self._forcing = self._forcing, []
        try:
            ready = self.wal.force(self._force_lsn)
        except Exception as exc:
            # No ``done``: the records are not durable, and never will
            # be by a retry.  Their runs stay parked; the site stops —
            # on a storage error, and on anything else the write raises
            # (it would otherwise escape the loop callback it runs in).
            self._fail_stop(exc)
            return
        self.forces.put(partial(self._forces_done, ready, dones))

    @staticmethod
    def _forces_done(ready: List[Callable[[], None]],
                     dones: List[Callable[[], None]]) -> None:
        for fn in ready:
            fn()
        for done in dones:
            done()

    # ---------------------------------------------------------- timers

    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        return asyncio.get_running_loop().call_later(delay_ms / 1000.0, fn)

    # ---------------------------------------------------------- control

    def _handle_control(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        cmd = payload.get("cmd")
        if cmd == "ping":
            return {"ok": True, "site": self.site, "pid": os.getpid()}
        if cmd == "begin":
            tid = self.host.begin_commit(
                payload["protocol"], list(payload["subs"]))
            return {"ok": True, "tid": str(tid)}
        if cmd == "status":
            return self._status()
        if cmd == "stop":
            # Runs after this answer is written.
            asyncio.ensure_future(self.stop())
            return {"ok": True}
        return {"ok": False, "error": f"unknown command {cmd!r}"}

    def _status(self) -> Dict[str, Any]:
        return {
            "ok": True,
            "site": self.site,
            "pid": os.getpid(),
            "idle": self.settled,
            "machines": sorted(str(t) for t in self.host.machines),
            "takeovers": sorted(str(t) for t in self.host.takeovers),
            "completions": {t: o.value
                            for t, o in self.host.completions.items()},
            "tombstones": {t: o.value
                           for t, o in self.host.tombstones.items()},
            "held": list(self.host.held),
            "drops": self.drop_counts(),
            "duplicates": self.host.duplicates,
            "traces": dict(self.tracer.counters),
            "recovered": self.recovered,
            "conservative": self.host.conservative,
            "wal_durable": self.wal.durable_lsn,
        }
