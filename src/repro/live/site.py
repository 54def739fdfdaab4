"""``LiveSite``: one transaction-manager site over real sockets + disk.

A LiveSite owns an asyncio TCP server, a :class:`~repro.live.walfile.FileWal`,
and a :class:`~repro.live.host.SiteHost` interpreting the sans-IO
machines' effects over them.  Peers are discovered through the port-file
handshake (:mod:`repro.live.ports`): every outbound connection attempt
re-reads the peer's port file, so a site that was ``kill -9``-ed and
restarted on a fresh ephemeral port is found without any coordinator.

Delivery discipline: TCP already gives per-connection FIFO.  Outbound,
each peer has an *outbox* — the frames queued for it, FIFO, at most
``OUTBOX_MAX_BYTES`` of them — which that peer's one sender task empties
whole: everything a wake-up finds queued leaves as one joined write, so
a burst costs one ``send`` per peer, not one per frame.  A frame that
would take an outbox past its bound (a reader too slow, or a peer being
waited for) is dropped and counted ``"overflow"``; a batch whose peer
stayed unreachable counts one ``"dead"`` drop per frame.  Inbound, every
whole frame of a read is delivered — the good frames before a malformed
one included — through a single *delay line* (one FIFO queue + one
drainer task), which preserves receipt order across senders while adding
the scenario's ``wire_ms`` latency floor; a second delay line paces
force completions by ``force_floor_ms``.  Those floors are what lets
the conformance harness compare live transcripts byte-for-byte against
the simulator: they dominate real fsync and event-loop jitter, so
causally-unordered races resolve the same way on both substrates.  Demo
clusters run with both floors at zero.

Robustness contract (satellite: codec hardening): a malformed,
truncated, oversized, or CRC-failing frame NEVER crashes the site — the
connection is dropped and the event counted per cause in
``frame_drops``, mirroring ``Lan.drop_counts()``.

Storage errors are the opposite case: a force whose write or fsync
raised **fail-stops** the site (the WAL is dead, see
:mod:`repro.live.walfile`).  The machine that asked is never told, the
port file is cleared, ``serve_until_stopped`` returns with
``LiveSite.failure`` set, and ``python -m repro.live site`` exits
non-zero; recovery from what is really on disk is the restart's job.
"""

from __future__ import annotations

import asyncio
import os
from collections import deque
from typing import Any, Callable, Deque, Dict, List, Optional, Tuple

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
)
from repro.live.host import SiteHost, Substrate
from repro.live.ports import bind_server_socket, clear_port_file, \
    read_port_file, write_port_file
from repro.live.walfile import FileWal

# Outbound connection patience: how long a sender retries reaching a
# peer (re-reading its port file each attempt) before dropping a frame.
CONNECT_TIMEOUT_S = 8.0
CONNECT_POLL_S = 0.1
# Bytes one peer's outbox may hold (some 40,000 ordinary frames, 16 of
# the largest); a frame that would pass it is dropped as "overflow".
OUTBOX_MAX_BYTES = 4 * 1024 * 1024


class _DelayLine:
    """FIFO queue + single drainer: order-preserving paced callbacks.

    asyncio's own timer heap does not promise FIFO for equal deadlines,
    so pacing via ``call_later`` per event could reorder same-instant
    deliveries.  A deque drained by one task cannot.
    """

    def __init__(self, floor_ms: float):
        self.floor_s = floor_ms / 1000.0
        self._queue: Deque[Tuple[float, Callable[[], None]]] = deque()
        self._wake = asyncio.Event()
        self._task: Optional[asyncio.Task] = None

    def start(self) -> None:
        self._task = asyncio.get_running_loop().create_task(self._drain())

    def stop(self) -> None:
        if self._task is not None:
            self._task.cancel()
            self._task = None

    def put(self, fn: Callable[[], None]) -> None:
        due = asyncio.get_running_loop().time() + self.floor_s
        self._queue.append((due, fn))
        self._wake.set()

    @property
    def pending(self) -> int:
        return len(self._queue)

    async def _drain(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            if not self._queue:
                self._wake.clear()
                await self._wake.wait()
                continue
            due, fn = self._queue.popleft()
            delay = due - loop.time()
            if delay > 0:
                await asyncio.sleep(delay)
            fn()


class _Outbox:
    """The frames queued for one peer, oldest first."""

    def __init__(self) -> None:
        self.frames: List[bytes] = []
        self.size = 0  # bytes in ``frames``
        self.wake = asyncio.Event()

    @property
    def pending(self) -> int:
        return len(self.frames)


class LiveSubstrate(Substrate):
    """The real-IO substrate behind one site's :class:`SiteHost`."""

    def __init__(self, site: str, port_dir: str, wal: FileWal,
                 wire_ms: float, force_floor_ms: float,
                 on_storage_error: Callable[[OSError], None]):
        self.site = site
        self.port_dir = port_dir
        self.wal = wal
        self.host: Optional[SiteHost] = None
        # Told of every force that failed (LiveSite fail-stops on the first).
        self.on_storage_error = on_storage_error
        self.traces: Dict[str, int] = {}  # trace kind -> count
        self.inbound = _DelayLine(wire_ms)
        self.forces = _DelayLine(force_floor_ms)
        self.frame_drops: Dict[str, int] = {}
        self._out_queues: Dict[str, _Outbox] = {}
        self._out_tasks: Dict[str, asyncio.Task] = {}
        self._writers: Dict[str, asyncio.StreamWriter] = {}

    def start(self) -> None:
        self.inbound.start()
        self.forces.start()

    def stop(self) -> None:
        self.inbound.stop()
        self.forces.stop()
        for task in self._out_tasks.values():
            task.cancel()
        for writer in self._writers.values():
            try:
                writer.close()
            except Exception:
                pass
        self._out_tasks.clear()
        self._writers.clear()

    def count_drop(self, cause: str, frames: int = 1) -> None:
        self.frame_drops[cause] = self.frame_drops.get(cause, 0) + frames

    def drop_counts(self) -> Dict[str, int]:
        """Per-cause dropped-input counters (cf. ``Lan.drop_counts``)."""
        out = dict(self.frame_drops)
        out["total"] = sum(self.frame_drops.values())
        return out

    # ----------------------------------------------------------- wire

    def send(self, dst: str, message: Any) -> None:
        if dst == self.site:
            # Loopback without the wire floor, like the simulator's
            # post_soon self-delivery.
            asyncio.get_running_loop().call_soon(self._deliver_self, message)
            return
        outbox = self._out_queues.get(dst)
        if outbox is None:
            outbox = self._out_queues[dst] = _Outbox()
            self._out_tasks[dst] = asyncio.get_running_loop().create_task(
                self._sender_loop(dst, outbox))
        frame = encode_message_frame(self.site, message)
        if outbox.size + len(frame) > OUTBOX_MAX_BYTES:
            self.count_drop("overflow")
            return
        outbox.frames.append(frame)
        outbox.size += len(frame)
        outbox.wake.set()

    def _deliver_self(self, message: Any) -> None:
        if self.host is not None:
            self.host.deliver(self.site, message)

    def deliver_inbound(self, src: str, message: Any) -> None:
        """Frame received: deliver through the paced FIFO delay line."""
        self.inbound.put(lambda: self.host.deliver(src, message)
                         if self.host is not None else None)

    async def _connect(self, dst: str) -> Optional[asyncio.StreamWriter]:
        loop = asyncio.get_running_loop()
        deadline = loop.time() + CONNECT_TIMEOUT_S
        while loop.time() < deadline:
            port = read_port_file(self.port_dir, dst)
            if port is not None:
                try:
                    _, writer = await asyncio.open_connection(
                        "127.0.0.1", port)
                    return writer
                except OSError:
                    pass  # stale port file (peer died); re-read and retry
            await asyncio.sleep(CONNECT_POLL_S)
        return None

    async def _sender_loop(self, dst: str, outbox: _Outbox) -> None:
        while True:
            if not outbox.frames:
                outbox.wake.clear()
                await outbox.wake.wait()
                continue
            # Everything queued so far leaves as one write.
            batch, outbox.frames, outbox.size = outbox.frames, [], 0
            data = b"".join(batch)
            sent = False
            for _ in range(2):
                writer = self._writers.get(dst)
                if writer is None or writer.is_closing():
                    writer = await self._connect(dst)
                    if writer is None:
                        break
                    self._writers[dst] = writer
                try:
                    writer.write(data)
                    await writer.drain()
                    sent = True
                    break
                except (OSError, ConnectionError):
                    try:
                        writer.close()
                    except Exception:
                        pass
                    self._writers.pop(dst, None)
            if not sent:
                # Peer stayed unreachable past the connect budget: drop,
                # like the LAN model's dead-site drop.  Protocol
                # timeouts / recovery own redelivery semantics.
                self.count_drop("dead", len(batch))

    # ------------------------------------------------------------ wal

    def force(self, lsn: int, done: Callable[[], None]) -> None:
        # fsync NOW — the record must be durable before anything that
        # follows it (that is the whole point of a force, and what the
        # kill-window choreography relies on); only the *completion*
        # callback is paced.
        try:
            ready = self.wal.force(lsn)
        except OSError as exc:
            # Never ``done``: the record is not durable, and never will
            # be by a retry.  The host stays parked; the site stops.
            self.on_storage_error(exc)
            return
        self.forces.put(lambda: self._force_done(ready, done))

    @staticmethod
    def _force_done(ready: List[Callable[[], None]],
                    done: Callable[[], None]) -> None:
        for fn in ready:
            fn()
        done()

    # ---------------------------------------------------------- timers

    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any:
        return asyncio.get_running_loop().call_later(delay_ms / 1000.0, fn)

    def trace(self, kind: str, detail: Dict[str, Any]) -> None:
        self.traces[kind] = self.traces.get(kind, 0) + 1


class LiveSite:
    """One site: TCP server + WAL + host, embeddable or standalone.

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
        self.substrate = LiveSubstrate(site, run_dir, self.wal, wire_ms,
                                       force_floor_ms, self._fail_stop)
        self.host = SiteHost(site, self.substrate, self.cost, votes=votes,
                             hold_force_tokens=hold_force_tokens,
                             prepare_delay_ms=prepare_ms)
        self.substrate.host = self.host
        # The storage error this site fail-stopped on, if it did.
        self.failure: Optional[OSError] = None
        self._fail_stopping: Optional[asyncio.Future] = None
        self.recovered = False
        self.port: Optional[int] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._stopping = asyncio.Event()

    # -------------------------------------------------------- lifecycle

    async def start(self) -> None:
        """Recover from the WAL, start serving, publish our port."""
        self.substrate.start()
        records = self.wal.recovered_records
        if records:
            plan = analyze(self.site, records)
            self.host.recover_from_plan(plan)
            self.recovered = True
        sock = bind_server_socket()
        self.port = sock.getsockname()[1]
        self._server = await asyncio.start_server(self._on_connection,
                                                  sock=sock)
        write_port_file(self.run_dir, self.site, self.port)
        self.host.start_sweeps()

    async def stop(self) -> None:
        self.host.stop_sweeps()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self.substrate.stop()
        clear_port_file(self.run_dir, self.site)
        self.wal.close()
        self._stopping.set()

    def _fail_stop(self, exc: OSError) -> None:
        if self.failure is None:
            self.failure = exc
            self._fail_stopping = asyncio.ensure_future(self.stop())

    async def serve_until_stopped(self) -> None:
        """Returns once stopped; ``failure`` says if by a storage error."""
        await self._stopping.wait()

    @property
    def settled(self) -> bool:
        """No protocol work in flight anywhere in this site."""
        return (self.host.idle and self.substrate.inbound.pending == 0
                and self.substrate.forces.pending == 0
                and all(outbox.pending == 0 for outbox in
                        self.substrate._out_queues.values()))

    # ------------------------------------------------------ connections

    async def _on_connection(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        decoder = FrameDecoder()
        try:
            while True:
                data = await reader.read(65536)
                if not data:
                    break
                garbage = None
                try:
                    frames = decoder.feed(data)
                except FrameError as exc:
                    # The good frames before the bad one arrived whole:
                    # deliver them, whatever chunks TCP cut the stream in.
                    frames, garbage = exc.frames, exc.cause
                for kind, payload in frames:
                    if kind == KIND_MESSAGE:
                        self._on_message_frame(payload)
                    else:
                        response = await self._handle_control(payload)
                        writer.write(encode_control_frame(response))
                        await writer.drain()
                if garbage is not None:
                    # Never let wire garbage near the machines: count
                    # and sever (framing cannot resynchronise).
                    self.substrate.count_drop(garbage)
                    break
        except (OSError, ConnectionError):
            pass  # peer vanished mid-read; drops are the sender's story
        except asyncio.CancelledError:
            pass  # loop teardown with the connection still open
        finally:
            try:
                writer.close()
            except Exception:
                pass

    def _on_message_frame(self, payload: Dict[str, Any]) -> None:
        try:
            src, message = decode_message_payload(payload)
        except FrameError as exc:
            self.substrate.count_drop(exc.cause)
            return
        self.substrate.deliver_inbound(src, message)

    # ---------------------------------------------------------- control

    async def _handle_control(self, payload: Dict[str, Any]
                              ) -> Dict[str, Any]:
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
            asyncio.get_running_loop().call_soon(
                lambda: asyncio.ensure_future(self.stop()))
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
            "drops": self.substrate.drop_counts(),
            "duplicates": self.host.duplicates,
            "traces": dict(self.substrate.traces),
            "recovered": self.recovered,
            "conservative": self.host.conservative,
            "wal_durable": self.wal.durable_lsn,
        }
