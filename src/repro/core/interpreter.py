"""The effect interpreter: what executing a machine's effects means.

The machines decide what happens inside one protocol run, the
:class:`~repro.core.edge.ProtocolEdge` decides everything around them,
and this module *executes*, once, for both engines (the simulated
:mod:`repro.servers.tranman` and :mod:`repro.live.host`): one handler
per effect class, the piggyback queue, the ``(machine, token)`` timer
table and the clock behind it (machines name a wait in protocol
timeouts; ``timeout_ms``, the one value this module is built with,
turns it into a delay — the only place a timer is armed), the running
of the edge's replies and ordered steps, and the
§3.2 datagram accounting: a machine's send is traced as
``tranman.datagram`` / ``tranman.piggyback`` / ``tranman.multicast``
immediately before it reaches the engine; stateless replies and
own-site loopback are traced as nothing.

Sans-IO: every act on the world is a call on the :class:`Engine` the
interpreter was built over, and the interpreter never waits.  Where an
effect must wait — a log force always, the local prepare round when the
engine runs it inline — the run loop, a plain generator, delegates
(``yield from``) to the engine's own *wait*: a generator whose yields
go to whoever drives the run and whose return value is the answer.  It
then continues depth-first: ``machine.on_log_forced(token)`` (or
``on_local_prepared(vote)``) and all that follows from it run before
the batch's remaining effects.  Who drives the run — a pool thread
that blocks in the simulator, or a single inbox that parks it until a
callback — is the concurrency model: the one thing besides the
primitives that an engine supplies.
"""

from __future__ import annotations

from functools import partial
from typing import (Any, Callable, Dict, Generator, List, Optional, Protocol,
                    Sequence, Tuple, Type)

from repro.core import effects as fx
from repro.core.edge import ProtocolEdge, Step
from repro.core.outcomes import Outcome, Vote
from repro.core.tid import TID
from repro.log.records import LogRecord

Run = Generator[Any, Any, None]
Wait = Generator[Any, Any, Any]

# What an engine's force wait returns to stage a crash window: the
# record is durable, the machine is never told.
WITHHELD = object()


class Engine(Protocol):
    """The primitives an engine supplies.  What a wait yields is opaque
    here; a timer handle is whatever ``start_timer`` returned, stopped
    by its own ``cancel()``; delays are protocol milliseconds."""

    def send(self, dst: str, message: Any) -> None: ...
    def multicast(self, dsts: Sequence[str], message: Any) -> None: ...
    def append(self, record: LogRecord) -> int: ...
    def watch_durable(self, lsn: int, fn: Callable[[], None]) -> None: ...
    def start_timer(self, delay_ms: float, fn: Callable[[], None]) -> Any: ...
    def trace(self, kind: str, detail: Dict[str, Any]) -> None: ...
    def local_commit(self, tid: TID) -> None: ...
    def local_abort(self, tid: TID) -> None: ...
    def completed(self, tid: TID, outcome: Outcome) -> None: ...
    def forgotten(self, tid: TID) -> None: ...

    def force(self, lsn: int, record: LogRecord, token: str) -> Wait:
        """A wait that returns once ``lsn`` is durable."""

    def local_prepare(self, machine: Any,
                      effect: fx.LocalPrepare) -> Optional[Wait]:
        """A wait that returns the :class:`Vote` — or None, when the
        vote will arrive as an input of its own through
        :meth:`Interpreter.local_prepared`."""

    def defer(self, note: Callable[[], None]) -> None:
        """Run ``note`` once no machine at this site is mid-step."""

    def spawn(self, step: Step, label: str) -> None:
        """Run ``step`` as an input of its own, not inside this one."""


class Interpreter:
    """One site's effect executor, over its edge and its engine."""

    def __init__(self, edge: ProtocolEdge, engine: Engine,
                 timeout_ms: float) -> None:
        self.edge = edge
        self.engine = engine
        # The one protocol timeout: every StartTimer is a multiple of it.
        self.timeout_ms = timeout_ms
        self._lazy: Dict[str, List[Any]] = {}
        self._timers: Dict[Tuple[Any, str], Any] = {}

    def run(self, machine: Optional[Any],
            effects: Sequence[fx.Effect]) -> Run:
        """Execute one effect batch on behalf of ``machine``."""
        for effect in effects:
            try:
                handler = HANDLERS[type(effect)]
            except KeyError:
                raise ValueError(f"unknown effect {effect!r}") from None
            waits = handler(self, machine, effect)
            if waits is not None:
                yield from waits

    def steps(self, steps: Sequence[Step]) -> Run:
        """Run edge steps in order: a step's thunk is not even called
        until the step before it has run to quiescence, waits included."""
        for machine, thunk in steps:
            yield from self.run(machine, thunk())

    def deliver(self, pmsg: Any) -> Run:
        """One inbound datagram, routed by the edge: its replies are
        sent now, the returned run executes its steps."""
        replies, steps = self.edge.route(pmsg)
        # Stateless answers go straight to the wire: no piggyback flush,
        # no part in the datagram counts.
        for dst, message in replies:
            self.engine.send(dst, message)
        return self.steps(steps)

    def local_prepared(self, machine: Optional[Any], tid: TID,
                       vote: Vote) -> Run:
        """The local vote is in: resume the machine that asked."""
        if vote is Vote.READ_ONLY:
            self.edge.note_read_only(str(tid))
        if machine is not None:
            yield from self.run(machine, machine.on_local_prepared(vote) or ())

    # ------------------------------------------------- piggyback queue

    def send_lazily(self, dst: str, message: Any) -> None:
        if dst == self.edge.site:
            self.engine.send(dst, message)  # loopback: not a datagram
        else:
            self._lazy.setdefault(dst, []).append(message)

    def flush(self, dst: str) -> None:
        for message in self._lazy.pop(dst, ()):
            self.engine.trace("tranman.piggyback", {"dst": dst})
            self.engine.send(dst, message)

    def sweep(self) -> None:
        """Flush every destination (the engine's periodic sweep)."""
        for dst in list(self._lazy):
            self.flush(dst)

    @property
    def lazy_pending(self) -> bool:
        return bool(self._lazy)

    def reset(self) -> None:
        """Volatile state dies with the site: timers and queues."""
        for handle in self._timers.values():
            handle.cancel()
        self._timers.clear()
        self._lazy.clear()

    # -------------------------------------------------------- handlers

    def _send(self, machine: Any, effect: fx.SendDatagram) -> None:
        self.flush(effect.dst)  # piggyback opportunity
        self.engine.trace("tranman.datagram", {
            "dst": effect.dst, "kind_of": type(effect.message).__name__})
        self.engine.send(effect.dst, effect.message)

    def _multicast(self, machine: Any, effect: fx.MulticastDatagram) -> None:
        self.engine.trace("tranman.multicast", {
            "fanout": len(effect.dsts),
            "kind_of": type(effect.message).__name__})
        self.engine.multicast(effect.dsts, effect.message)

    def _append(self, record: LogRecord) -> int:
        lsn = self.engine.append(record)
        note = self.edge.note_membership(record)
        if note is not None:
            self.engine.defer(note)
        return lsn

    def _force(self, machine: Any, effect: fx.ForceLog) -> Run:
        lsn = self._append(effect.record)
        answer = yield from self.engine.force(
            lsn, effect.record, effect.token)
        if machine is not None and answer is not WITHHELD:
            yield from self.run(
                machine, machine.on_log_forced(effect.token) or ())

    def _write(self, machine: Any, effect: fx.WriteLog) -> None:
        lsn = self._append(effect.record)
        if effect.token is not None and machine is not None:
            step = (machine, partial(machine.on_log_durable, effect.token))
            self.engine.watch_durable(lsn, partial(
                self.engine.spawn, step, "cont.on_log_durable"))

    def _local_prepare(self, machine: Any, effect: fx.LocalPrepare) -> Run:
        wait = self.engine.local_prepare(machine, effect)
        if wait is not None:
            vote = yield from wait
            yield from self.local_prepared(machine, effect.tid, vote)

    def _complete(self, machine: Any, effect: fx.Complete) -> None:
        self.edge.note_outcome(str(effect.tid), effect.outcome)
        self.engine.completed(effect.tid, effect.outcome)

    def _forget(self, machine: Any, effect: fx.Forget) -> None:
        self.edge.forget(machine, effect.tid)
        for key in [k for k in self._timers if k[0] is machine]:
            self._timers.pop(key).cancel()
        self.engine.forgotten(effect.tid)

    def _start_timer(self, machine: Any, effect: fx.StartTimer) -> None:
        self._cancel_timer(machine, effect)  # re-arming replaces
        self._timers[(machine, effect.token)] = self.engine.start_timer(
            effect.timeouts * self.timeout_ms,
            partial(self._fire, machine, effect.token))

    def _cancel_timer(self, machine: Any, effect: Any) -> None:
        handle = self._timers.pop((machine, effect.token), None)
        if handle is not None:
            handle.cancel()

    def _fire(self, machine: Any, token: str) -> None:
        self._timers.pop((machine, token), None)
        self.engine.spawn((machine, partial(self._on_timer, machine, token)),
                          f"timer.{token}")

    def _on_timer(self, machine: Any, token: str) -> Sequence[fx.Effect]:
        # Asked when the input runs: the edge may have dropped the
        # machine since the timer fired.
        return machine.on_timer(token) if self.edge.is_live(machine) else ()

    def _trace(self, machine: Any, effect: fx.Trace) -> None:
        # The engine stamps its own site.
        self.engine.trace(effect.kind, {k: v for k, v in effect.detail.items()
                                        if k != "site"})


HANDLERS: Dict[Type[fx.Effect],
               Callable[[Interpreter, Any, Any], Optional[Run]]] = {
    fx.SendDatagram: Interpreter._send,
    fx.MulticastDatagram: Interpreter._multicast,
    fx.LazySendDatagram: lambda interp, machine, effect:
        interp.send_lazily(effect.dst, effect.message),
    fx.ForceLog: Interpreter._force,
    fx.WriteLog: Interpreter._write,
    fx.LocalPrepare: Interpreter._local_prepare,
    fx.LocalCommit: lambda interp, machine, effect:
        interp.engine.local_commit(effect.tid),
    fx.LocalAbort: lambda interp, machine, effect:
        interp.engine.local_abort(effect.tid),
    fx.Complete: Interpreter._complete,
    fx.Forget: Interpreter._forget,
    fx.StartTimer: Interpreter._start_timer,
    fx.CancelTimer: Interpreter._cancel_timer,
    fx.StartTakeover: lambda interp, machine, effect:
        interp.steps(interp.edge.start_takeover(effect.tid)),
    fx.Trace: Interpreter._trace,
}
