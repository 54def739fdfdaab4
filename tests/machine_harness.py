"""A hand-cranked host for the sans-IO protocol machines.

Executes effects synchronously into inspectable lists; log forces and
timers complete only when the test says so — which is exactly what makes
adversarial orderings (crash between force and send, duplicated votes,
races between takeovers) easy to script.  ``timers`` maps an armed
token to its wait in protocol timeouts (what ``StartTimer`` carries).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.core.effects import (
    CancelTimer,
    Complete,
    ForceLog,
    Forget,
    LazySendDatagram,
    LocalAbort,
    LocalCommit,
    LocalPrepare,
    MulticastDatagram,
    SendDatagram,
    StartTakeover,
    StartTimer,
    Trace,
    WriteLog,
)


@dataclass
class MachineHost:
    """Collects a machine's effects; completions are explicit calls."""

    machine: Any
    sent: List[Tuple[str, Any]] = field(default_factory=list)
    lazy_sent: List[Tuple[str, Any]] = field(default_factory=list)
    forced: List[Any] = field(default_factory=list)      # records forced
    written: List[Any] = field(default_factory=list)     # lazy records
    pending_forces: List[str] = field(default_factory=list)   # tokens
    pending_durable: List[str] = field(default_factory=list)  # watch tokens
    local_prepares: List[Any] = field(default_factory=list)
    local_commits: List[Any] = field(default_factory=list)
    local_aborts: List[Any] = field(default_factory=list)
    completions: List[Any] = field(default_factory=list)
    forgotten: List[Any] = field(default_factory=list)
    timers: Dict[str, float] = field(default_factory=dict)
    takeover_requests: List[Any] = field(default_factory=list)
    traces: List[Any] = field(default_factory=list)

    def execute(self, effects: List[Any]) -> None:
        for effect in effects:
            if isinstance(effect, SendDatagram):
                self.sent.append((effect.dst, effect.message))
            elif isinstance(effect, MulticastDatagram):
                for dst in effect.dsts:
                    self.sent.append((dst, effect.message))
            elif isinstance(effect, LazySendDatagram):
                self.lazy_sent.append((effect.dst, effect.message))
            elif isinstance(effect, ForceLog):
                self.forced.append(effect.record)
                self.pending_forces.append(effect.token)
            elif isinstance(effect, WriteLog):
                self.written.append(effect.record)
                if effect.token is not None:
                    self.pending_durable.append(effect.token)
            elif isinstance(effect, LocalPrepare):
                self.local_prepares.append(effect)
            elif isinstance(effect, LocalCommit):
                self.local_commits.append(effect.tid)
            elif isinstance(effect, LocalAbort):
                self.local_aborts.append(effect.tid)
            elif isinstance(effect, Complete):
                self.completions.append(effect.outcome)
            elif isinstance(effect, Forget):
                self.forgotten.append(effect.tid)
            elif isinstance(effect, StartTimer):
                self.timers[effect.token] = effect.timeouts
            elif isinstance(effect, CancelTimer):
                self.timers.pop(effect.token, None)
            elif isinstance(effect, StartTakeover):
                self.takeover_requests.append(effect.tid)
            elif isinstance(effect, Trace):
                self.traces.append(effect)
            else:
                raise AssertionError(f"unexpected effect {effect!r}")

    # ------------------------------------------------------ completions

    def complete_force(self, token: Optional[str] = None) -> None:
        """Acknowledge the oldest pending force (or a named one)."""
        if token is None:
            token = self.pending_forces.pop(0)
        else:
            self.pending_forces.remove(token)
        self.execute(self.machine.on_log_forced(token))

    def complete_durable(self, token: Optional[str] = None) -> None:
        if token is None:
            token = self.pending_durable.pop(0)
        else:
            self.pending_durable.remove(token)
        self.execute(self.machine.on_log_durable(token))

    def local_prepared(self, vote) -> None:
        self.execute(self.machine.on_local_prepared(vote))

    def deliver(self, msg) -> None:
        self.execute(self.machine.on_message(msg))

    def fire_timer(self, token: str) -> None:
        assert token in self.timers, f"timer {token} not armed"
        del self.timers[token]
        self.execute(self.machine.on_timer(token))

    # -------------------------------------------------------- queries

    def sent_kinds(self) -> List[str]:
        return [type(m).__name__ for _, m in self.sent]

    def messages_to(self, dst: str) -> List[Any]:
        return [m for d, m in self.sent if d == dst]

    def forced_kinds(self) -> List[str]:
        return [r.kind.value for r in self.forced]

    def written_kinds(self) -> List[str]:
        return [r.kind.value for r in self.written]

    def start(self) -> "MachineHost":
        self.execute(self.machine.start())
        return self
