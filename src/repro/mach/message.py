"""Typed messages, in the spirit of Mach 2.0.

Mach messages are not flat byte strings: they are typed, may carry port
rights, and may reference out-of-line data moved lazily between address
spaces.  The paper blames part of Mach's IPC cost on exactly this
generality, so the model keeps the distinction: a message knows whether
it is inline or out-of-line, and the IPC fabric prices it accordingly.

The ``trans`` field carries transaction-related metadata (TID, site
lists) in a well-known place so the communication manager can "spy" on
messages in flight, as Camelot's ComMan does.  Bodies and ``trans``
carry typed values — a :class:`~repro.core.tid.TID`, a ``Vote`` or
``Outcome`` member — never their strings: nothing prices or serialises
a body, so a string would only be parsed back at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional


@dataclass(slots=True)
class Message:
    """One Mach message.  ``slots=True``: messages are the single most
    allocated object in a run (one per IPC hop), and slot storage trims
    both the per-instance dict and the attribute-access path.

    Attributes
    ----------
    kind:
        Operation selector, e.g. ``"begin_transaction"`` or ``"prepare"``.
    body:
        Free-form payload dictionary.
    reply_to:
        Port to answer on for synchronous request/response pairs; None
        for one-way messages.
    inline_bytes / outofline_kb:
        Size accounting used to price the transfer.
    trans:
        Transaction metadata visible to interposed agents (ComMan):
        ``tid``, ``sites_used`` etc.
    sender:
        Site name of the originator; filled in by the IPC fabric.
    """

    kind: str
    body: Dict[str, Any] = field(default_factory=dict)
    reply_to: Optional[Any] = None
    inline_bytes: int = 8
    outofline_kb: float = 0.0
    trans: Dict[str, Any] = field(default_factory=dict)
    sender: Optional[str] = None

    def reply(self, kind: str, **body: Any) -> "Message":
        """Construct a response message preserving transaction metadata."""
        return Message(kind=kind, body=body, trans=dict(self.trans))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        tid = self.trans.get("tid")
        tid_part = f" tid={tid}" if tid is not None else ""
        return f"<Message {self.kind}{tid_part}>"
