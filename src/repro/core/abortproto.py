"""The abort protocol: abort a (sub)transaction with incomplete knowledge.

Paper §3.1: "If some operation fails to respond, the site that invoked
it should eventually initiate the abort protocol, which can operate with
incomplete knowledge about which sites are involved."  The site-list
spying of the communication manager guarantees only that the *root* site
eventually learns all participants of a committed transaction; an abort
can start anywhere, any time, with a partial view.

The protocol (reconstructed from [Duchamp 89, TR CUCS-459-89]'s abstract
description in this paper): the initiator sends a FamilyAbort for the
aborting TID carrying every site it knows to be involved.  A receiver
aborts the subtree locally, merges the sender's site list with its own
knowledge, forwards the abort to sites the sender did not know about,
and acknowledges.  Because knowledge only grows and each site forwards
once per (tid, new-site) discovery, the abort floods to every reachable
participant — even though no single site knew them all.

This machine drives *nested* aborts too: aborting a subtransaction
undoes the subtree everywhere, while ancestors continue.
"""

from __future__ import annotations

from enum import Enum
from typing import List, Sequence, Set

from repro.core.effects import (
    Complete,
    Effect,
    Forget,
    LocalAbort,
    SendDatagram,
    StartTimer,
    Trace,
    WriteLog,
)
from repro.core.messages import FamilyAbort, FamilyAbortAck, ProtocolMessage
from repro.core.notify import NotifyTail
from repro.core.outcomes import Outcome
from repro.core.tid import TID
from repro.log.records import abort_record

Effects = List[Effect]

ABORT_ACK_TIMER = "abortproto.acks"


class AbortInitiatorState(Enum):
    SPREADING = "spreading"
    DONE = "done"


class AbortInitiator(NotifyTail):
    """Runs at the site where the abort originates."""

    # Presumed abort makes giving up safe: any site that never hears the
    # abort resolves it to abort on inquiry anyway.
    max_notify_retries = 5

    def __init__(self, tid: TID, site: str, known_sites: Sequence[str]):
        self.tid = tid
        self.site = site
        self.known_sites: Set[str] = {s for s in known_sites if s != site}
        self.unacked = tuple(sorted(self.known_sites))
        self.state = AbortInitiatorState.SPREADING

    def start(self) -> Effects:
        effects: Effects = [
            Trace("abort.initiate", {"tid": str(self.tid),
                                     "known": sorted(self.known_sites)}),
            WriteLog(abort_record(str(self.tid), self.site)),
            LocalAbort(self.tid),
            Complete(self.tid, Outcome.ABORTED),
        ]
        effects.extend(self._send_aborts(self.known_sites))
        if self.known_sites:
            effects.append(StartTimer(ABORT_ACK_TIMER))
        else:
            effects.extend(self._finish())
        return effects

    def _send_aborts(self, dsts: Set[str]) -> Effects:
        msg_sites = tuple(sorted(self.known_sites | {self.site}))
        return [SendDatagram(dst, FamilyAbort(tid=self.tid, sender=self.site,
                                              known_sites=msg_sites))
                for dst in sorted(dsts)]

    def on_message(self, msg: ProtocolMessage) -> Effects:
        if isinstance(msg, FamilyAbortAck) \
                and self.state is AbortInitiatorState.SPREADING:
            return self._notify_ack(msg.sender, ABORT_ACK_TIMER)
        if isinstance(msg, FamilyAbort):
            # Someone else is also aborting this TID and knows sites we
            # may not; merge and ack them.
            new = set(msg.known_sites) - self.known_sites - {self.site}
            effects: Effects = [SendDatagram(
                msg.sender, FamilyAbortAck(tid=self.tid, sender=self.site))]
            if new and self.state is AbortInitiatorState.SPREADING:
                self.known_sites |= new
                self.unacked = tuple(sorted({*self.unacked, *new}))
                effects.extend(self._send_aborts(new))
            return effects
        return []

    def on_timer(self, token: str) -> Effects:
        if token == ABORT_ACK_TIMER \
                and self.state is AbortInitiatorState.SPREADING:
            return self._notify_retry(FamilyAbort(
                tid=self.tid, sender=self.site,
                known_sites=tuple(sorted(self.known_sites | {self.site}))),
                ABORT_ACK_TIMER)
        return []

    def _finish(self) -> Effects:
        self.state = AbortInitiatorState.DONE
        return [Forget(self.tid)]


class AbortParticipant:
    """Handles an incoming FamilyAbort at a participant site.

    Stateless beyond a single exchange: abort locally, ack, and forward
    to any involved sites the sender did not know about.
    """

    def __init__(self, site: str):
        self.site = site

    def on_abort(self, msg: FamilyAbort,
                 locally_known_sites: Sequence[str]) -> Effects:
        """``locally_known_sites``: sites this TranMan knows are involved
        (from its own descriptor's spying)."""
        sender_knew = set(msg.known_sites)
        forward_to = (set(locally_known_sites) - sender_knew
                      - {self.site, msg.sender})
        effects: Effects = [
            WriteLog(abort_record(str(msg.tid), self.site)),
            LocalAbort(msg.tid),
            SendDatagram(msg.sender,
                         FamilyAbortAck(tid=msg.tid, sender=self.site)),
        ]
        if forward_to:
            all_known = tuple(sorted(sender_knew | set(locally_known_sites)
                                     | {self.site}))
            effects.append(Trace("abort.forward",
                                 {"tid": str(msg.tid),
                                  "to": sorted(forward_to)}))
            effects.extend(SendDatagram(
                dst, FamilyAbort(tid=msg.tid, sender=self.site,
                                 known_sites=all_known))
                for dst in sorted(forward_to))
        return effects
