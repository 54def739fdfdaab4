"""The notify tail: tell every participant the outcome until all ack.

Phase two of 2PC and of Paxos Commit (Gray & Lamport), the non-blocking
protocol's notify phase, a takeover's and the abort protocol's spread
all end in this loop; :class:`NotifyTail` writes it once.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.core.effects import (CancelTimer, Effect, MulticastDatagram,
                                SendDatagram, StartTimer)
from repro.core.messages import ProtocolMessage


class NotifyTail:
    """Mixin: resend to the unacked until every ack is in.

    The machine fills ``unacked`` and makes the first send itself; while
    notifying it routes each ack and each expiry of its notify timer
    here, with its notice and timer token.  Resends are unicast and
    count against ``max_notify_retries`` (``None``: never give up); at
    the cap the machine stands down through ``_notify_give_up``.
    """

    max_notify_retries: Optional[int] = None
    unacked: Tuple[str, ...] = ()
    notify_retries = 0
    use_multicast = False

    def _fan_out(self, dsts: Sequence[str],
                 msg: ProtocolMessage) -> List[Effect]:
        """One multicast datagram where the machine opted in and has
        several destinations, else one datagram each."""
        if self.use_multicast and len(dsts) > 1:
            return [MulticastDatagram(tuple(dsts), msg)]
        return [SendDatagram(dst, msg) for dst in dsts]

    def _notify(self, notice: ProtocolMessage, timer: str) -> List[Effect]:
        effects: List[Effect] = [SendDatagram(s, notice)
                                 for s in self.unacked]
        effects.append(StartTimer(timer))
        return effects

    def _notify_ack(self, sender: str, timer: str) -> List[Effect]:
        if sender not in self.unacked:
            return []
        self.unacked = tuple(s for s in self.unacked if s != sender)
        if self.unacked:
            return []
        return [CancelTimer(timer)] + self._finish()

    def _notify_retry(self, notice: ProtocolMessage,
                      timer: str) -> List[Effect]:
        self.notify_retries += 1
        if self.max_notify_retries is not None \
                and self.notify_retries > self.max_notify_retries:
            return self._notify_give_up()
        return self._notify(notice, timer)

    def _notify_give_up(self) -> List[Effect]:
        return self._finish()

    def _finish(self) -> List[Effect]:
        raise NotImplementedError
