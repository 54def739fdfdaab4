"""Network substrate: the token-ring LAN and the TranMan datagram layer.

The paper's testbed was a 4 Mb/s IBM token ring without gateways.  Two
of its observations shape this model:

- the coordinator's *serial* datagram sends (a send "cycle" costs 1.7 ms,
  so the third prepare message leaves ~3.4 ms after the first), and
- latency variance that grows with network load — and largely disappears
  when the coordinator multicasts instead of repeatedly unicasting.

:class:`~repro.net.lan.Lan` models transit, jitter, serialization,
multicast, partitions and message loss.  :class:`~repro.net.datagram.DatagramService`
is the thin layer TranMans talk through (timeout/retry and duplicate
detection belong to the protocol state machines, as in Camelot).  :class:`~repro.net.failures.FailureInjector` scripts
crashes and partitions for experiments and tests.
"""

from repro.net.datagram import DatagramService
from repro.net.failures import FailureInjector
from repro.net.lan import Lan

__all__ = ["DatagramService", "FailureInjector", "Lan"]
