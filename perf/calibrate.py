"""How fast is the host right now?  A fixed pure-Python reference load.

The sandbox this benchmark was sized on runs at one of several speeds,
up to 1.6x apart, for seconds to minutes at a time, depending on the
host's other tenants (README "Noise").  A run that falls wholly inside
a slow spell cannot find the fast speed by any statistic of its own
times, so every timed region is bracketed by this reference load and
its time is restated at reference speed: ``seconds * REFERENCE_S /
spin_seconds``.  On an undisturbed reference host the factor is 1.

The load is interpreter work of the kind the simulator does — object
allocation, a heap, a dict, a generator resume, a method call — because
a tight arithmetic loop slows down by a different factor under the same
interference.  It imports nothing from the repo: a change to the repo
cannot move it.
"""

from __future__ import annotations

import time
from heapq import heappop, heappush
from typing import Any, Generator

# What ``reference_seconds()`` reads on the reference sandbox when
# nothing interferes (its fastest level; 2.5 ms there).  Only ratios of
# normalised numbers mean anything across machines.
REFERENCE_S = 0.0025
SPIN_OPS = 3000
SPINS = 5


class _Item:
    __slots__ = ("key", "count")

    def __init__(self, key: str):
        self.key = key
        self.count = 0

    def bump(self) -> int:
        self.count += 1
        return self.count


def _echo() -> Generator[int, int, None]:
    value = 0
    while True:
        value = yield value + 1


def _spin() -> float:
    heap: list = []
    table: dict = {}
    echo = _echo()
    next(echo)
    started = time.perf_counter()
    for i in range(SPIN_OPS):
        item = _Item(str(i))
        heappush(heap, (i * 7919 % 1000, i, item))
        table[item.key] = item
        echo.send(i)
        item.bump()
        if i & 1:
            popped: Any = heappop(heap)[2]
            table.pop(popped.key, None)
    return time.perf_counter() - started


def reference_seconds() -> float:
    """Seconds the reference load takes now: the fastest of a few short
    spins, so that a 50 ms hiccup during one of them is not mistaken for
    the host's speed level."""
    return min(_spin() for _ in range(SPINS))
