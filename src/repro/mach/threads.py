"""C-Threads-style threading for simulated processes.

Camelot's transaction manager follows three rules the paper spells out:
create a pool of threads at start and grow it on demand (never destroy
one); protect primary data structures with locks; and never tie a thread
to a transaction — every thread waits for *any* input, processes it, and
resumes waiting.  :class:`CThreadsPool` implements exactly that shape.

The one lock the simulated TranMan takes is the plain C-Threads mutex
(:class:`repro.sim.resources.SimLock`, one per transaction family):
purely exclusive, self-deadlocking if re-acquired.  The paper's
``rw-lock`` package and lock hierarchy are not modelled: nothing in the
simulation shares a structure between readers, and one lock per family
leaves no order to get wrong.
"""

from __future__ import annotations

from typing import Any, Callable, Generator, List, Optional

from repro.mach.message import Message
from repro.mach.ports import Port
from repro.sim.kernel import Kernel
from repro.sim.process import Process

# A handler receives one message and returns a process-body generator.
Handler = Callable[[Message], Generator[Any, Any, None]]


class CThreadsPool:
    """A fixed-or-growable pool of worker threads draining one port.

    Every worker runs the same loop: receive from ``port``, invoke
    ``handler(msg)`` (a generator — it may block on locks, log forces,
    nested RPCs), and go back to receiving.  With ``size=1`` a single
    long-running handler (e.g. a commit protocol waiting on a log force)
    blocks all other requests — the effect the paper's Figures 4-5
    measure.
    """

    def __init__(self, kernel: Kernel, port: Port, handler: Handler,
                 size: int, name: str = "pool",
                 spawn: Optional[Callable[..., Process]] = None):
        if size < 1:
            raise ValueError("pool needs at least one thread")
        self.kernel = kernel
        self.port = port
        self.handler = handler
        self.name = name
        self._spawn = spawn or (lambda body, name: Process(kernel, body, name=name))
        self.workers: List[Process] = []
        self.busy = 0
        self.handled = 0
        for _ in range(size):
            self.grow()

    @property
    def size(self) -> int:
        return len(self.workers)

    def grow(self) -> None:
        """Add one worker (threads are never destroyed, per the paper)."""
        index = len(self.workers)
        proc = self._spawn(self._worker_loop(), f"{self.name}.t{index}")
        self.workers.append(proc)

    def _worker_loop(self) -> Generator[Any, Any, None]:
        while True:
            msg = yield from self.port.receive()
            self.busy += 1
            try:
                yield from self.handler(msg)
            finally:
                self.busy -= 1
                self.handled += 1

    def kill(self) -> None:
        for proc in self.workers:
            proc.kill()
        self.workers.clear()

