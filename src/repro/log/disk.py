"""The log device timing model.

The paper's numbers: a raw one-track disk write takes 26.8 ms; a log
force costs 15 ms (Table 2 — less than a full track because the log
writes partial tracks and the disk manager positions lazily); "a
transaction facility cannot do more than about 30 log writes per second"
without batching.

The model: each write occupies the device for ``force_time`` plus a
per-kilobyte transfer charge; the device serves one write at a time
(FIFO).  Batched writes (group commit) pay the fixed positioning cost
once for the whole batch — that is the entire throughput win of §3.5.
"""

from __future__ import annotations

from typing import Any, Generator

from repro.config import CostModel
from repro.sim.kernel import Kernel
from repro.sim.process import Sleep
from repro.sim.resources import SimLock


class DiskModel:
    """One log disk: serial, with fixed positioning plus transfer time."""

    # 4 Mb/s-era disk transfer: ~0.02 ms per 64-byte record is generous
    # but keeps large batches from being free.
    TRANSFER_MS_PER_KB = 0.3

    def __init__(self, kernel: Kernel, cost: CostModel, name: str = "logdisk"):
        self.kernel = kernel
        self.cost = cost
        self.name = name
        self._busy = SimLock(kernel, name=f"{name}.busy")
        self.writes = 0
        self.busy_ms = 0.0

    def write_time(self, total_bytes: int) -> float:
        """Device occupancy for one (possibly batched) write."""
        return self.cost.log_force + self.TRANSFER_MS_PER_KB * (total_bytes / 1024.0)

    def write(self, total_bytes: int) -> Generator[Any, Any, None]:
        """Occupy the device for one write of ``total_bytes``.

        Returns when the data is on the platter; callers treat that as
        the durability point.
        """
        yield from self._busy.acquire()
        try:
            duration = self.write_time(total_bytes)
            self.writes += 1
            self.busy_ms += duration
            yield Sleep(duration)
        finally:
            self._busy.release()

    @property
    def queue_depth(self) -> int:
        """Writes currently waiting for the device (excludes in-service)."""
        return len(self._busy._waiters)  # noqa: SLF001 - introspection for stats

    def utilization(self, elapsed_ms: float) -> float:
        if elapsed_ms <= 0:
            return 0.0
        return self.busy_ms / elapsed_ms
