"""Named deterministic random-number streams.

Each subsystem (network jitter, workload think times, failure injection)
draws from its *own* stream, derived from a master seed plus the stream
name.  That way adding a random draw in one subsystem does not perturb
the sequence seen by another — experiments stay comparable across code
changes, the standard trick in simulation practice.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict


def _derive_seed(master_seed: int, name: str) -> int:
    digest = hashlib.sha256(f"{master_seed}:{name}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RngStreams:
    """A factory of independent, reproducible ``random.Random`` streams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self._streams: Dict[str, random.Random] = {}

    def stream(self, name: str) -> random.Random:
        """Return the stream for ``name``, creating it deterministically."""
        rng = self._streams.get(name)
        if rng is None:
            rng = random.Random(_derive_seed(self.master_seed, name))
            self._streams[name] = rng  # lint: bounded(one entry per stream name)
        return rng

    def uniform(self, name: str, lo: float, hi: float) -> float:
        return self.stream(name).uniform(lo, hi)

    def expovariate(self, name: str, rate: float) -> float:
        return self.stream(name).expovariate(rate)

    def gauss(self, name: str, mu: float, sigma: float) -> float:
        return self.stream(name).gauss(mu, sigma)
