"""The repo's benchmark: host speed of the simulator and live commit
latency on five workloads, with a per-layer traced run.

Everything here drives ``repro`` from outside, through its public entry
points; nothing under ``src/`` knows this package exists.  See
``perf/README.md`` for the metrics and how to read them, and
``BENCHMARK.json`` at the repo root for the contract the driver runs.
"""

import importlib.util
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# Where a run keeps its files (WALs, port files): inside the checkout,
# because the driver allows nothing else, and so on whatever filesystem
# the checkout is on.  Listed in .gitignore.
SCRATCH = ROOT / ".perf_run"

# ``python -m perf`` must work from a bare checkout (no PYTHONPATH, no
# install): put the source tree on the path unless ``repro`` already
# resolves.  In a directory that holds only the benchmark this finds
# nothing and the first ``import repro`` fails, as the contract asks.
if importlib.util.find_spec("repro") is None and (ROOT / "src" / "repro").is_dir():
    sys.path.insert(0, str(ROOT / "src"))


def scratch_dir(name: str) -> str:
    """A fresh directory of this process's own under ``SCRATCH``."""
    path = SCRATCH / f"{name}-{os.getpid()}"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return str(path)


def remove_scratch(path: str) -> None:
    """Remove ``path``, and ``SCRATCH`` itself once it is empty."""
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass  # another run's directory is still there
