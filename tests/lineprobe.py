"""Line probe: which executable lines of ``src/repro`` nothing runs.

Stdlib only (``sys.settrace``).  It traces ``src/repro`` frames and
nothing else, in the process that loads it and in every child Python
that process starts: a ``sitecustomize.py`` written to a temp dir and
put first on ``PYTHONPATH`` starts the same tracer in each child.
Each process appends each line the first time it runs it to its own
file under ``.lineprobe/hits/``, so a child killed with SIGKILL still
reports what it ran.

    # tier-1, child interpreters traced (starts a fresh .lineprobe/)
    PYTHONPATH=src python -m pytest -x -q -p tests.lineprobe
    # add a command's lines (and its children's) to the union
    PYTHONPATH=src python tests/lineprobe.py python -m repro.live smoke
    # print never-run counts per package; write .lineprobe/never-run.txt
    python tests/lineprobe.py

An executable line is one that some code object's ``co_lines`` names,
so a line counts once however many instructions it compiles to.  The
report lists each file's never-run lines under the innermost function
(``co_qualname``) that holds them.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import threading
from collections import defaultdict
from pathlib import Path
from typing import Dict, List, Set

HERE = Path(__file__).resolve()
ROOT = HERE.parent.parent / "src" / "repro"
DATA = Path.cwd() / ".lineprobe"
REPORT = "never-run.txt"

_SITECUSTOMIZE = """\
import importlib.util as _util
_spec = _util.spec_from_file_location("_repro_lineprobe", {probe!r})
_probe = _util.module_from_spec(_spec)
_spec.loader.exec_module(_probe)
_probe.start({hits!r})
"""


# ------------------------------------------------------------ tracing


def start(hits_dir: str) -> None:
    """Trace ``src/repro`` lines in this process (and threads it starts
    from now on) into ``hits_dir/<pid>.txt``."""
    fd = os.open(os.path.join(hits_dir, f"{os.getpid()}.txt"),
                 os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
    root = str(ROOT) + os.sep
    wanted: Dict[object, object] = {}   # code object -> local tracer or None
    by_file: Dict[str, object] = {}

    def local_for(path: str):
        rel = os.path.relpath(path, root).encode()
        seen: Set[int] = set()

        def local(frame, event, arg):
            if event == "line":
                n = frame.f_lineno
                if n not in seen:
                    seen.add(n)
                    os.write(fd, b"%s:%d\n" % (rel, n))
            return local
        return local

    def call(frame, event, arg):
        code = frame.f_code
        try:
            local = wanted[code]
        except KeyError:
            path = os.path.abspath(code.co_filename)
            local = None
            if path.startswith(root):
                local = by_file.get(path)
                if local is None:
                    local = by_file[path] = local_for(path)
            wanted[code] = local
        if local is not None:
            local(frame, "line", arg)
        return local

    threading.settrace(call)
    sys.settrace(call)


def stop() -> None:
    sys.settrace(None)
    threading.settrace(None)


def install(data: Path = DATA) -> str:
    """Write the child ``sitecustomize.py``; return the dir to put first
    on ``PYTHONPATH``."""
    hits = data / "hits"
    hits.mkdir(parents=True, exist_ok=True)
    site = tempfile.mkdtemp(prefix="lineprobe-")
    Path(site, "sitecustomize.py").write_text(
        _SITECUSTOMIZE.format(probe=str(HERE), hits=str(hits)))
    return site


def with_site(site: str, env: Dict[str, str]) -> Dict[str, str]:
    old = env.get("PYTHONPATH")
    env = dict(env)
    env["PYTHONPATH"] = site if not old else site + os.pathsep + old
    return env


# ------------------------------------------------------------ counting


def executable_lines(path: Path) -> Dict[int, str]:
    """Line -> qualname of the innermost code object that names it."""
    out: Dict[int, str] = {}

    def walk(code, depth: int, depths: Dict[int, int]) -> None:
        for _, _, line in code.co_lines():
            if line and depths.get(line, -1) < depth:
                depths[line] = depth
                out[line] = code.co_qualname
        for const in code.co_consts:
            if hasattr(const, "co_lines"):
                walk(const, depth + 1, depths)

    walk(compile(path.read_text(), str(path), "exec"), 0, {})
    return out


def hit_lines(data: Path = DATA) -> Dict[str, Set[int]]:
    hits: Dict[str, Set[int]] = defaultdict(set)
    for f in sorted((data / "hits").glob("*.txt")):
        for row in f.read_text().splitlines():
            rel, _, n = row.rpartition(":")
            if rel:
                hits[rel].add(int(n))
    return hits


def _spans(lines: List[int]) -> str:
    out, start = [], None
    for i, n in enumerate(lines):
        if start is None:
            start = n
        if i + 1 == len(lines) or lines[i + 1] != n + 1:
            out.append(str(start) if start == n else f"{start}-{n}")
            start = None
    return " ".join(out)


def report(data: Path = DATA) -> str:
    """Write ``never-run.txt`` under ``data`` and return the summary."""
    hits = hit_lines(data)
    total = never = 0
    per_package: Dict[str, int] = defaultdict(int)
    rows: List[str] = []
    for path in sorted(ROOT.rglob("*.py")):
        rel = path.relative_to(ROOT).as_posix()
        lines = executable_lines(path)
        total += len(lines)
        missed = sorted(set(lines) - hits.get(rel, set()))
        if not missed:
            continue
        never += len(missed)
        package = rel.split("/")[0] if "/" in rel else "(top)"
        per_package[package] += len(missed)
        rows.append(f"{rel}: {len(missed)}")
        by_qualname: Dict[str, List[int]] = defaultdict(list)
        for n in missed:
            by_qualname[lines[n]].append(n)
        for qualname, ns in sorted(by_qualname.items(),
                                   key=lambda kv: kv[1][0]):
            rows.append(f"    {qualname}: {_spans(ns)}")
    (data / REPORT).write_text("\n".join(rows) + "\n")
    summary = [f"lineprobe: {never} of {total} executable lines in "
               f"src/repro never run ({data / REPORT})"]
    summary += [f"  {pkg:<10} {n:5d}" for pkg, n in sorted(per_package.items())]
    return "\n".join(summary)


# ------------------------------------------------------------ pytest


def pytest_load_initial_conftests(early_config) -> None:
    # Before conftest.py imports repro, so module bodies are traced too.
    shutil.rmtree(DATA, ignore_errors=True)
    early_config._lineprobe_site = site = install()
    os.environ["PYTHONPATH"] = with_site(site, dict(os.environ))["PYTHONPATH"]
    start(str(DATA / "hits"))


def pytest_terminal_summary(terminalreporter, config) -> None:
    stop()
    shutil.rmtree(config._lineprobe_site, ignore_errors=True)
    terminalreporter.write_line(report())


# ------------------------------------------------------------ commands


def main(argv: List[str]) -> int:
    if not argv:
        if not (DATA / "hits").is_dir():
            print(f"lineprobe: no {DATA}; run pytest -p tests.lineprobe "
                  "first", file=sys.stderr)
            return 2
        print(report())
        return 0
    site = install()
    try:
        return subprocess.call(argv, env=with_site(site, dict(os.environ)))
    finally:
        shutil.rmtree(site, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
