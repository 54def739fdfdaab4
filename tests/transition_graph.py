"""Transition recorder: each protocol machine's graph, read off runs.

``Recorder`` wraps the input methods of every ``repro.core`` machine
class (``INPUTS``) and, for each call, records one row

    (machine, input, state before) -> (state after, effect labels)

so the graph is what the machines did, not what their source might do.
``record_corpus`` runs a fixed, deterministic corpus under it: the 600
fixed fuzz schedules (``tests/test_protocol_fuzz.py``; they run here
and nowhere else), the stale-input table, the ``run_counts`` grid
(``tests/test_protocol_graph.py``) and every test of the machines' unit
modules (``UNIT_MODULES``), which script the takeovers, heuristic
resolutions and give-ups a fuzz schedule seldom reaches.
Hypothesis-drawn runs never feed the graph: their draws change from
run to run, and so would the rows.

    # write the observed graph as JSON (one entry per machine)
    PYTHONPATH=src python -m tests.transition_graph graph.json
"""

from __future__ import annotations

import hashlib
import importlib
import inspect
import json
import sys
from enum import Enum
from functools import partial
from pathlib import Path
from types import ModuleType
from typing import Any, Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.core import abortproto, edge, nonblocking, paxoscommit, twophase

# The methods a host or the edge drives a machine through, each with
# how its argument labels the input.
INPUTS: Dict[str, Callable[..., str]] = {
    "start": lambda: "start",
    "on_local_prepared": lambda vote: f"local_prepared:{vote.name}",
    "on_message": lambda msg: type(msg).__name__,
    "on_timer": lambda token: f"timer:{token}",
    "on_log_forced": lambda token: f"forced:{token}",
    "on_log_durable": lambda token: f"durable:{token}",
    "abort_now": lambda: "abort_now",
    "heuristic_resolve": lambda outcome: f"heuristic_resolve:{outcome.name}",
}

# The machines' unit-test modules, under ``tests``: each of their tests
# joins the corpus.
UNIT_MODULES = (
    "test_abortproto_unit", "test_heuristic_commit",
    "test_nonblocking_takeover_duel", "test_nonblocking_unit",
    "test_notify_tail", "test_paxoscommit_takeover_duel",
    "test_paxoscommit_unit", "test_twophase_edges", "test_twophase_unit",
)

Row = Tuple[str, str, Optional[str], Optional[str], Tuple[str, ...]]


def machine_classes() -> List[type]:
    """Every class in the machine modules with a ``start`` input."""
    return sorted((cls for module in (abortproto, edge, nonblocking,
                                      paxoscommit, twophase)
                   for cls in vars(module).values()
                   if inspect.isclass(cls) and cls.__module__ ==
                   module.__name__ and "start" in vars(cls)),
                  key=lambda cls: cls.__name__)


def _state(machine: Any) -> Optional[str]:
    state = getattr(machine, "state", None)
    return None if state is None else state.name


def effect_label(effect: Any) -> str:
    """``SendDatagram(CommitNotice)``, ``ForceLog(prepare)[2pc.prepare_force]``,
    ``StartTimer[2pc.votes]``, ``Complete[COMMITTED]``, ``Forget``..."""
    label = type(effect).__name__
    message = getattr(effect, "message", None)
    record = getattr(effect, "record", None)
    if message is not None:
        label += f"({type(message).__name__})"
    elif record is not None:
        label += f"({record.kind.value})"
    for attr in ("token", "kind", "outcome"):
        value = getattr(effect, attr, None)
        if value is not None:
            label += f"[{getattr(value, 'name', value)}]"
    return label


def effect_labels(effects: List[Any]) -> Tuple[str, ...]:
    """Labels in order, a run of equal ones (a fan-out) as one."""
    out: List[str] = []
    for effect in effects:
        label = effect_label(effect)
        if not out or out[-1] != label:
            out.append(label)
    return tuple(out)


class Recorder:
    """While entered, every input call on a machine class adds its row."""

    def __init__(self) -> None:
        self.rows: Set[Row] = set()
        self.initial: Dict[str, Set[Enum]] = {}
        self._saved: List[Tuple[type, str, Optional[Any]]] = []

    def __enter__(self) -> "Recorder":
        for cls in machine_classes():
            self.initial.setdefault(cls.__name__, set())
            self._patch(cls, "__init__", self._init(cls, cls.__init__))
            for name, label in INPUTS.items():
                if hasattr(cls, name):
                    self._patch(cls, name, self._input(
                        cls.__name__, getattr(cls, name), label))
        return self

    def __exit__(self, *exc: Any) -> None:
        for cls, name, original in reversed(self._saved):
            if original is None:
                delattr(cls, name)
            else:
                setattr(cls, name, original)
        self._saved.clear()

    def _patch(self, cls: type, name: str, wrapper: Callable) -> None:
        self._saved.append((cls, name, cls.__dict__.get(name)))
        setattr(cls, name, wrapper)

    def _init(self, cls: type, original: Callable) -> Callable:
        def __init__(machine: Any, *args: Any, **kwargs: Any) -> None:
            original(machine, *args, **kwargs)
            if getattr(machine, "state", None) is not None:
                self.initial[cls.__name__].add(machine.state)
        return __init__

    def _input(self, machine_name: str, original: Callable,
               label: Callable[..., str]) -> Callable:
        def handler(machine: Any, *args: Any) -> List[Any]:
            src = _state(machine)
            effects = original(machine, *args)
            self.rows.add((machine_name, label(*args), src, _state(machine),
                           effect_labels(effects)))
            return effects
        return handler

    def graph(self) -> Dict[str, Dict[str, Any]]:
        """Per machine: the members of the enum its constructor set its
        state from, the initial states, and the observed rows, sorted."""
        out: Dict[str, Dict[str, Any]] = {}
        for cls in machine_classes():
            name = cls.__name__
            enum = next((type(s) for s in self.initial[name]), None)
            rows = sorted((r for r in self.rows if r[0] == name),
                          key=lambda r: (r[1], r[2] or "", r[3] or "", r[4]))
            out[name] = {
                "state_enum": enum.__name__ if enum else None,
                "states": [m.name for m in enum] if enum else [],
                "initial": sorted(s.name for s in self.initial[name]),
                "rows": [{"input": r[1], "src": r[2], "dst": r[3],
                          "effects": list(r[4])} for r in rows],
            }
        return out


def graph_json(graph: Dict[str, Dict[str, Any]]) -> str:
    return json.dumps(graph, indent=1, sort_keys=True) + "\n"


def digest(graph: Dict[str, Dict[str, Any]]) -> str:
    return hashlib.sha256(graph_json(graph).encode()).hexdigest()


# ------------------------------------------------------------ corpus


def record_corpus() -> Dict[str, Any]:
    """Run the corpus under a recorder; return the graph and how many
    fixed fuzz schedules each family ran (each asserts its invariants)."""
    # Imported here: test_protocol_graph imports this module.
    from tests.test_protocol_fuzz import STALE, run_fixed_schedules
    from tests.test_protocol_graph import COUNT_GRID, FAMILIES, run_counts

    schedules = {}
    with Recorder() as recorder:
        for family in sorted(FAMILIES):
            schedules[family] = run_fixed_schedules(family)
        for case in STALE.values():
            case()
        for args in COUNT_GRID:
            run_counts(*args)
        for name in UNIT_MODULES:
            for run in unit_runs(importlib.import_module(f"tests.{name}")):
                run()
    return {"graph": recorder.graph(), "schedules": schedules}


def unit_runs(module: ModuleType) -> Iterator[Callable[[], None]]:
    """Each call pytest makes of a module's tests.  A test there takes
    no argument, or the ones its single ``parametrize`` mark supplies."""
    for name, fn in sorted(vars(module).items()):
        if not name.startswith("test_") or not inspect.isfunction(fn):
            continue
        params = list(inspect.signature(fn).parameters)
        marks = getattr(fn, "pytestmark", [])
        names: List[str] = []
        rows: List[Any] = [()]
        if [m.name for m in marks] == ["parametrize"]:
            names = [n.strip() for n in marks[0].args[0].split(",")]
            rows = [v if len(names) > 1 else (v,) for v in marks[0].args[1]]
        if names != params or len(marks) > 1:
            raise ValueError(f"{module.__name__}.{name}: the corpus runs "
                             "plain and parametrized tests only")
        yield from (partial(fn, *row) for row in rows)


def main(argv: List[str]) -> int:
    if len(argv) != 1:
        print("usage: python -m tests.transition_graph OUT.json",
              file=sys.stderr)
        return 2
    graph = record_corpus()["graph"]
    out = Path(argv[0])
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(graph_json(graph))
    print(f"{argv[0]}: {sum(len(m['rows']) for m in graph.values())} rows "
          f"over {len(graph)} machines, sha256 {digest(graph)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
