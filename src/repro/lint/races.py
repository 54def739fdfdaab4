"""Simulation race detector: same-timestamp events on a shared object.

The kernel breaks same-instant ties by scheduling sequence number, so a
single run is always reproducible.  But when two events land at the same
virtual time on the same port/lock/WAL object *from independent causal
chains*, their relative order is decided only by which ``schedule`` call
happened to run first — a global, history-shaped tie-break.  Any code
change that reorders unrelated scheduling (adding a trace, batching a
send) silently flips the outcome, which is exactly the class of bug the
byte-equality harness cannot localise.  Events scheduled by the *same*
parent event are exempt: their order is written down in the parent's
code, a deterministic tie-break sequence.

Usage::

    detector = RaceDetector()
    kernel.monitor = detector          # opt-in kernel mode
    ... run the simulation ...
    for race in detector.finish():     # RaceReport records
        ...

:func:`scan_for_races` runs the stock distributed scenario with the
detector attached and converts the reports into lint findings, so
``python -m repro.lint --races`` folds dynamic races into the same
report as the static rules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.lint.findings import Finding


def _resource_classes() -> tuple:
    from repro.log.wal import WriteAheadLog
    from repro.mach.ports import Port
    from repro.sim.events import SimEvent
    from repro.sim.resources import Channel, Semaphore, SimLock
    return (Port, Channel, SimLock, Semaphore, SimEvent, WriteAheadLog)


def _describe(obj: Any) -> str:
    name = getattr(obj, "name", None)
    label = f" {name}" if isinstance(name, str) and name else ""
    return f"{type(obj).__name__}{label}"


def _callback_site(fn: Callable) -> Tuple[str, int, str]:
    """(file, line, qualname) of a callback, unwrapping bound methods."""
    inner = getattr(fn, "__func__", fn)
    code = getattr(inner, "__code__", None)
    if code is None:
        return ("<builtin>", 0, repr(fn))
    return (code.co_filename, code.co_firstlineno,
            getattr(inner, "__qualname__", inner.__name__))


@dataclass(frozen=True)
class RaceReport:
    """Two same-timestamp events from independent parents sharing an
    object; ordering between them is an accident of scheduling order."""

    time: float
    resource: str
    first: str      # "qualname (file:line)" of the earlier-seq callback
    second: str
    first_site: Tuple[str, int]
    second_site: Tuple[str, int]

    def describe(self) -> str:
        return (f"t={self.time:g}: {self.first} vs {self.second} both "
                f"touch {self.resource} with no deterministic tie-break")


class RaceDetector:
    """Kernel monitor (see :attr:`repro.sim.kernel.Kernel.monitor`).

    Tracks, for every fired event, which event scheduled it and which
    resource objects its callback touches (the bound receiver plus any
    argument that is a port/channel/lock/event/WAL).  Within each group
    of events firing at one instant, pairs that share a resource and are
    not causally ordered inside the group are reported as races.
    """

    MAX_REPORTS = 200

    def __init__(self) -> None:
        self._resource_classes = _resource_classes()
        self.races: List[RaceReport] = []
        self.events_seen = 0
        self._current_seq: Optional[int] = None
        self._parents: Dict[int, Optional[int]] = {}
        self._group_time: Optional[float] = None
        # (seq, parent_seq, resource ids, (id -> description), site)
        self._group: List[Tuple[int, Optional[int], frozenset,
                                Dict[int, str], Tuple[str, int, str]]] = []
        self._seen_pairs: set = set()

    # ------------------------------------------------- kernel protocol

    def on_schedule(self, seq: int) -> None:
        self._parents[seq] = self._current_seq

    def before_fire(self, time: float, seq: int, fn: Callable,
                    args: tuple) -> None:
        self.events_seen += 1
        if time != self._group_time:
            self._flush_group()
            self._group_time = time
        resources: Dict[int, str] = {}
        receiver = getattr(fn, "__self__", None)
        for obj in (receiver, *args):
            if isinstance(obj, self._resource_classes):
                resources[id(obj)] = _describe(obj)
        parent = self._parents.pop(seq, None)
        self._group.append((seq, parent, frozenset(resources), resources,
                            _callback_site(fn)))
        self._current_seq = seq

    # ---------------------------------------------------------- results

    def finish(self) -> List[RaceReport]:
        """Close the open group and return all reports found so far."""
        self._flush_group()
        self._group_time = None
        return list(self.races)

    def _flush_group(self) -> None:
        group, self._group = self._group, []
        if len(group) < 2 or len(self.races) >= self.MAX_REPORTS:
            return
        in_group = {seq: parent for seq, parent, *_ in group}

        def causally_ordered(a_seq: int, b_seq: int) -> bool:
            # Walk b's parent chain while it stays inside this instant.
            cur: Optional[int] = b_seq
            while cur is not None and cur in in_group:
                cur = in_group[cur]
                if cur == a_seq:
                    return True
            return False

        for i, (a_seq, a_parent, a_res, a_desc, a_site) in enumerate(group):
            if not a_res:
                continue
            for (b_seq, b_parent, b_res, b_desc, b_site) in group[i + 1:]:
                shared = a_res & b_res
                if not shared:
                    continue
                if a_parent == b_parent:
                    continue  # sibling order is written in the parent
                if causally_ordered(a_seq, b_seq) \
                        or causally_ordered(b_seq, a_seq):
                    continue
                resource = sorted(a_desc[rid] for rid in shared)[0]
                pair = (a_site[:2], b_site[:2], resource)
                if pair in self._seen_pairs:
                    continue
                self._seen_pairs.add(pair)
                self.races.append(RaceReport(
                    time=self._group_time or 0.0,
                    resource=resource,
                    first=f"{a_site[2]}",
                    second=f"{b_site[2]}",
                    first_site=a_site[:2],
                    second_site=b_site[:2]))
                if len(self.races) >= self.MAX_REPORTS:
                    return


# ------------------------------------------------------- lint integration


def reports_to_findings(reports: List[RaceReport]) -> List[Finding]:
    out = []
    for r in reports:
        path, line = r.first_site
        rel = path
        for marker in ("src/",):
            if marker in path:
                rel = path[path.index(marker):]
                break
        out.append(Finding(
            rule="event-race", file=rel, line=line,
            message=(f"same-timestamp race: {r.describe()}"),
            key=f"{r.first}|{r.second}|{r.resource}"))
    return out


def scan_for_races(duration_ms: float = 4000.0) -> List[Finding]:
    """Run the stock two-site update scenario with the detector on.

    This is the dynamic half of ``python -m repro.lint``: a small
    simulation of both commit protocols with the race detector attached,
    its reports folded into the normal findings stream.
    """
    from repro.config import SystemConfig
    from repro.core.outcomes import ProtocolKind
    from repro.system import CamelotSystem

    findings: List[Finding] = []
    for protocol in (ProtocolKind.TWO_PHASE, ProtocolKind.NON_BLOCKING):
        system = CamelotSystem(SystemConfig(sites={"a": 1, "b": 1}, seed=7))
        detector = RaceDetector()
        system.kernel.monitor = detector
        app = system.application("a")

        def workload(app: Any = app,
                     protocol: Any = protocol) -> Any:
            for i in range(3):
                tid = yield from app.begin(protocol=protocol)
                yield from app.write(tid, "server0@a", f"x{i}", i)
                yield from app.write(tid, "server0@b", f"y{i}", i)
                yield from app.commit(tid)

        system.run_process(workload(), timeout_ms=duration_ms)
        findings.extend(reports_to_findings(detector.finish()))
    # Two protocol passes can rediscover the same pair; dedupe on key.
    unique: Dict[str, Finding] = {}
    for f in findings:
        unique.setdefault(f.key, f)
    return list(unique.values())
