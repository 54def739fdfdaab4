"""Fault schedules: the unit of chaos exploration.

A :class:`FaultSchedule` is an ordered list of :class:`FaultEvent`
records — plain data, JSON-round-trippable, applied to a system through
its :class:`~repro.net.failures.FailureInjector`.  Schedules are what
the shrinker minimises and what a repro artifact replays, so they carry
no object references and no ambient state.

:func:`random_schedule` draws a schedule from a seeded
``random.Random``; the same ``(sites, seed)`` pair always yields the
same schedule.  Generated schedules may crash a site that is already
down or heal a network that is whole — the injector treats those as
traced no-ops, so generation needs no feasibility bookkeeping beyond
what makes schedules *interesting* (restarts prefer crashed sites,
repairs usually close the run so liveness oracles get to fire).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.net.failures import FailureInjector

# Kinds drawn by random_schedule.  This tuple is part of the seed
# contract — appending to it would reshuffle every historical seed's
# schedule — so composite/directed kinds live in EXTRA_KINDS instead.
KINDS = ("crash", "restart", "partition", "heal", "loss")
# Additional kinds for directed sweeps and hand-written schedules:
# ``crash_restart`` is the atomic crash-then-recover fault (the site
# comes back after ``delay`` and runs recovery mid-protocol);
# ``duplicate`` turns on network message duplication.
EXTRA_KINDS = ("crash_restart", "duplicate")
ALL_KINDS = KINDS + EXTRA_KINDS

# Default time-to-repair for crash_restart: long enough that every
# retry/takeover timer at the survivors has fired at least once.
DEFAULT_RESTART_DELAY_MS = 5_000.0


@dataclass(frozen=True)
class FaultEvent:
    """One injected fault at one virtual instant."""

    time: float
    kind: str                                    # one of ALL_KINDS
    site: Optional[str] = None                   # crash / restart
    groups: Optional[Tuple[Tuple[str, ...], ...]] = None   # partition
    probability: Optional[float] = None          # loss / duplicate
    delay: Optional[float] = None                # crash_restart

    def __post_init__(self) -> None:
        if self.kind not in ALL_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}")
        if self.kind in ("crash", "restart", "crash_restart") \
                and not self.site:
            raise ValueError(f"{self.kind} event needs a site")
        if self.kind == "partition" and not self.groups:
            raise ValueError("partition event needs groups")
        if self.kind in ("loss", "duplicate") and self.probability is None:
            raise ValueError(f"{self.kind} event needs a probability")

    @property
    def restart_time(self) -> float:
        """When a crash_restart's site comes back (== time otherwise)."""
        if self.kind != "crash_restart":
            return self.time
        return self.time + (self.delay if self.delay is not None
                            else DEFAULT_RESTART_DELAY_MS)

    def describe(self) -> str:
        if self.kind in ("crash", "restart"):
            return f"t={self.time:g} {self.kind}({self.site})"
        if self.kind == "crash_restart":
            return (f"t={self.time:g} crash_restart({self.site}, "
                    f"back@{self.restart_time:g})")
        if self.kind == "partition":
            groups = "|".join(",".join(g) for g in self.groups or ())
            return f"t={self.time:g} partition({groups})"
        if self.kind == "loss":
            return f"t={self.time:g} loss(p={self.probability:g})"
        if self.kind == "duplicate":
            return f"t={self.time:g} duplicate(p={self.probability:g})"
        return f"t={self.time:g} heal"

    def to_json(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {"time": self.time, "kind": self.kind}
        if self.site is not None:
            data["site"] = self.site
        if self.groups is not None:
            data["groups"] = [list(g) for g in self.groups]
        if self.probability is not None:
            data["probability"] = self.probability
        if self.delay is not None:
            data["delay"] = self.delay
        return data

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "FaultEvent":
        groups = data.get("groups")
        return FaultEvent(
            time=float(data["time"]),
            kind=data["kind"],
            site=data.get("site"),
            groups=(tuple(tuple(g) for g in groups)
                    if groups is not None else None),
            probability=data.get("probability"),
            delay=data.get("delay"),
        )


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered fault sequence plus a human label for reports."""

    events: Tuple[FaultEvent, ...] = ()
    label: str = ""

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.events, key=lambda e: e.time))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def horizon(self) -> float:
        """Virtual time of the last injected action (0 when empty); a
        crash_restart's horizon is its restart instant."""
        if not self.events:
            return 0.0
        return max(e.restart_time for e in self.events)

    def describe(self) -> str:
        body = "; ".join(e.describe() for e in self.events) or "(no faults)"
        return f"[{self.label}] {body}" if self.label else body

    def apply(self, injector: FailureInjector) -> None:
        """Register every event with the injector's scheduler."""
        for event in self.events:
            if event.kind == "crash":
                injector.crash_at(event.time, event.site)
            elif event.kind == "restart":
                injector.restart_at(event.time, event.site)
            elif event.kind == "partition":
                injector.partition_at(event.time,
                                      [list(g) for g in event.groups])
            elif event.kind == "crash_restart":
                injector.crash_at(event.time, event.site)
                injector.restart_at(event.restart_time, event.site)
            elif event.kind == "heal":
                injector.heal_at(event.time)
            elif event.kind == "duplicate":
                injector.set_duplication_at(event.time, event.probability)
            else:
                injector.set_loss_at(event.time, event.probability)

    def to_json(self) -> Dict[str, Any]:
        return {"label": self.label,
                "events": [e.to_json() for e in self.events]}

    @staticmethod
    def from_json(data: Dict[str, Any]) -> "FaultSchedule":
        return FaultSchedule(
            events=tuple(FaultEvent.from_json(e) for e in data["events"]),
            label=data.get("label", ""))


# ------------------------------------------------------------ generation

# The 3-site write transaction's protocol activity spans roughly
# t=60..220 ms (operations, prepares, votes, commit, notices); faults
# drawn from this window land inside the commit protocol's crash
# windows rather than before or after anything interesting happens.
_FAULT_WINDOW = (60.0, 320.0)
_REPAIR_GAP = (800.0, 4_000.0)


def random_schedule(sites: Sequence[str], seed: int,
                    label: str = "") -> FaultSchedule:
    """Draw one seeded-random fault schedule over ``sites``.

    1-4 fault events inside the protocol window, then (usually) a
    repair tail — restart every crashed site, heal, switch loss off —
    so that most schedules end in a state where the liveness oracles
    apply.  About one in five schedules is left unrepaired: safety
    oracles must hold there too.
    """
    rng = random.Random(seed)
    sites = list(sites)
    events: List[FaultEvent] = []
    down: List[str] = []
    partitioned = False
    lossy = False
    t = _FAULT_WINDOW[0]
    for _ in range(rng.randint(1, 4)):
        t += rng.uniform(5.0, (_FAULT_WINDOW[1] - _FAULT_WINDOW[0]) / 2)
        t = round(t, 3)
        kind = rng.choice(KINDS)
        if kind == "crash":
            site = rng.choice(sites)
            events.append(FaultEvent(t, "crash", site=site))
            if site not in down:
                down.append(site)
        elif kind == "restart":
            site = rng.choice(down) if down else rng.choice(sites)
            events.append(FaultEvent(t, "restart", site=site))
            if site in down:
                down.remove(site)
        elif kind == "partition":
            cut = rng.randint(1, len(sites) - 1)
            members = rng.sample(sites, cut)
            rest = [s for s in sites if s not in members]
            events.append(FaultEvent(t, "partition",
                                     groups=(tuple(sorted(members)),
                                             tuple(sorted(rest)))))
            partitioned = True
        elif kind == "heal":
            events.append(FaultEvent(t, "heal"))
            partitioned = False
        else:
            p = round(rng.uniform(0.05, 0.35), 3)
            events.append(FaultEvent(t, "loss", probability=p))
            lossy = True
    if rng.random() < 0.8:
        # Repair tail: bring the world back so resolution must happen.
        t = max(t, _FAULT_WINDOW[1])
        if partitioned:
            t = round(t + rng.uniform(*_REPAIR_GAP), 3)
            events.append(FaultEvent(t, "heal"))
        if lossy:
            t = round(t + rng.uniform(*_REPAIR_GAP), 3)
            events.append(FaultEvent(t, "loss", probability=0.0))
        for site in down:
            t = round(t + rng.uniform(*_REPAIR_GAP), 3)
            events.append(FaultEvent(t, "restart", site=site))
    return FaultSchedule(events=tuple(events), label=label)


def random_schedules(sites: Sequence[str], seed: int,
                     count: int) -> List[FaultSchedule]:
    """``count`` independent schedules; schedule ``i`` depends only on
    ``(sites, seed, i)``, so sets are stable as ``count`` grows."""
    return [random_schedule(sites, seed * 1_000_003 + i,
                            label=f"random/{seed}/{i}")
            for i in range(count)]


def leader_failover_schedules(
        sites: Sequence[str],
        coordinator: Optional[str] = None) -> List[FaultSchedule]:
    """The leader-failover sweep: kill the coordinator inside the commit
    window and let a backup finish the transaction.

    For each crash instant three schedules are produced: the leader dies
    for good (the survivors must elect and complete on their own), the
    leader crash-restarts (its recovery and the backup's election race),
    and the crash-restart under message duplication (every handler must
    be duplicate-safe while the failover runs).
    """
    sites = list(sites)
    leader = coordinator if coordinator is not None else sites[0]
    out: List[FaultSchedule] = []
    for t in (100.0, 130.0, 160.0, 200.0, 260.0):   # the commit window
        out.append(FaultSchedule(
            events=(FaultEvent(t, "crash", site=leader),),
            label=f"failover/dead@{t:g}"))
        out.append(FaultSchedule(
            events=(FaultEvent(t, "crash_restart", site=leader,
                               delay=DEFAULT_RESTART_DELAY_MS),),
            label=f"failover/restart@{t:g}"))
        out.append(FaultSchedule(
            events=(FaultEvent(60.0, "duplicate", probability=0.25),
                    FaultEvent(t, "crash_restart", site=leader,
                               delay=DEFAULT_RESTART_DELAY_MS)),
            label=f"failover/dup+restart@{t:g}"))
    return out
