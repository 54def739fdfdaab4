"""Shrink a failing fault schedule to its minimal core, then save it.

Greedy delta debugging (ddmin's one-at-a-time pass run to fixpoint):
repeatedly try dropping each fault event and keep any drop after which
the scenario still trips *some oracle that the original run tripped* —
matching on oracle names, not messages, so a shrink that turns "three
sites undecided" into "one site undecided" still counts as the same
failure.  Schedules here are a handful of events, so the quadratic pass
costs a few dozen re-runs at ~30 ms of wall clock each.

The minimal schedule is written as a *repro*: one canonical-JSON file
embedding the spec, the schedule, the violations observed, and the run
signature.  ``python -m repro.chaos --replay <file>`` re-executes it and
verifies the signature byte-for-byte — a repro is a deterministic test
case, not a log.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Set, Tuple

from repro.chaos.scenario import RunResult, ScenarioSpec, run_schedule
from repro.chaos.schedule import FaultSchedule
from repro.chaos.oracles import Violation

REPRO_FORMAT = "repro.chaos/1"


def _oracles_of(result: RunResult) -> Set[str]:
    return {v.oracle for v in result.violations}


# Re-execution budget of one shrink.
_MAX_RUNS = 200


def shrink_schedule(spec: ScenarioSpec,
                    result: RunResult) -> Tuple[FaultSchedule, RunResult]:
    """Minimise ``result.schedule`` while the same oracle(s) still fire.

    Returns the smallest schedule found and the run that certifies it.
    On exhausting the ``_MAX_RUNS`` budget the best schedule so far is
    returned (still a valid failing repro, possibly not minimal).
    """
    target = _oracles_of(result)
    if not target:
        raise ValueError("shrink_schedule needs a failing RunResult")
    best_schedule = result.schedule
    best_result = result
    runs = 0
    shrunk = True
    while shrunk and runs < _MAX_RUNS:
        shrunk = False
        for index in range(len(best_schedule.events)):
            candidate = FaultSchedule(
                events=best_schedule.events[:index]
                + best_schedule.events[index + 1:],
                label=f"{best_schedule.label}/shrunk")
            attempt = run_schedule(spec, candidate)
            runs += 1
            if _oracles_of(attempt) & target:
                best_schedule, best_result = candidate, attempt
                shrunk = True
                break   # restart the pass over the smaller schedule
            if runs >= _MAX_RUNS:
                break
    return best_schedule, best_result


# ---------------------------------------------------------------- repros


def repro_json(result: RunResult) -> Dict[str, Any]:
    return {
        "format": REPRO_FORMAT,
        "spec": result.spec.to_json(),
        "schedule": result.schedule.to_json(),
        "violations": [v.to_json() for v in result.violations],
        "signature": result.signature,
    }


def write_repro(path: str, result: RunResult) -> None:
    """Serialise a failing run as a replayable canonical-JSON repro."""
    blob = json.dumps(repro_json(result), sort_keys=True, indent=2)
    with open(path, "w") as fh:
        fh.write(blob + "\n")


def load_repro(path: str) -> Tuple[ScenarioSpec, FaultSchedule,
                                   Tuple[Violation, ...], str]:
    """Parse a repro file back into runnable pieces."""
    with open(path) as fh:
        data = json.load(fh)
    if data.get("format") != REPRO_FORMAT:
        raise ValueError(f"{path}: not a {REPRO_FORMAT} repro file")
    spec = ScenarioSpec.from_json(data["spec"])
    schedule = FaultSchedule.from_json(data["schedule"])
    violations = tuple(Violation.from_json(v) for v in data["violations"])
    return spec, schedule, violations, data["signature"]


def replay(path: str) -> Tuple[bool, RunResult, str]:
    """Re-execute a repro; report whether it reproduced byte-for-byte.

    Returns ``(reproduced, fresh_result, expected_signature)`` where
    ``reproduced`` requires both an identical run signature and a
    non-empty intersection with the recorded oracles (an empty recorded
    set — a hand-written "expect clean" repro — only needs the
    signature).
    """
    spec, schedule, violations, expected = load_repro(path)
    fresh = run_schedule(spec, schedule)
    same_signature = fresh.signature == expected
    recorded = {v.oracle for v in violations}
    same_failure = (not recorded) or bool(_oracles_of(fresh) & recorded)
    return same_signature and same_failure, fresh, expected
