"""Deliberately seeded protocol bugs: proof the oracles have teeth.

A chaos harness that never fails proves nothing — maybe the system is
correct, maybe the oracles are blind.  Each entry in :data:`BUGS`
installs a subtle, realistic protocol mutation for the duration of one
run; the CI suite asserts that chaos exploration *with* the bug finds a
violation (and shrinks it to a tiny repro), while the stock system stays
clean.

Bugs are applied by monkey-patching a protocol method inside the
:func:`seeded_bug` context manager and restoring the original on exit,
so a bug can never leak between runs.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Callable, Dict

from repro.core.effects import SendDatagram, StartTimer, WriteLog
from repro.core.outcomes import Vote
from repro.core.messages import VoteResponse
from repro.core import twophase
from repro.log.records import prepare_record

# name -> apply() -> restore()
BUGS: Dict[str, Callable[[], Callable[[], None]]] = {}


def bug(name: str):
    """Register an installer; it returns the undo callable."""
    def register(fn):
        BUGS[name] = fn
        return fn
    return register


@contextmanager
def seeded_bug(name):
    """Install bug ``name`` (or do nothing for ``None``) for one run."""
    if name is None:
        yield
        return
    try:
        install = BUGS[name]
    except KeyError:
        raise KeyError(f"unknown seeded bug {name!r} "
                       f"(expected one of {sorted(BUGS)})") from None
    restore = install()
    try:
        yield
    finally:
        restore()


@bug("vote_before_prepare_durable")
def _vote_before_prepare_durable() -> Callable[[], None]:
    """Subordinate acks (votes YES) before its prepare record is durable.

    The correct sequence forces the prepare record and only sends the
    YES vote from ``on_log_forced`` — the vote is a promise backed by
    stable storage.  The buggy version sends the vote immediately and
    writes the record lazily: if the site crashes in the window between
    the vote and the lazy flush, it restarts with no trace of the
    transaction while the coordinator may already have committed on the
    strength of that vote.  The restarted site ignores commit notices
    (nothing to resolve) and its updates are gone — a durability and
    resolution violation the oracles must catch.
    """
    original = twophase.TwoPhaseSubordinate.on_local_prepared

    def buggy(self, vote):
        if self.state is not twophase.SubordinateState.PREPARING \
                or vote is not Vote.YES:
            return original(self, vote)
        self.vote = vote
        self.state = twophase.SubordinateState.PREPARED
        record = prepare_record(str(self.tid), self.site, self.coordinator)
        return [
            WriteLog(record),  # lazy: durable long after the vote is out
            SendDatagram(self.coordinator,
                         VoteResponse(tid=self.tid, sender=self.site,
                                      vote=Vote.YES)),
            StartTimer(twophase.OUTCOME_TIMER),
        ]

    twophase.TwoPhaseSubordinate.on_local_prepared = buggy

    def restore() -> None:
        twophase.TwoPhaseSubordinate.on_local_prepared = original

    return restore
