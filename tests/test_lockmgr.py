"""Unit + property tests for the Moss-model lock manager."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tid import TID
from repro.servers.lockmgr import LockManager, LockMode, WouldBlock


T1 = TID("T1@a")
T2 = TID("T2@a")
C1 = T1.child(1)
C2 = T1.child(2)


def test_read_locks_share():
    lm = LockManager()
    assert lm.acquire("x", T1, LockMode.READ)
    assert lm.acquire("x", T2, LockMode.READ)


def test_write_excludes_unrelated():
    lm = LockManager()
    assert lm.acquire("x", T1, LockMode.WRITE)
    granted = []
    assert not lm.acquire("x", T2, LockMode.WRITE,
                          on_grant=lambda: granted.append(True))
    assert lm.waiting_on("x") == [T2]


def test_would_block_without_callback():
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    with pytest.raises(WouldBlock):
        lm.acquire("x", T2, LockMode.WRITE)


def test_read_blocks_on_unrelated_write():
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    assert not lm.acquire("x", T2, LockMode.READ, on_grant=lambda: None)


def test_child_may_acquire_parents_lock():
    """Moss rule: holders that are ancestors do not conflict."""
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    assert lm.acquire("x", C1, LockMode.WRITE)
    assert lm.acquire("x", C1, LockMode.READ)


def test_sibling_conflicts_with_child_holder():
    lm = LockManager()
    lm.acquire("x", C1, LockMode.WRITE)
    assert not lm.acquire("x", C2, LockMode.WRITE, on_grant=lambda: None)


def test_reacquire_same_or_weaker_mode_succeeds():
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    assert lm.acquire("x", T1, LockMode.WRITE)
    assert lm.acquire("x", T1, LockMode.READ)


def test_commit_child_inherits_to_parent_as_retainer():
    lm = LockManager()
    lm.acquire("x", C1, LockMode.WRITE)
    lm.commit_child(C1)
    assert lm.holders_of("x") == {}
    assert lm.retainers_of("x") == {T1: LockMode.WRITE}
    # A sibling still conflicts with the retained lock...
    assert not lm.acquire("x", TID("T2@a"), LockMode.WRITE,
                          on_grant=lambda: None)
    # ...but another child of the retainer does not.
    assert lm.acquire("x", C2, LockMode.WRITE)


def test_commit_child_on_top_level_rejected():
    lm = LockManager()
    with pytest.raises(ValueError):
        lm.commit_child(T1)


def test_abort_subtree_releases_and_wakes_waiters():
    lm = LockManager()
    lm.acquire("x", C1, LockMode.WRITE)
    woken = []
    lm.acquire("x", T2, LockMode.WRITE, on_grant=lambda: woken.append(True))
    lm.abort_subtree(C1)
    assert woken == [True]
    assert lm.holds("x", T2, LockMode.WRITE)


def test_abort_subtree_covers_descendants():
    lm = LockManager()
    grandchild = C1.child(1)
    lm.acquire("x", grandchild, LockMode.WRITE)
    lm.abort_subtree(C1)
    assert lm.holders_of("x") == {}


def test_abort_subtree_drops_queued_requests_of_subtree():
    lm = LockManager()
    lm.acquire("x", T2, LockMode.WRITE)
    lm.acquire("x", C1, LockMode.WRITE, on_grant=lambda: None)
    lm.abort_subtree(T1)
    assert lm.waiting_on("x") == []


def test_release_family_releases_holders_and_retainers():
    lm = LockManager()
    lm.acquire("x", C1, LockMode.WRITE)
    lm.commit_child(C1)       # T1 retains
    lm.acquire("y", T1, LockMode.READ)
    woken = []
    lm.acquire("x", T2, LockMode.WRITE, on_grant=lambda: woken.append(True))
    lm.release_family("T1@a")
    assert woken == [True]
    assert lm.retainers_of("x") == {}
    assert lm.locked_objects() == ["x"]  # only T2's new lock remains


def test_fifo_wakeup_order():
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    order = []
    lm.acquire("x", TID("T2@a"), LockMode.WRITE,
               on_grant=lambda: order.append("T2"))
    lm.acquire("x", TID("T3@a"), LockMode.WRITE,
               on_grant=lambda: order.append("T3"))
    lm.release_family("T1@a")
    assert order == ["T2"]
    lm.release_family("T2@a")
    assert order == ["T2", "T3"]


def test_queued_request_not_jumped_by_compatible_newcomer():
    """A newcomer may not overtake a queued waiter (no starvation)."""
    lm = LockManager()
    lm.acquire("x", T1, LockMode.READ)
    lm.acquire("x", T2, LockMode.WRITE, on_grant=lambda: None)
    # A read would be compatible with the current holder, but the queued
    # writer must not be starved.
    assert not lm.acquire("x", TID("T3@a"), LockMode.READ,
                          on_grant=lambda: None)


def test_holds_reports_mode():
    lm = LockManager()
    lm.acquire("x", T1, LockMode.WRITE)
    assert lm.holds("x", T1)
    assert lm.holds("x", T1, LockMode.READ)   # write implies read
    assert not lm.holds("x", T2)


@settings(max_examples=60)
@given(st.lists(st.tuples(st.sampled_from(["acq_r", "acq_w", "abort",
                                           "release_family"]),
                          st.integers(min_value=0, max_value=3),
                          st.integers(min_value=0, max_value=2)),
                max_size=30))
def test_lock_table_invariants_under_random_ops(ops):
    """Invariant: conflicting holders are always hierarchically related
    (every pair of writers on one object is ancestor-related)."""
    lm = LockManager()
    tids = [TID("T1@a"), TID("T1@a", (1,)), TID("T1@a", (1, 1)),
            TID("T2@a")]
    objs = ["x", "y", "z"]
    for op, tid_i, obj_i in ops:
        tid, obj = tids[tid_i], objs[obj_i]
        if op == "acq_r":
            lm.acquire(obj, tid, LockMode.READ, on_grant=lambda: None)
        elif op == "acq_w":
            lm.acquire(obj, tid, LockMode.WRITE, on_grant=lambda: None)
        elif op == "abort":
            lm.abort_subtree(tid)
        else:
            lm.release_family(tid.family)
        for o in objs:
            holders = lm.holders_of(o)
            writers = [t for t, m in holders.items()
                       if m is LockMode.WRITE]
            for a in writers:
                for b in holders:
                    if a == b:
                        continue
                    assert (a.is_ancestor_of(b) or b.is_ancestor_of(a)), \
                        f"unrelated conflict on {o}: {a} vs {b}"


def test_unknown_objects_are_free_and_unheld():
    lm = LockManager()
    assert lm.can_grant("x", T1, LockMode.WRITE)
    assert not lm.holds("x", T1)
    assert not lm.cancel_wait("x", T1)


def test_holder_re_request_is_granted_while_its_child_reads():
    """A parent re-requesting the write lock it holds while its child
    reads is granted at once (the child is not its ancestor, so the
    request is not compatible, yet the parent already holds it)."""
    lm = LockManager()
    assert lm.acquire("x", T1, LockMode.WRITE)
    assert lm.acquire("x", C1, LockMode.READ)
    grants = lm.grants
    assert lm.acquire("x", T1, LockMode.WRITE)
    assert lm.grants == grants + 1 and lm.holds("x", T1, LockMode.WRITE)


def test_child_write_upgrades_a_parent_read_retention():
    lm = LockManager()
    assert lm.acquire("x", C1, LockMode.READ)
    lm.commit_child(C1)                    # T1 retains READ
    assert lm.acquire("x", C2, LockMode.WRITE)
    lm.commit_child(C2)                    # ... and now WRITE
    assert not lm.can_grant("x", T2, LockMode.READ)
