"""Unit + property tests for quorum arithmetic."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.quorum import QuorumSpec


def test_majority_spec_intersects():
    for n in range(1, 12):
        spec = QuorumSpec.majority(n)
        assert spec.commit_quorum + spec.abort_quorum == n + 1


def test_majority_three_sites():
    spec = QuorumSpec.majority(3)
    assert spec.commit_quorum == 2
    assert spec.abort_quorum == 2


def test_commit_weighted():
    spec = QuorumSpec.commit_weighted(4)
    assert spec.commit_quorum == 1
    assert spec.abort_quorum == 4


def test_non_intersecting_quorums_rejected():
    with pytest.raises(ValueError, match="intersect"):
        QuorumSpec(n_sites=4, commit_quorum=2, abort_quorum=2)


def test_out_of_range_rejected():
    with pytest.raises(ValueError):
        QuorumSpec(n_sites=3, commit_quorum=4, abort_quorum=3)
    with pytest.raises(ValueError):
        QuorumSpec(n_sites=0, commit_quorum=1, abort_quorum=1)


def test_can_commit_and_abort_thresholds():
    spec = QuorumSpec.majority(5)  # Qc=3, Qa=3
    assert not spec.can_commit(2)
    assert spec.can_commit(3)
    assert not spec.can_abort(2)
    assert spec.can_abort(3)


def test_dict_roundtrip():
    spec = QuorumSpec.majority(4)
    assert QuorumSpec.from_dict(spec.to_dict()) == spec


# --------------------------------------------------------- paxos commit


def test_paxos_even_acceptor_set_rejected():
    """N = 2F+1 is a config-time invariant: an even acceptor set has no
    F and its 'majorities' waste a site, so it is rejected outright."""
    for n in (2, 4, 6, 10):
        with pytest.raises(ValueError, match="odd"):
            QuorumSpec.paxos(n)


def test_paxos_f0_is_a_single_acceptor():
    spec = QuorumSpec.paxos(1)
    assert spec.commit_quorum == 1 and spec.abort_quorum == 1


def test_paxos_majority_sizes():
    for f in range(6):
        spec = QuorumSpec.paxos(2 * f + 1)
        assert spec.commit_quorum == f + 1
        assert spec.abort_quorum == f + 1


def test_paxos_quorum_intersection_brute_force():
    """Every pair of phase-1/phase-2 quorums shares an acceptor — the
    property that lets a later candidate adopt a ballot-0 COMMITTED
    vector instead of inventing an abort."""
    from itertools import combinations
    spec = QuorumSpec.paxos(5)
    acceptors = ["a", "b", "c", "d", "e"]
    for q1 in combinations(acceptors, spec.commit_quorum):
        for q2 in combinations(acceptors, spec.commit_quorum):
            assert set(q1) & set(q2)


@given(st.integers(min_value=0, max_value=25))
def test_paxos_quorums_always_intersect_property(f):
    spec = QuorumSpec.paxos(2 * f + 1)
    # Two disjoint quorums would need 2(F+1) > 2F+1 acceptors.
    assert 2 * spec.commit_quorum > spec.n_sites


@given(st.integers(min_value=1, max_value=50))
def test_majority_always_valid_property(n):
    spec = QuorumSpec.majority(n)
    assert spec.commit_quorum + spec.abort_quorum > n


@given(st.integers(min_value=1, max_value=30), st.data())
def test_no_split_brain_property(n, data):
    """For any valid spec and any disjoint membership assignment, commit
    and abort quorums can never both be satisfied — the safety core of
    the non-blocking protocol."""
    qc = data.draw(st.integers(min_value=1, max_value=n))
    qa_min = n - qc + 1
    if qa_min > n:
        qa_min = n
    qa = data.draw(st.integers(min_value=qa_min, max_value=n))
    spec = QuorumSpec(n_sites=n, commit_quorum=qc, abort_quorum=qa)
    # Membership is exclusive per site (paper change 4): partition the
    # sites into replicated / pledged / neither.
    replicated = data.draw(st.integers(min_value=0, max_value=n))
    pledged = data.draw(st.integers(min_value=0, max_value=n - replicated))
    assert not (spec.can_commit(replicated) and spec.can_abort(pledged))
