"""Unit tests for the static-analysis formulas (paper Table 3, §4.3)."""

import pytest

from repro.analysis.primitives import rpc_breakdown_rows, table1_rows, table2_rows
from repro.analysis.static_analysis import (
    completion,
    critical,
    local_completion,
    path_counts,
)


def test_local_update_matches_paper_static():
    """Paper Table 3: 24.5 ms static for the local update."""
    assert local_completion("write").total == pytest.approx(24.5)


def test_local_read_matches_paper_static():
    """Paper: 9.5 ms static for the local read."""
    assert local_completion("read").total == pytest.approx(9.5)


def test_one_sub_update_near_paper_static():
    """Paper accounts 99.5 of 110 ms; our formula lands in that band
    (the exact split of minor terms differs — see EXPERIMENTS.md)."""
    total = completion("two_phase", "write", 1).total
    assert 85.0 <= total <= 105.0


def test_update_critical_longer_than_completion():
    """'In Camelot, the critical path is always longer than the
    completion path.'"""
    for n in (1, 2, 3):
        assert (critical("two_phase", n).total
                > completion("two_phase", "write", n).total)
        assert (critical("non_blocking", n).total
                > completion("non_blocking", "write", n).total)


def test_force_counts_on_paths():
    """2 forces for 2PC, 4 for non-blocking (paper §4.3)."""
    two = critical("two_phase", 1)
    assert two.count_of("log force (subordinate prepare)") == 1
    forces_2pc = sum(t.count for t in two.terms if "log force" in t.name)
    nb = critical("non_blocking", 1)
    forces_nb = sum(t.count for t in nb.terms if "log force" in t.name)
    assert (forces_2pc, forces_nb) == (2, 4)


def test_datagram_counts_on_paths():
    """3 datagrams for 2PC, 5 for non-blocking."""
    two = critical("two_phase", 1)
    dgs_2pc = sum(t.count for t in two.terms if "datagram" in t.name)
    nb = critical("non_blocking", 1)
    dgs_nb = sum(t.count for t in nb.terms if "datagram" in t.name)
    assert (dgs_2pc, dgs_nb) == (3, 5)


def test_path_counts_table():
    assert path_counts("two_phase", "write", 1) == {"log_forces": 2,
                                                    "datagrams": 3}
    assert path_counts("non_blocking", "write", 1) == {"log_forces": 4,
                                                       "datagrams": 5}
    # Paxos Commit at F=0 degenerates to optimized 2PC exactly.
    assert path_counts("paxos_commit", "write", 1) == \
        path_counts("two_phase", "write", 1)
    assert path_counts("paxos_commit", "read", 1) == \
        path_counts("two_phase", "read", 1)
    assert path_counts("two_phase", "read", 1) == {"log_forces": 0,
                                                   "datagrams": 2}
    assert path_counts("non_blocking", "read", 0) == {"log_forces": 0,
                                                      "datagrams": 0}
    with pytest.raises(ValueError):
        path_counts("three_phase", "write", 1)


def test_paxos_f0_static_equals_2pc():
    """Gray & Lamport §4: with F=0, Paxos Commit is essentially 2PC —
    the static completion formula must collapse to the same total."""
    for n in (1, 2, 3):
        assert completion("paxos_commit", "write", n).total == \
            pytest.approx(completion("two_phase", "write", n).total)
    assert completion("paxos_commit", "read", 1).total == \
        pytest.approx(completion("two_phase", "read", 1).total)


def test_paxos_premium_grows_with_faults_tolerated():
    f0 = completion("paxos_commit", "write", 2, faults_tolerated=0).total
    f1 = completion("paxos_commit", "write", 2, faults_tolerated=1).total
    f2 = completion("paxos_commit", "write", 2, faults_tolerated=2).total
    assert f0 < f1 < f2
    # The F=1 premium never exceeds the non-blocking protocol's cost.
    assert f1 <= completion("non_blocking", "write", 2).total
    assert (critical("paxos_commit", 2, faults_tolerated=1).total
            > completion("paxos_commit", "write", 2, faults_tolerated=1).total)


def test_path_counts_unknown_op_raises():
    """An unknown op must not silently fall through to the write table."""
    with pytest.raises(ValueError, match="unknown op"):
        path_counts("two_phase", "banana", 1)
    with pytest.raises(ValueError, match="unknown op"):
        path_counts("non_blocking", "", 1)


def test_path_counts_unknown_protocol_raises_before_op():
    """Protocol is validated even for read ops (no read shortcut past
    the protocol check)."""
    with pytest.raises(ValueError, match="unknown protocol"):
        path_counts("three_phase", "read", 1)


@pytest.mark.parametrize("protocol", ["two_phase", "non_blocking"],
                         ids=["two_phase-twophase_update_critical",
                              "non_blocking-nonblocking_update_critical"])
@pytest.mark.parametrize("n_subs", [1, 2, 3])
def test_formula_primitives_match_path_counts(protocol, n_subs):
    """The Table-3 formulas and the §4.3 count table must agree on the
    number of critical-path primitives *per kind* for both protocols.

    Datagram terms in the formulas are per-subordinate-round (count 1
    regardless of fan-out: parallel sends), so the distinct datagram
    rounds — not the fan-out-weighted count — must match the table.
    """
    path = critical(protocol, n_subs)
    counts = path_counts(protocol, "write", n_subs)
    force_terms = sum(t.count for t in path.terms if "log force" in t.name)
    datagram_rounds = sum(1 for t in path.terms if "datagram" in t.name)
    assert force_terms == counts["log_forces"]
    assert datagram_rounds == counts["datagrams"]


def test_count_of_sums_duplicate_terms():
    path = critical("two_phase", 2)
    # One prepare datagram round regardless of fan-out...
    assert path.count_of("datagram (prepare)") == 1
    # ...and zero occurrences of an unknown primitive.
    assert path.count_of("no-such-primitive") == 0
    # count_of sums across repeated terms of the same name.
    from repro.analysis.static_analysis import PathTerm, StaticPath
    dup = StaticPath("dup", [PathTerm("x", 2, 1.0), PathTerm("x", 3, 1.0)])
    assert dup.count_of("x") == 5


def test_rows_formatting_details():
    """rows() renders one aligned line per term plus a TOTAL line whose
    value equals the path total."""
    path = completion("two_phase", "write", 1)
    rows = path.rows()
    assert len(rows) == len(path.terms) + 1
    for term, row in zip(path.terms, rows):
        assert row.startswith(term.name)
        assert f"x{term.count:<4g}" in row
        assert f"{term.total:7.1f} ms" in row
    total_row = rows[-1]
    assert total_row.startswith("TOTAL " + path.label)
    assert f"{path.total:7.1f} ms" in total_row


def test_nb_ratio_roughly_two_to_one():
    """'The critical path of the non-blocking protocol is about twice
    the length of that of two-phase commit' — on the protocol-only
    portion (excluding begin/ops)."""
    def protocol_only(path, n):
        ops = [t.total for t in path.terms
               if "operation" in t.name or "begin" in t.name]
        return path.total - sum(ops)

    two = protocol_only(critical("two_phase", 1), 1)
    nb = protocol_only(critical("non_blocking", 1), 1)
    assert 1.6 <= nb / two <= 2.2


def test_read_only_nb_equals_2pc_read():
    """'A transaction that is completely read-only has the same critical
    path performance as in two-phase commitment.'"""
    assert (completion("non_blocking", "read", 2).total
            == completion("two_phase", "read", 2).total)


def test_completion_grows_with_subordinates():
    totals = [completion("two_phase", "write", n).total for n in range(4)]
    assert totals == sorted(totals)
    assert totals[3] > totals[0]


def test_rows_render():
    path = local_completion("write")
    rows = path.rows()
    assert any("TOTAL" in r for r in rows)
    assert len(rows) == len(path.terms) + 1


# ------------------------------------------------------- primitives


def test_table1_has_paper_rows():
    rows = {r.name: r for r in table1_rows()}
    assert rows["Procedure call, 32-byte arg"].value == 12.0
    assert rows["Remote IPC, 8-byte in-line"].value == 19.1
    assert rows["Raw disk write, 1 track"].value == 26.8


def test_table2_remote_rpc_row_is_29ms():
    rows = {r.name: r for r in table2_rows()}
    assert rows["Remote RPC"].value == pytest.approx(29.0)
    assert rows["Log force"].value == 15.0


def test_rpc_breakdown_sums_to_28_5():
    rows = rpc_breakdown_rows()
    assert rows[-1].name == "Total Camelot RPC"
    assert rows[-1].value == pytest.approx(28.5)
    assert sum(r.value for r in rows[:-1]) == pytest.approx(28.5)
