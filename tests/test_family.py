"""Unit tests for family/transaction descriptors."""

import pytest

from repro.core.family import FamilyTable
from repro.core.outcomes import Outcome
from repro.core.tid import TID


def test_begin_creates_family_and_descriptor():
    table = FamilyTable()
    tid = TID("T1@a")
    desc = table.begin(tid)
    assert desc.tid == tid
    assert desc.active
    assert "T1@a" in table
    assert table.descriptor(tid) is desc


def test_duplicate_begin_rejected():
    table = FamilyTable()
    table.begin(TID("T1@a"))
    with pytest.raises(ValueError):
        table.begin(TID("T1@a"))


def test_nested_begin_links_children():
    table = FamilyTable()
    root = TID("T1@a")
    table.begin(root)
    child = root.child(1)
    table.begin(child)
    assert table.descriptor(root).children == [child]


def test_note_server_joined_reports_first_join():
    table = FamilyTable()
    desc = table.begin(TID("T1@a"))
    assert desc.note_server_joined("s1")
    assert not desc.note_server_joined("s1")
    assert desc.joined_servers == {"s1"}


def test_family_aggregates_sites_and_servers():
    table = FamilyTable()
    root = TID("T1@a")
    table.begin(root)
    child = root.child(1)
    child_desc = table.begin(child)
    table.descriptor(root).note_sites(["b"])
    child_desc.note_sites(["c"])
    child_desc.note_server_joined("srv")
    fam = table.family_of(root)
    assert fam.all_sites() == {"b", "c"}
    assert fam.all_servers() == {"srv"}


def test_forget_family_removes_all_members():
    table = FamilyTable()
    root = TID("T1@a")
    table.begin(root)
    table.begin(root.child(1))
    table.forget_family("T1@a")
    assert table.descriptor(root) is None


def test_outcome_marks_inactive():
    table = FamilyTable()
    desc = table.begin(TID("T1@a"))
    desc.outcome = Outcome.COMMITTED
    assert not desc.active


def test_active_families_sorted():
    table = FamilyTable()
    table.begin(TID("T2@a"))
    table.begin(TID("T1@a"))
    assert table.active_families() == ["T1@a", "T2@a"]
