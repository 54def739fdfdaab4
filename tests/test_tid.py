"""Unit + property tests for nested transaction identifiers."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.tid import TID, TidGenerator


def test_top_level_properties():
    tid = TID("T1@a")
    assert tid.is_top_level
    assert tid.parent is None
    assert tid.top_level == tid


def test_child_and_parent():
    tid = TID("T1@a").child(1).child(2)
    assert str(tid) == "T1@a:1.2"
    assert str(tid.parent) == "T1@a:1"
    assert tid.top_level == TID("T1@a")


def test_child_indices_start_at_one():
    with pytest.raises(ValueError):
        TID("T1@a").child(0)


def test_ancestor_descendant_relations():
    root = TID("T1@a")
    child = root.child(1)
    grandchild = child.child(1)
    sibling = root.child(2)
    assert root.is_ancestor_of(grandchild)
    assert child.is_ancestor_of(grandchild)
    assert not grandchild.is_ancestor_of(root)
    assert not child.is_ancestor_of(sibling)
    assert not child.is_ancestor_of(child)  # proper ancestry only


def test_cross_family_never_related_hierarchically():
    a = TID("T1@a").child(1)
    b = TID("T2@a").child(1)
    assert not a.is_ancestor_of(b)
    assert not TID("T1@a").is_ancestor_of(b)


def test_parse_roundtrip_examples():
    for text in ("T1@a", "T7@site0:2.1", "T3@b:1.1.1"):
        assert str(TID.parse(text)) == text


def test_parse_rejects_malformed():
    with pytest.raises(ValueError):
        TID.parse("T1@a:x.y")
    with pytest.raises(ValueError):
        TID.parse("T1@a:0")


def test_tids_are_hashable_and_ordered():
    a, b = TID("T1@a"), TID("T1@a", (1,))
    assert len({a, b, TID("T1@a")}) == 2
    assert a < b


@given(st.lists(st.integers(min_value=1, max_value=9), max_size=5))
def test_parse_str_roundtrip_property(path):
    tid = TID("T5@site1", tuple(path))
    assert TID.parse(str(tid)) == tid


@given(st.lists(st.integers(min_value=1, max_value=4), min_size=1,
                max_size=4),
       st.lists(st.integers(min_value=1, max_value=4), max_size=4))
def test_ancestry_is_prefix_property(prefix, suffix):
    ancestor = TID("T1@a", tuple(prefix))
    descendant = TID("T1@a", tuple(prefix + suffix))
    assert ancestor.is_ancestor_of(descendant) == (len(suffix) > 0)


# ----------------------------------------------------------- generator


def test_generator_mints_unique_families_per_site():
    gen_a = TidGenerator("a")
    gen_b = TidGenerator("b")
    t1, t2 = gen_a.new_top_level(), gen_a.new_top_level()
    assert t1 != t2
    assert gen_b.new_top_level() != t1


def test_generator_children_sequential_per_parent():
    gen = TidGenerator("a")
    root = gen.new_top_level()
    c1 = gen.new_child(root)
    c2 = gen.new_child(root)
    grand = gen.new_child(c1)
    assert (str(c1), str(c2)) == (f"{root}:1", f"{root}:2")
    assert str(grand) == f"{root}:1.1"


def test_generator_forget_family_resets_child_counter():
    gen = TidGenerator("a")
    root = gen.new_top_level()
    gen.new_child(root)
    gen.forget_family(root.family)
    assert str(gen.new_child(root)) == f"{root}:1"
