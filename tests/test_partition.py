"""Unit tests for the union-split-find partition structure."""

import pytest

from repro.abstraction import PartitionError, UnionSplitFind

from refinement_reference import split_by_key


def test_initial_partition_is_single_group():
    p = UnionSplitFind(["a", "b", "c"])
    assert p.num_groups() == 1
    assert p.find("a") == p.find("c")
    assert set(p.partitions()[0]) == {"a", "b", "c"}


def test_empty_node_set_rejected():
    with pytest.raises(PartitionError):
        UnionSplitFind([])


def test_duplicate_nodes_rejected():
    with pytest.raises(PartitionError):
        UnionSplitFind(["a", "a"])


def test_split_moves_subset_to_new_group():
    p = UnionSplitFind(["a", "b", "c", "d"])
    new_group = p.split({"a", "b"})
    assert p.num_groups() == 2
    assert p.find("a") == p.find("b")
    assert p.find("a") != p.find("c")
    assert p.members(new_group) == frozenset({"a", "b"})


def test_split_whole_group_is_noop():
    p = UnionSplitFind(["a", "b"])
    group = p.find("a")
    assert p.split({"a", "b"}) == group
    assert p.num_groups() == 1


def test_split_across_groups_rejected():
    p = UnionSplitFind(["a", "b", "c"])
    p.split({"a"})
    with pytest.raises(PartitionError):
        p.split({"a", "b"})


def test_split_empty_rejected():
    p = UnionSplitFind(["a"])
    with pytest.raises(PartitionError):
        p.split(set())


def test_find_unknown_node_rejected():
    p = UnionSplitFind(["a"])
    with pytest.raises(PartitionError):
        p.find("zzz")
    with pytest.raises(PartitionError):
        p.members(999)


def test_copy_is_independent_and_keeps_group_ids():
    p = UnionSplitFind(["a", "b", "c", "d"])
    p.split({"a"})
    clone = p.copy()
    assert clone.group_of == p.group_of
    moved = clone.split({"b", "c"})
    assert clone.num_groups() == 3 and p.num_groups() == 2
    assert p.find("b") == p.find("d") and clone.find("b") != clone.find("d")
    # Fresh ids continue from the original's counter on both sides.
    assert p.split({"d"}) == moved


def test_split_by_key_groups_members():
    p = UnionSplitFind(["a", "b", "c", "d"])
    group = p.find("a")
    result = split_by_key(p, group, {"a": 1, "b": 1, "c": 2, "d": 3})
    assert len(result) == 3
    assert p.find("a") == p.find("b")
    assert p.find("a") != p.find("c")
    assert p.find("c") != p.find("d")


def test_split_by_key_single_key_is_noop():
    p = UnionSplitFind(["a", "b"])
    group = p.find("a")
    assert split_by_key(p, group, {"a": 1, "b": 1}) == [group]


def test_split_by_key_missing_nodes_get_own_groups():
    p = UnionSplitFind(["a", "b", "c"])
    split_by_key(p, p.find("a"), {"a": 1, "b": 1})
    assert p.find("a") == p.find("b")
    assert p.find("a") != p.find("c")


def test_canonical_names_are_deterministic():
    p = UnionSplitFind(["b", "a", "c"])
    p.split({"c"})
    names1 = p.canonical_names()
    names2 = p.canonical_names()
    assert names1 == names2
    assert names1["a"] == names1["b"]
    assert names1["a"] != names1["c"]


def test_dunder_helpers():
    p = UnionSplitFind(["a", "b"])
    assert len(p) == 1
    assert "a" in p
    assert "zzz" not in p
    assert set(p.nodes()) == {"a", "b"}
    assert p.group_of["a"] == p.find("a")


def test_partitions_cover_every_node_once_after_splits():
    p = UnionSplitFind(list("abcdef"))
    p.split({"a", "b", "c"})
    p.split({"a"})
    p.split({"e"})
    parts = p.partitions()
    assert sorted(len(part) for part in parts) == [1, 1, 2, 2]
    assert set().union(*parts) == set("abcdef")
    assert sum(len(part) for part in parts) == 6
    for group in p.groups():
        assert all(p.find(node) == group for node in p.members(group))


def test_canonical_names_number_groups_by_smallest_member():
    p = UnionSplitFind(["c", "a", "d", "b"])
    p.split({"c", "d"})
    p.split({"a"})
    assert p.canonical_names("g") == {"a": "g0", "b": "g1", "c": "g2", "d": "g2"}
