"""Unit tests for IPv4 prefixes and the prefix trie (§5.1)."""

import pytest

from repro.config import Prefix, PrefixTrie


class TestPrefix:
    def test_parse_and_str_roundtrip(self):
        p = Prefix.parse("10.1.2.0/24")
        assert str(p) == "10.1.2.0/24"
        assert p.length == 24

    def test_bare_address_is_host_route(self):
        assert Prefix.parse("192.168.1.1").length == 32

    def test_malformed_addresses_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0/24")
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.300/24")
        with pytest.raises(ValueError):
            Prefix.parse("10.0.0.0/40")

    def test_host_bits_are_normalised(self):
        assert Prefix.parse("10.1.2.3/24") == Prefix.parse("10.1.2.0/24")

    def test_containment(self):
        aggregate = Prefix.parse("10.0.0.0/8")
        subnet = Prefix.parse("10.1.2.0/24")
        assert aggregate.contains(subnet)
        assert not subnet.contains(aggregate)
        assert aggregate.contains(aggregate)

    def test_overlap_is_symmetric_containment(self):
        a = Prefix.parse("10.0.0.0/8")
        b = Prefix.parse("10.3.0.0/16")
        c = Prefix.parse("192.168.0.0/16")
        assert a.overlaps(b) and b.overlaps(a)
        assert not a.overlaps(c)

    def test_bits_and_child(self):
        p = Prefix.parse("128.0.0.0/1")
        assert p.bits() == (1,)
        assert p.child(0) == Prefix.parse("128.0.0.0/2")
        assert p.child(1) == Prefix.parse("192.0.0.0/2")

    def test_child_of_host_route_rejected(self):
        with pytest.raises(ValueError):
            Prefix.parse("1.2.3.4/32").child(0)

    def test_mask_covers_the_network_bits(self):
        assert Prefix.parse("0.0.0.0/0").mask() == 0
        assert Prefix.parse("10.1.2.0/24").mask() == 0xFFFFFF00
        assert Prefix.parse("10.1.2.3/32").mask() == 0xFFFFFFFF

    def test_children_split_the_parent_in_two(self):
        parent = Prefix.parse("10.0.0.0/8")
        low, high = parent.child(0), parent.child(1)
        assert parent.contains(low) and parent.contains(high)
        assert not low.overlaps(high)
        assert low.bits() == parent.bits() + (0,)
        assert high.bits() == parent.bits() + (1,)

    def test_ordering_is_total(self):
        prefixes = [Prefix.parse("10.0.0.0/8"), Prefix.parse("9.0.0.0/8")]
        assert sorted(prefixes)[0] == Prefix.parse("9.0.0.0/8")


class TestPrefixTrie:
    def test_insert_and_len(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"))
        trie.insert(Prefix.parse("10.1.0.0/16"))
        trie.insert(Prefix.parse("10.1.0.0/16"))
        assert len(trie) == 2

    def test_equivalence_classes_inherit_origins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), origins=["core"])
        trie.insert(Prefix.parse("10.1.0.0/16"))  # referenced but not originated
        classes = dict(trie.equivalence_classes())
        assert classes[Prefix.parse("10.0.0.0/8")] == {"core"}
        assert classes[Prefix.parse("10.1.0.0/16")] == {"core"}

    def test_marked_prefixes_sorted_by_trie_walk(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("192.168.0.0/16"))
        trie.insert(Prefix.parse("10.0.0.0/8"))
        marked = trie.marked_prefixes()
        assert marked[0] == Prefix.parse("10.0.0.0/8")
        assert len(marked) == 2
        assert list(iter(trie)) == marked

    def test_classes_take_the_origins_of_the_longest_originating_container(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), origins=["core"])
        trie.insert(Prefix.parse("10.1.0.0/16"), origins=["leaf1"])
        trie.insert(Prefix.parse("10.1.5.0/24"))
        trie.insert(Prefix.parse("10.9.0.0/16"))
        classes = dict(trie.equivalence_classes())
        assert classes[Prefix.parse("10.1.5.0/24")] == {"leaf1"}
        assert classes[Prefix.parse("10.9.0.0/16")] == {"core"}
        assert classes[Prefix.parse("10.0.0.0/8")] == {"core"}

    def test_prefix_with_no_originating_container_has_no_origins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), origins=["core"])
        trie.insert(Prefix.parse("11.0.0.0/8"))
        assert dict(trie.equivalence_classes())[Prefix.parse("11.0.0.0/8")] == set()

    def test_reinserting_a_prefix_adds_its_origins(self):
        trie = PrefixTrie()
        trie.insert(Prefix.parse("10.0.0.0/8"), origins=["a"])
        trie.insert(Prefix.parse("10.0.0.0/8"), origins=["b"])
        assert len(trie) == 1
        assert trie.equivalence_classes() == [(Prefix.parse("10.0.0.0/8"), {"a", "b"})]
