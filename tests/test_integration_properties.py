"""Integration tests: properties preserved across compression (§4.4).

For each property the paper lists as preserved by CP-equivalence, these
tests evaluate the property on the concrete network and on the compressed
network Bonsai emits, and assert the answers agree.
"""

import pytest

from repro.abstraction import Bonsai, routable_equivalence_classes
from repro.analysis import (
    check_black_hole,
    check_multipath_consistency,
    check_reachability,
    check_routing_loop,
    check_waypointing,
    compute_forwarding_table,
    path_lengths,
)
from repro.config import Prefix, parse_network

#: A small network with a deliberately broken ACL so that a black hole
#: exists and must survive compression.
BROKEN_NETWORK = """
device t1
  network 10.0.1.0/24
  bgp-neighbor s1 export OUT
  bgp-neighbor s2 export OUT
  route-map OUT 10 permit

device t2
  network 10.0.2.0/24
  bgp-neighbor s1 export OUT
  bgp-neighbor s2 export OUT
  route-map OUT 10 permit

device s1
  bgp-neighbor t1 import IN
  bgp-neighbor t2 import IN
  bgp-neighbor x import IN
  route-map IN 10 permit

device s2
  bgp-neighbor t1 import IN
  bgp-neighbor t2 import IN
  bgp-neighbor x import IN
  route-map IN 10 permit
  acl OOPS deny 10.0.1.0/24 default permit
  interface-acl t1 OOPS

device x
  bgp-neighbor s1 import IN export OUT
  bgp-neighbor s2 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

link t1 s1
link t1 s2
link t2 s1
link t2 s2
link x s1
link x s2
"""


def compress_and_tables(network, ec):
    """Forwarding tables of the concrete network and its compression."""
    bonsai = Bonsai(network)
    result = bonsai.compress(ec, build_network=True)
    concrete_table = compute_forwarding_table(network, ec)
    abstract_network = result.abstract_network
    abstract_ec = next(
        abstract_ec
        for abstract_ec in routable_equivalence_classes(abstract_network)
        if abstract_ec.prefix.overlaps(ec.prefix)
    )
    abstract_table = compute_forwarding_table(abstract_network, abstract_ec)
    return result, concrete_table, abstract_table


class TestFattreePreservation:
    @pytest.fixture
    def setup(self, small_fattree):
        ec = routable_equivalence_classes(small_fattree)[0]
        return compress_and_tables(small_fattree, ec)

    def test_reachability_preserved(self, setup, small_fattree):
        result, concrete, abstract = setup
        for node in small_fattree.graph.nodes:
            mapped = result.abstraction.f(node)
            for copy in result.abstraction.copies_of(mapped):
                assert (
                    check_reachability(concrete, node).holds
                    == check_reachability(abstract, copy).holds
                )

    def test_path_length_preserved(self, setup, small_fattree):
        result, concrete, abstract = setup
        for node in ("edge1_0", "agg2_1", "core0"):
            mapped = result.abstraction.f(node)
            assert path_lengths(concrete, node) == path_lengths(abstract, mapped)

    def test_no_loops_or_blackholes_on_either_side(self, setup):
        _, concrete, abstract = setup
        assert not check_routing_loop(concrete).holds
        assert not check_routing_loop(abstract).holds
        assert not check_black_hole(concrete, "core0").holds
        assert all(
            not check_black_hole(abstract, node).holds for node in abstract.next_hops
        )

    def test_waypointing_preserved(self, setup, small_fattree):
        result, concrete, abstract = setup
        aggs = [n for n in small_fattree.graph.nodes if str(n).startswith("agg")]
        abstract_aggs = {result.abstraction.f(n) for n in aggs}
        assert check_waypointing(concrete, "edge1_0", aggs).holds == check_waypointing(
            abstract, result.abstraction.f("edge1_0"), abstract_aggs
        ).holds


class TestBlackHolePreservation:
    def test_acl_black_hole_survives_compression(self):
        network = parse_network(BROKEN_NETWORK)
        ec = next(
            ec
            for ec in routable_equivalence_classes(network)
            if ec.prefix == Prefix.parse("10.0.1.0/24")
        )
        result, concrete, abstract = compress_and_tables(network, ec)
        concrete_multipath = check_multipath_consistency(concrete, "x")
        abstract_source = result.abstraction.f("x")
        abstract_multipath = check_multipath_consistency(abstract, abstract_source)
        # Traffic from x is delivered via s1 but dropped via s2's ACL: the
        # inconsistency must be visible in the compressed network too.
        assert concrete_multipath.holds == abstract_multipath.holds

    def test_healthy_destination_consistent_on_both(self):
        network = parse_network(BROKEN_NETWORK)
        ec = next(
            ec
            for ec in routable_equivalence_classes(network)
            if ec.prefix == Prefix.parse("10.0.2.0/24")
        )
        result, concrete, abstract = compress_and_tables(network, ec)
        assert check_reachability(concrete, "x").holds
        assert check_reachability(abstract, result.abstraction.f("x")).holds
        assert check_multipath_consistency(concrete, "x").holds
        assert check_multipath_consistency(abstract, result.abstraction.f("x")).holds


class TestCompressionCounts:
    def test_broken_acl_prevents_s_routers_from_merging(self):
        """s1 and s2 differ only in the ACL, so for the affected destination
        they must not share an abstract node, while for the healthy
        destination they may."""
        network = parse_network(BROKEN_NETWORK)
        bonsai = Bonsai(network)
        classes = {str(ec.prefix): ec for ec in bonsai.equivalence_classes()}
        affected = bonsai.compress(classes["10.0.1.0/24"])
        healthy = bonsai.compress(classes["10.0.2.0/24"])
        assert affected.abstraction.f("s1") != affected.abstraction.f("s2")
        assert healthy.abstraction.f("s1") == healthy.abstraction.f("s2")
        assert healthy.abstract_nodes < affected.abstract_nodes
