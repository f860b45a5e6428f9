"""Unit tests for the RIP, OSPF and static protocol models (§3.2)."""

import pytest

from repro.routing import (
    OspfAttribute,
    OspfProtocol,
    RipAttribute,
    RipProtocol,
    StaticProtocol,
    build_ospf_srp,
    build_rip_srp,
    build_static_srp,
)
from repro.srp import solve
from repro.topology import Graph

from topologies import chain_topology


class TestRip:
    def test_preference_is_shorter_hops(self):
        rip = RipProtocol()
        assert rip.prefer(RipAttribute(1), RipAttribute(2))
        assert not rip.prefer(RipAttribute(2), RipAttribute(2))

    def test_transfer_increments(self):
        rip = RipProtocol()
        assert rip.default_transfer(("a", "b"), RipAttribute(3)) == RipAttribute(4)
        assert rip.default_transfer(("a", "b"), None) is None

    def test_chain_solution_is_hop_count(self):
        graph, _ = chain_topology(5)
        srp = build_rip_srp(graph, "r0")
        solution = solve(srp)
        for i in range(5):
            assert solution.labeling[f"r{i}"] == RipAttribute(i)

    def test_hop_limit_creates_unreachable_nodes(self):
        graph, _ = chain_topology(20)
        srp = build_rip_srp(graph, "r0")
        solution = solve(srp)
        assert solution.labeling["r15"] == RipAttribute(15)
        assert solution.labeling["r16"] is None
        assert solution.labeling["r19"] is None

    def test_link_filter_blocks_routes(self):
        graph, _ = chain_topology(3)
        srp = build_rip_srp(graph, "r0", link_filter=lambda e: e != ("r2", "r1"))
        solution = solve(srp)
        assert solution.labeling["r1"] == RipAttribute(1)
        assert solution.labeling["r2"] is None


class TestOspf:
    def test_preference_intra_area_first(self):
        ospf = OspfProtocol()
        intra = OspfAttribute(cost=100, inter_area=False)
        inter = OspfAttribute(cost=1, inter_area=True)
        assert ospf.prefer(intra, inter)
        assert ospf.prefer(OspfAttribute(cost=1), OspfAttribute(cost=2))

    def test_link_costs_accumulate(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("b", "c")
        costs = {("b", "a"): 10, ("c", "b"): 5}
        srp = build_ospf_srp(graph, "a", link_costs=costs)
        solution = solve(srp)
        assert solution.labeling["b"].cost == 10
        assert solution.labeling["c"].cost == 15

    def test_least_cost_path_chosen(self):
        # a - b - d with cost 1+1, and a - c - d with cost 10+1.
        graph = Graph()
        for u, v in [("a", "b"), ("b", "d"), ("a", "c"), ("c", "d")]:
            graph.add_undirected_edge(u, v)
        costs = {("a", "b"): 1, ("b", "d"): 1, ("a", "c"): 10, ("c", "d"): 1}
        srp = build_ospf_srp(graph, "d", link_costs=costs)
        solution = solve(srp)
        assert solution.labeling["a"].cost == 2
        assert solution.next_hops("a") == {"b"}

    def test_areas_mark_inter_area_routes(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("b", "c")
        areas = {"a": 0, "b": 0, "c": 1}
        srp = build_ospf_srp(graph, "a", node_areas=areas)
        solution = solve(srp)
        assert not solution.labeling["b"].inter_area
        assert solution.labeling["c"].inter_area


class TestStatic:
    def test_empty_comparison_relation(self):
        static = StaticProtocol()
        a, b = static.initial_attribute("d"), static.initial_attribute("d")
        assert not static.prefer(a, b)
        assert not static.prefer(b, a)

    def test_static_routes_follow_configuration(self):
        # Figure 6: a -> b1 -> ... with static routes on a and b2 only.
        graph = Graph()
        for u, v in [("a", "b1"), ("b1", "b2"), ("b2", "d")]:
            graph.add_undirected_edge(u, v)
        srp = build_static_srp(graph, "d", static_edges=[("a", "b1"), ("b2", "d")])
        solution = solve(srp)
        assert solution.labeling["a"] is not None
        assert solution.labeling["b2"] is not None
        assert solution.labeling["b1"] is None
        assert solution.next_hops("a") == {"b1"}
        assert solution.next_hops("b2") == {"d"}
        assert solution.next_hops("b1") == set()

    def test_static_route_on_missing_edge_rejected(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        with pytest.raises(ValueError):
            build_static_srp(graph, "b", static_edges=[("a", "zzz")])

    def test_static_routes_can_form_loops(self):
        """Static routing is not loop free; the model must allow it (§4.2)."""
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("b", "d")
        srp = build_static_srp(graph, "d", static_edges=[("a", "b"), ("b", "a")])
        solution = solve(srp)
        assert solution.next_hops("a") == {"b"}
        assert solution.next_hops("b") == {"a"}
