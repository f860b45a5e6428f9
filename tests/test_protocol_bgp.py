"""Unit tests for the eBGP model, policies and loop prevention (§3.2, §4.3)."""


from repro.routing import (
    AddCommunity,
    AllowAll,
    BgpAttribute,
    BgpProtocol,
    DenyAll,
    FilterCommunity,
    PrependAs,
    RemoveCommunity,
    SetLocalPref,
    build_bgp_srp,
    chain,
    policy_local_prefs,
)
from repro.srp import solve
from repro.topology import Graph

from topologies import chain_topology


class TestBgpPreference:
    def test_local_pref_dominates_path_length(self):
        bgp = BgpProtocol()
        long_but_preferred = BgpAttribute(local_pref=200, as_path=("a", "b", "c"))
        short = BgpAttribute(local_pref=100, as_path=("x",))
        assert bgp.prefer(long_but_preferred, short)

    def test_path_length_breaks_ties(self):
        bgp = BgpProtocol()
        assert bgp.prefer(BgpAttribute(as_path=("a",)), BgpAttribute(as_path=("a", "b")))

    def test_equal_attributes_not_strictly_preferred(self):
        bgp = BgpProtocol()
        a = BgpAttribute(as_path=("x",))
        b = BgpAttribute(as_path=("y",))
        assert bgp.equally_preferred(a, b)


class TestBgpPolicies:
    def test_allow_and_deny(self):
        attr = BgpAttribute()
        assert AllowAll().apply(attr) == attr
        assert DenyAll().apply(attr) is None

    def test_set_local_pref_unconditional(self):
        assert SetLocalPref(300).apply(BgpAttribute()).local_pref == 300

    def test_set_local_pref_community_guard(self):
        policy = SetLocalPref(300, match_any_community=frozenset({"65001:1"}))
        untagged = BgpAttribute()
        tagged = BgpAttribute(communities=frozenset({"65001:1"}))
        assert policy.apply(untagged).local_pref == 100
        assert policy.apply(tagged).local_pref == 300

    def test_add_remove_filter_community(self):
        attr = AddCommunity("65001:9").apply(BgpAttribute())
        assert attr.has_community("65001:9")
        assert not RemoveCommunity("65001:9").apply(attr).has_community("65001:9")
        assert FilterCommunity(frozenset({"65001:9"})).apply(attr) is None
        assert FilterCommunity(frozenset({"65001:8"})).apply(attr) == attr

    def test_prepend(self):
        attr = PrependAs("me", count=2).apply(BgpAttribute())
        assert attr.as_path == ("me", "me")

    def test_chain_stops_on_denial(self):
        policy = chain(DenyAll(), AddCommunity("never"))
        assert policy.apply(BgpAttribute()) is None

    def test_chain_applies_in_order(self):
        policy = chain(AddCommunity("65001:1"), SetLocalPref(200, frozenset({"65001:1"})))
        assert policy.apply(BgpAttribute()).local_pref == 200

    def test_policy_local_prefs_collects_nested_values(self):
        policy = chain(SetLocalPref(200), chain(SetLocalPref(300)))
        assert policy_local_prefs(policy) == frozenset({200, 300})
        assert policy_local_prefs(AllowAll()) == frozenset()


class TestBgpSrp:
    def test_as_path_grows_along_chain(self):
        graph, _ = chain_topology(4)
        srp = build_bgp_srp(graph, "r0")
        solution = solve(srp)
        assert solution.labeling["r3"].as_path == ("r2", "r1", "r0")

    def test_shortest_as_path_wins_without_policy(self):
        graph = Graph()
        for u, v in [("a", "b"), ("b", "d"), ("a", "d")]:
            graph.add_undirected_edge(u, v)
        srp = build_bgp_srp(graph, "d")
        solution = solve(srp)
        assert solution.next_hops("a") == {"d"}

    def test_loop_prevention_rejects_routes_through_self(self):
        """The gadget of Figure 2: exactly one b router is forced downhill."""
        graph = Graph()
        for b in ("b1", "b2", "b3"):
            graph.add_undirected_edge("a", b)
            graph.add_undirected_edge(b, "d")
        imports = {(b, "a"): SetLocalPref(200) for b in ("b1", "b2", "b3")}
        srp = build_bgp_srp(graph, "d", import_policies=imports)
        solution = solve(srp)
        down = [b for b in ("b1", "b2", "b3") if solution.next_hops(b) == {"d"}]
        up = [b for b in ("b1", "b2", "b3") if solution.next_hops(b) == {"a"}]
        assert len(down) == 1
        assert len(up) == 2
        # The router forced downhill is the one a's route goes through.
        assert solution.labeling["a"].as_path[0] == down[0]
        assert solution.is_stable()

    def test_without_loop_prevention_route_is_accepted(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("b", "d")
        srp = build_bgp_srp(graph, "d", loop_prevention=False)
        # Manually push an attribute containing the receiver through transfer.
        attr = BgpAttribute(as_path=("a", "x"))
        transferred = srp.transfer(("a", "b"), attr)
        assert transferred is not None
        assert transferred.as_path[0] == "b"

    def test_export_policy_applies_before_import(self):
        graph = Graph()
        graph.add_undirected_edge("a", "d")
        exports = {("a", "d"): AddCommunity("65001:7")}
        imports = {("a", "d"): SetLocalPref(400, frozenset({"65001:7"}))}
        srp = build_bgp_srp(graph, "d", import_policies=imports, export_policies=exports)
        solution = solve(srp)
        assert solution.labeling["a"].local_pref == 400
        assert solution.labeling["a"].has_community("65001:7")

    def test_export_deny_blackholes_neighbour(self):
        graph, _ = chain_topology(3)
        exports = {("r1", "r0"): DenyAll()}
        srp = build_bgp_srp(graph, "r0", export_policies=exports)
        solution = solve(srp)
        assert solution.labeling["r1"] is None
        assert solution.labeling["r2"] is None

    def test_node_prefs_recorded_for_case_splitting(self):
        graph, _ = chain_topology(3)
        imports = {("r1", "r0"): SetLocalPref(250)}
        srp = build_bgp_srp(graph, "r0", import_policies=imports)
        assert srp.prefs("r1") == (100, 250)
        assert srp.prefs("r2") == (100,)

    def test_attribute_abstraction_maps_paths_and_strips_unused(self):
        protocol = BgpProtocol(unused_communities=frozenset({"junk"}))
        attr = BgpAttribute(
            local_pref=200,
            communities=frozenset({"junk", "keep"}),
            as_path=("b2", "d"),
        )
        mapped = protocol.abstract_attribute(attr, lambda node: "b" if node.startswith("b") else node)
        assert mapped.as_path == ("b", "d")
        assert mapped.communities == frozenset({"keep"})
        assert mapped.local_pref == 200
        assert protocol.abstract_attribute(None, lambda node: node) is None
