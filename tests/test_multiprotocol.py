"""Unit tests for multi-protocol networks (§6)."""

from repro.routing import (
    BgpAttribute,
    MultiProtocol,
    MultiProtocolConfig,
    OspfAttribute,
    RibAttribute,
    StaticAttribute,
    build_multiprotocol_srp,
)
from repro.srp import solve
from repro.topology import Graph

from topologies import chain_topology


def both_directions(*pairs):
    edges = set()
    for u, v in pairs:
        edges.add((u, v))
        edges.add((v, u))
    return edges


def test_admin_distance_prefers_static_then_bgp_then_ospf():
    protocol = MultiProtocol()
    static = RibAttribute(static=StaticAttribute(), chosen="static")
    bgp = RibAttribute(bgp=BgpAttribute(), chosen="ebgp")
    ospf = RibAttribute(ospf=OspfAttribute(cost=1), chosen="ospf")
    assert protocol.prefer(static, bgp)
    assert protocol.prefer(bgp, ospf)
    assert protocol.prefer(static, ospf)


def test_bgp_tie_break_inside_rib():
    protocol = MultiProtocol()
    short = RibAttribute(bgp=BgpAttribute(as_path=("a",)), chosen="ebgp")
    long = RibAttribute(bgp=BgpAttribute(as_path=("a", "b")), chosen="ebgp")
    assert protocol.prefer(short, long)


def test_bgp_only_network():
    graph, _ = chain_topology(3)
    config = MultiProtocolConfig(bgp_edges=both_directions(("r0", "r1"), ("r1", "r2")))
    srp = build_multiprotocol_srp(graph, "r0", config)
    solution = solve(srp)
    assert solution.labeling["r2"].chosen == "ebgp"
    assert solution.labeling["r2"].bgp.as_path == ("r1", "r0")


def test_ospf_only_network():
    graph, _ = chain_topology(3)
    config = MultiProtocolConfig(
        ospf_edges=both_directions(("r0", "r1"), ("r1", "r2")),
        ospf_costs={("r2", "r1"): 7, ("r1", "r0"): 3},
    )
    srp = build_multiprotocol_srp(graph, "r0", config)
    solution = solve(srp)
    assert solution.labeling["r2"].chosen == "ospf"
    assert solution.labeling["r2"].ospf.cost == 10


def test_static_route_overrides_bgp():
    graph = Graph()
    graph.add_undirected_edge("a", "b")
    graph.add_undirected_edge("a", "d")
    graph.add_undirected_edge("b", "d")
    config = MultiProtocolConfig(
        bgp_edges=both_directions(("a", "b"), ("a", "d"), ("b", "d")),
        static_edges={("a", "b")},
    )
    srp = build_multiprotocol_srp(graph, "d", config)
    solution = solve(srp)
    # BGP would choose the direct link, but the static route wins by
    # administrative distance and points at b.
    assert solution.labeling["a"].chosen == "static"
    assert solution.next_hops("a") == {"b"}


def test_no_protocol_means_no_route():
    graph, _ = chain_topology(3)
    config = MultiProtocolConfig(bgp_edges=both_directions(("r0", "r1")))
    srp = build_multiprotocol_srp(graph, "r0", config)
    solution = solve(srp)
    assert solution.labeling["r1"] is not None
    assert solution.labeling["r2"] is None


def test_redistribution_injects_ospf_route_into_bgp():
    # r0 -(ospf)- r1 -(bgp)- r2 ; r1 redistributes OSPF into BGP.
    graph, _ = chain_topology(3)
    config = MultiProtocolConfig(
        ospf_edges=both_directions(("r0", "r1")),
        bgp_edges=both_directions(("r1", "r2")),
        redistribute_ospf_into_bgp={"r1"},
    )
    srp = build_multiprotocol_srp(graph, "r0", config)
    solution = solve(srp)
    assert solution.labeling["r1"].chosen == "ospf"
    assert solution.labeling["r2"] is not None
    assert solution.labeling["r2"].chosen == "ebgp"


def test_without_redistribution_bgp_island_is_unreachable():
    graph, _ = chain_topology(3)
    config = MultiProtocolConfig(
        ospf_edges=both_directions(("r0", "r1")),
        bgp_edges=both_directions(("r1", "r2")),
    )
    srp = build_multiprotocol_srp(graph, "r0", config)
    solution = solve(srp)
    assert solution.labeling["r2"] is None
