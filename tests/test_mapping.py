"""Unit tests for NetworkAbstraction (the pair (f, h))."""

import pytest

from repro.abstraction import NetworkAbstraction
from repro.routing import BgpProtocol, BgpAttribute
from repro.topology import Graph


@pytest.fixture
def line_graph() -> Graph:
    g = Graph()
    g.add_undirected_edge("a", "b1")
    g.add_undirected_edge("a", "b2")
    g.add_undirected_edge("b1", "d")
    g.add_undirected_edge("b2", "d")
    return g


@pytest.fixture
def abstraction(line_graph) -> NetworkAbstraction:
    node_map = {"a": "A", "b1": "B", "b2": "B", "d": "D"}
    return NetworkAbstraction.from_node_map(line_graph, node_map, protocol=BgpProtocol())


def test_missing_nodes_rejected(line_graph):
    with pytest.raises(ValueError):
        NetworkAbstraction.from_node_map(line_graph, {"a": "A"})


def test_abstract_graph_induced_by_f(abstraction):
    g = abstraction.abstract_graph
    assert set(g.nodes) == {"A", "B", "D"}
    assert g.has_edge("A", "B") and g.has_edge("B", "A")
    assert g.has_edge("B", "D")
    assert not g.has_edge("A", "D")
    assert abstraction.num_abstract_nodes() == 3
    assert abstraction.num_abstract_edges() == 2


def test_f_on_nodes_and_edges(abstraction):
    assert abstraction.f("b1") == "B"
    assert abstraction.f_edge(("a", "b1")) == ("A", "B")


def test_concrete_nodes_inverse(abstraction):
    assert abstraction.concrete_nodes("B") == frozenset({"b1", "b2"})
    assert abstraction.concrete_nodes("A") == frozenset({"a"})


def test_h_uses_protocol_attribute_abstraction(abstraction):
    attr = BgpAttribute(as_path=("b1", "d"))
    assert abstraction.h(attr).as_path == ("B", "D")
    assert abstraction.h(None) is None


def test_h_identity_without_protocol(line_graph):
    plain = NetworkAbstraction.from_node_map(
        line_graph, {"a": "A", "b1": "B", "b2": "B", "d": "D"}
    )
    attr = BgpAttribute(as_path=("b1",))
    assert plain.h(attr) is attr


def test_groups(abstraction):
    groups = {frozenset(group) for group in abstraction.groups()}
    assert frozenset({"b1", "b2"}) in groups
    assert len(groups) == 3


def test_split_groups_create_copies(line_graph):
    node_map = {"a": "A", "b1": "B", "b2": "B", "d": "D"}
    split = NetworkAbstraction.from_node_map(
        line_graph, node_map, split_groups={"B": ("B_case0", "B_case1")}
    )
    g = split.abstract_graph
    assert "B_case0" in g.nodes and "B_case1" in g.nodes
    assert "B" not in g.nodes
    assert g.has_edge("A", "B_case0") and g.has_edge("A", "B_case1")
    assert g.has_edge("B_case0", "D") and g.has_edge("B_case1", "D")
    # b1 and b2 are not adjacent, so the copies have no edge between them.
    assert not g.has_edge("B_case0", "B_case1")
    assert split.base_of("B_case1") == "B"
    assert split.copies_of("B") == ("B_case0", "B_case1")
    assert split.copies_of("A") == ("A",)
    assert split.concrete_nodes("B_case0") == frozenset({"b1", "b2"})


def test_edge_preimages_group_links_by_their_abstract_image(line_graph, abstraction):
    assert abstraction.edge_preimages(line_graph) == {
        frozenset({"A", "B"}): frozenset({("a", "b1"), ("a", "b2")}),
        frozenset({"B", "D"}): frozenset({("b1", "d"), ("b2", "d")}),
    }


def test_links_inside_one_group_map_to_a_singleton_image(line_graph):
    line_graph.add_undirected_edge("b1", "b2")
    node_map = {"a": "A", "b1": "B", "b2": "B", "d": "D"}
    abstraction = NetworkAbstraction.from_node_map(line_graph, node_map)
    assert abstraction.edge_preimages(line_graph)[frozenset({"B"})] == frozenset({("b1", "b2")})
    assert not abstraction.abstract_graph.has_self_loop()
