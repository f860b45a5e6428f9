"""Unit tests for the directed graph substrate."""

import pytest

from repro.topology import Graph, GraphError


def test_add_nodes_and_edges():
    g = Graph()
    g.add_edge("a", "b")
    assert g.has_node("a") and g.has_node("b")
    assert g.has_edge("a", "b")
    assert not g.has_edge("b", "a")
    assert g.num_nodes() == 2
    assert g.num_edges() == 1


def test_constructor_with_nodes_and_edges():
    g = Graph(nodes=["x"], edges=[("a", "b"), ("b", "c")])
    assert set(g.nodes) == {"x", "a", "b", "c"}
    assert g.num_edges() == 2


def test_add_undirected_edge_adds_both_directions():
    g = Graph()
    g.add_undirected_edge("a", "b")
    assert g.has_edge("a", "b") and g.has_edge("b", "a")
    assert g.num_undirected_edges() == 1
    assert g.num_edges() == 2


def test_undirected_edge_count_follows_mutation():
    """The count is memoised per mutation version, never served stale."""
    g = Graph()
    g.add_undirected_edge("a", "b")
    g.add_undirected_edge("b", "c")
    assert g.num_undirected_edges() == 2 == g.num_undirected_edges()
    g.remove_edge("a", "b")
    assert g.num_undirected_edges() == 2  # (b, a) still connects the pair
    g.remove_edge("b", "a")
    assert g.num_undirected_edges() == 1
    g.add_edge("c", "a")
    assert g.num_undirected_edges() == 2
    assert g.copy().num_undirected_edges() == 2


def test_duplicate_edges_are_idempotent():
    g = Graph()
    g.add_edge("a", "b")
    g.add_edge("a", "b")
    assert g.num_edges() == 1


def test_successors_and_predecessors():
    g = Graph(edges=[("a", "b"), ("a", "c"), ("d", "a")])
    assert g.successors("a") == {"b", "c"}
    assert g.predecessors("a") == {"d"}
    assert g.out_edges("a") == [("a", "b"), ("a", "c")] or set(g.out_edges("a")) == {("a", "b"), ("a", "c")}
    assert g.in_edges("a") == [("d", "a")]
    assert g.degree("a") == 3


def test_remove_edge_and_node():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    g.remove_edge("a", "b")
    assert not g.has_edge("a", "b")
    g.remove_node("b")
    assert not g.has_node("b")
    assert g.num_edges() == 0


def test_remove_missing_edge_raises():
    g = Graph(nodes=["a", "b"])
    with pytest.raises(GraphError):
        g.remove_edge("a", "b")
    with pytest.raises(GraphError):
        g.remove_node("zzz")


def test_self_loop_detection():
    g = Graph(edges=[("a", "a")])
    assert g.has_self_loop()
    g2 = Graph(edges=[("a", "b")])
    assert not g2.has_self_loop()


def test_copy_is_independent():
    g = Graph(edges=[("a", "b")])
    copy = g.copy()
    copy.add_edge("b", "c")
    assert not g.has_node("c")
    assert copy.has_edge("b", "c")


def test_subgraph_keeps_internal_edges_only():
    g = Graph(edges=[("a", "b"), ("b", "c"), ("c", "a")])
    sub = g.subgraph(["a", "b"])
    assert set(sub.nodes) == {"a", "b"}
    assert sub.has_edge("a", "b")
    assert not sub.has_edge("b", "c")


def test_subgraph_unknown_node_raises():
    g = Graph(edges=[("a", "b")])
    with pytest.raises(GraphError):
        g.subgraph(["a", "zzz"])


def test_reverse():
    g = Graph(edges=[("a", "b")])
    r = g.reverse()
    assert r.has_edge("b", "a")
    assert not r.has_edge("a", "b")


def test_len_iter_contains():
    g = Graph(nodes=["a", "b"])
    assert len(g) == 2
    assert "a" in g
    assert set(iter(g)) == {"a", "b"}


def test_undirected_edge_count_with_one_direction_only():
    g = Graph(edges=[("a", "b")])
    assert g.num_undirected_edges() == 1


def test_remove_node_drops_its_in_and_out_edges():
    g = Graph(edges=[("a", "b"), ("c", "b"), ("b", "d"), ("a", "d")])
    g.remove_node("b")
    assert set(g.nodes) == {"a", "c", "d"}
    assert set(g.edges) == {("a", "d")}
    assert g.successors("c") == set()
    assert g.predecessors("d") == {"a"}


def test_version_moves_on_every_structural_change_only():
    g = Graph(edges=[("a", "b")])
    seen = [g.version]
    for mutate in (
        lambda: g.add_node("c"),
        lambda: g.add_edge("b", "c"),
        lambda: g.remove_edge("a", "b"),
        lambda: g.remove_node("c"),
    ):
        mutate()
        assert g.version > seen[-1]
        seen.append(g.version)
    g.add_node("a")  # already present
    g.has_edge("a", "b")
    g.num_undirected_edges()
    assert g.version == seen[-1]


def test_reverse_keeps_isolated_nodes_and_every_edge():
    g = Graph(nodes=["x"], edges=[("a", "b"), ("b", "c"), ("c", "a")])
    r = g.reverse()
    assert set(r.nodes) == set(g.nodes)
    assert set(r.edges) == {(v, u) for u, v in g.edges}
    assert set(r.reverse().edges) == set(g.edges)


def test_subgraph_is_independent_of_its_parent():
    g = Graph(edges=[("a", "b"), ("b", "c")])
    sub = g.subgraph(["a", "b"])
    sub.remove_edge("a", "b")
    sub.add_edge("b", "a")
    assert g.has_edge("a", "b") and not g.has_edge("b", "a")
    assert g.num_edges() == 2
