"""Unit tests for the topology builders used by the evaluation workloads."""

import pytest

from repro.topology import fattree_topology, full_mesh_topology, ring_topology

from topologies import chain_topology


def test_chain_topology():
    g, roles = chain_topology(4)
    assert g.num_nodes() == 4
    assert g.num_undirected_edges() == 3
    assert all(role == "chain" for role in roles.values())


def test_chain_requires_positive_length():
    with pytest.raises(ValueError):
        chain_topology(0)


def test_ring_topology_sizes():
    g, _ = ring_topology(10)
    assert g.num_nodes() == 10
    assert g.num_undirected_edges() == 10
    assert all(g.degree(node) == 4 for node in g.nodes)  # 2 undirected = 4 directed


def test_ring_minimum_size():
    with pytest.raises(ValueError):
        ring_topology(2)


def test_full_mesh_topology():
    g, _ = full_mesh_topology(6)
    assert g.num_nodes() == 6
    assert g.num_undirected_edges() == 6 * 5 // 2


def test_full_mesh_minimum_size():
    with pytest.raises(ValueError):
        full_mesh_topology(1)


@pytest.mark.parametrize("k,expected_nodes", [(4, 20), (6, 45), (12, 180), (20, 500)])
def test_fattree_node_counts(k, expected_nodes):
    g, _ = fattree_topology(k)
    assert g.num_nodes() == expected_nodes


def test_fattree_structure_k4():
    g, roles = fattree_topology(4)
    cores = [n for n, r in roles.items() if r == "core"]
    aggs = [n for n, r in roles.items() if r == "aggregation"]
    edges = [n for n, r in roles.items() if r == "edge"]
    assert len(cores) == 4
    assert len(aggs) == 8
    assert len(edges) == 8
    # Every edge switch connects to every aggregation switch in its pod.
    assert g.has_edge("edge0_0", "agg0_0")
    assert g.has_edge("edge0_0", "agg0_1")
    assert not g.has_edge("edge0_0", "agg1_0")
    # Aggregation switches uplink to k/2 cores.
    assert sum(1 for peer in g.successors("agg0_0") if peer.startswith("core")) == 2


def test_fattree_rejects_odd_k():
    with pytest.raises(ValueError):
        fattree_topology(5)


def test_paper_fattree_sizes():
    """The paper's Table 1(a) fat-trees have 180, 500 and 1125 nodes."""
    for k, nodes in [(12, 180), (20, 500), (30, 1125)]:
        assert 5 * k * k // 4 == nodes


def test_ring_links_each_router_to_its_two_index_neighbours():
    g, _ = ring_topology(6)
    nodes = g.nodes
    for i, node in enumerate(nodes):
        assert g.successors(node) == {nodes[i - 1], nodes[(i + 1) % len(nodes)]}


def test_full_mesh_links_every_pair_both_ways():
    g, _ = full_mesh_topology(5)
    for u in g.nodes:
        assert g.successors(u) == set(g.nodes) - {u}
    assert not g.has_self_loop()


def test_fattree_degrees_k6():
    k = 6
    g, roles = fattree_topology(k)
    for node, role in roles.items():
        assert g.successors(node) == g.predecessors(node)  # links are bidirectional
        if role == "core":
            assert len(g.successors(node)) == k  # one aggregation switch per pod
        elif role == "aggregation":
            assert len(g.successors(node)) == k  # k/2 edge switches + k/2 cores
        else:
            assert role == "edge"
            assert len(g.successors(node)) == k // 2


def test_fattree_core_reaches_every_pod_once():
    k = 4
    g, roles = fattree_topology(k)
    for core in (n for n, r in roles.items() if r == "core"):
        pods = [peer.split("_")[0] for peer in g.successors(core)]
        assert sorted(pods) == sorted(f"agg{p}" for p in range(k))
