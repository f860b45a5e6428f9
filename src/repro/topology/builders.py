"""Topology builders for the synthetic networks used in the evaluation.

The paper evaluates Bonsai on three synthetic topology families (§8):

* **Fattree** -- the standard k-ary fat-tree of Al-Fares et al. [1]; the
  paper's 180-, 500- and 1125-node instances correspond to k = 12, 20, 30.
* **Ring** -- a simple cycle of n routers.
* **Full mesh** -- every pair of routers connected.

All builders return a :class:`~repro.topology.graph.Graph` with undirected
connectivity (both edge directions present) plus a metadata dictionary that
records the role of each node (``core`` / ``aggregation`` / ``edge`` for
fat-trees and so on).  Roles are used by the configuration generators in
:mod:`repro.netgen` to assign per-role policy.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.topology.graph import Graph, Node


def ring_topology(size: int, prefix: str = "r") -> Tuple[Graph, Dict[Node, str]]:
    """A cycle of ``size`` routers.

    Used for the Ring rows of Table 1(a).  Compression of a ring grows with
    its diameter because path length must be preserved.
    """
    if size < 3:
        raise ValueError("ring size must be >= 3")
    g = Graph()
    roles: Dict[Node, str] = {}
    names = [f"{prefix}{i}" for i in range(size)]
    for name in names:
        g.add_node(name)
        roles[name] = "ring"
    for i, name in enumerate(names):
        g.add_undirected_edge(name, names[(i + 1) % size])
    return g, roles


def full_mesh_topology(size: int, prefix: str = "r") -> Tuple[Graph, Dict[Node, str]]:
    """A complete graph on ``size`` routers (Full Mesh rows of Table 1(a))."""
    if size < 2:
        raise ValueError("mesh size must be >= 2")
    g = Graph()
    roles: Dict[Node, str] = {}
    names = [f"{prefix}{i}" for i in range(size)]
    for name in names:
        g.add_node(name)
        roles[name] = "mesh"
    for i, u in enumerate(names):
        for v in names[i + 1:]:
            g.add_undirected_edge(u, v)
    return g, roles


def fattree_topology(k: int) -> Tuple[Graph, Dict[Node, str]]:
    """The k-ary fat-tree of Al-Fares et al.

    The topology has ``(k/2)^2`` core switches, ``k`` pods each containing
    ``k/2`` aggregation and ``k/2`` edge switches, for ``5 k^2 / 4`` nodes
    total.  ``k`` must be even.

    Node naming:

    * ``core{i}``            -- core switches, ``i in [0, (k/2)^2)``
    * ``agg{p}_{i}``         -- aggregation switch ``i`` of pod ``p``
    * ``edge{p}_{i}``        -- edge (top-of-rack) switch ``i`` of pod ``p``

    Roles returned are ``"core"``, ``"aggregation"`` and ``"edge"``.
    """
    if k < 2 or k % 2 != 0:
        raise ValueError("fat-tree parameter k must be an even integer >= 2")
    half = k // 2
    g = Graph()
    roles: Dict[Node, str] = {}

    cores: List[str] = []
    for i in range(half * half):
        name = f"core{i}"
        g.add_node(name)
        roles[name] = "core"
        cores.append(name)

    for pod in range(k):
        aggs = []
        edges = []
        for i in range(half):
            agg = f"agg{pod}_{i}"
            edge = f"edge{pod}_{i}"
            g.add_node(agg)
            g.add_node(edge)
            roles[agg] = "aggregation"
            roles[edge] = "edge"
            aggs.append(agg)
            edges.append(edge)
        # Full bipartite connection between aggregation and edge layers of a pod.
        for agg in aggs:
            for edge in edges:
                g.add_undirected_edge(agg, edge)
        # Each aggregation switch i connects to core switches i*half .. i*half+half-1.
        for i, agg in enumerate(aggs):
            for j in range(half):
                g.add_undirected_edge(agg, cores[i * half + j])

    return g, roles
