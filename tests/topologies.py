"""The chain topology many tests build their SRPs on.

The builder returns a :class:`~repro.topology.graph.Graph` with both edge
directions present and a node -> role dictionary, like the evaluation's
builders in :mod:`repro.topology.builders`.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.topology.graph import Graph, Node


def chain_topology(length: int, prefix: str = "r") -> Tuple[Graph, Dict[Node, str]]:
    """A line of ``length`` routers ``r0 - r1 - ... - r{length-1}``."""
    if length < 1:
        raise ValueError("chain length must be >= 1")
    g = Graph()
    roles: Dict[Node, str] = {}
    names = [f"{prefix}{i}" for i in range(length)]
    for name in names:
        g.add_node(name)
        roles[name] = "chain"
    for left, right in zip(names, names[1:]):
        g.add_undirected_edge(left, right)
    return g, roles
