"""Directed graph model used by the Stable Routing Problem.

The paper models the network as a graph ``G = (V, E, d)`` with a set of
vertices ``V``, directed edges ``E`` and a destination vertex ``d``.  This
module provides a small, dependency-free graph class tailored to that use:
node names are arbitrary hashable values (router names in practice), edges
are ordered pairs, and the graph supports the queries the abstraction
algorithm needs (successors, predecessors, edge membership, subgraph
extraction).

The class is deliberately simple: Bonsai's algorithm never needs edge
weights on the graph itself because all routing semantics live in the SRP
transfer function.
"""

from __future__ import annotations

from typing import Dict, Hashable, Iterable, Iterator, List, Set, Tuple

Node = Hashable
Edge = Tuple[Node, Node]


class GraphError(Exception):
    """Raised on malformed graph operations (duplicate nodes, bad edges)."""


class Graph:
    """A directed graph with named nodes.

    Parameters
    ----------
    nodes:
        Optional iterable of node names to add immediately.
    edges:
        Optional iterable of ``(u, v)`` pairs to add immediately.  Endpoints
        are added implicitly if missing.
    """

    def __init__(self, nodes: Iterable[Node] = (), edges: Iterable[Edge] = ()):
        self._succ: Dict[Node, Set[Node]] = {}
        self._pred: Dict[Node, Set[Node]] = {}
        self._version = 0
        for node in nodes:
            self.add_node(node)
        for u, v in edges:
            self.add_edge(u, v)

    @property
    def version(self) -> int:
        """A counter bumped by every structural mutation.

        Fingerprint-guarded caches (e.g. the memoised whole-network views
        on :class:`~repro.config.network.Network`) include this value so
        that removing an edge or node transparently invalidates them.
        """
        return self._version

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, node: Node) -> None:
        """Add ``node`` to the graph; adding an existing node is a no-op."""
        if node not in self._succ:
            self._succ[node] = set()
            self._pred[node] = set()
            self._version += 1

    def add_edge(self, u: Node, v: Node) -> None:
        """Add the directed edge ``(u, v)``, creating endpoints as needed."""
        self.add_node(u)
        self.add_node(v)
        self._succ[u].add(v)
        self._pred[v].add(u)
        self._version += 1

    def add_undirected_edge(self, u: Node, v: Node) -> None:
        """Add both ``(u, v)`` and ``(v, u)``.

        Physical links are bidirectional, and routing announcements can flow
        in either direction, so topology builders typically use this helper.
        """
        self.add_edge(u, v)
        self.add_edge(v, u)

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the directed edge ``(u, v)``.

        Raises
        ------
        GraphError
            If the edge is not present.
        """
        if not self.has_edge(u, v):
            raise GraphError(f"edge ({u!r}, {v!r}) not in graph")
        self._succ[u].discard(v)
        self._pred[v].discard(u)
        self._version += 1

    def remove_node(self, node: Node) -> None:
        """Remove ``node`` and every edge incident to it."""
        if node not in self._succ:
            raise GraphError(f"node {node!r} not in graph")
        for v in list(self._succ[node]):
            self.remove_edge(node, v)
        for u in list(self._pred[node]):
            self.remove_edge(u, node)
        del self._succ[node]
        del self._pred[node]
        self._version += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion order."""
        return list(self._succ.keys())

    @property
    def edges(self) -> List[Edge]:
        """All directed edges ``(u, v)``."""
        return [(u, v) for u, succ in self._succ.items() for v in succ]

    def has_node(self, node: Node) -> bool:
        return node in self._succ

    def has_edge(self, u: Node, v: Node) -> bool:
        return u in self._succ and v in self._succ[u]

    def successors(self, node: Node) -> Set[Node]:
        """Nodes ``v`` such that ``(node, v)`` is an edge."""
        return set(self._succ[node])

    def predecessors(self, node: Node) -> Set[Node]:
        """Nodes ``u`` such that ``(u, node)`` is an edge."""
        return set(self._pred[node])

    def out_edges(self, node: Node) -> List[Edge]:
        return [(node, v) for v in self._succ[node]]

    def in_edges(self, node: Node) -> List[Edge]:
        return [(u, node) for u in self._pred[node]]

    def degree(self, node: Node) -> int:
        """Total (in + out) degree of ``node``."""
        return len(self._succ[node]) + len(self._pred[node])

    def num_nodes(self) -> int:
        return len(self._succ)

    def num_edges(self) -> int:
        return sum(len(s) for s in self._succ.values())

    def num_undirected_edges(self) -> int:
        """Number of unordered node pairs connected by at least one edge.

        The paper reports undirected edge counts for topologies (e.g. a
        180-node fattree has 2124 edges); this helper makes those numbers
        directly comparable.  Memoised per mutation :attr:`version`.
        """
        cached = self.__dict__.get("_undirected_count")
        if cached is None or cached[0] != self._version:
            cached = self._undirected_count = (
                self._version,
                len({frozenset(edge) for edge in self.edges}),
            )
        return cached[1]

    def has_self_loop(self) -> bool:
        """True if any edge ``(v, v)`` exists (forbidden in well-formed SRPs)."""
        return any(u == v for u, v in self.edges)

    def __contains__(self, node: Node) -> bool:
        return self.has_node(node)

    def __iter__(self) -> Iterator[Node]:
        return iter(self._succ)

    def __len__(self) -> int:
        return self.num_nodes()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Graph(nodes={self.num_nodes()}, edges={self.num_edges()})"

    # ------------------------------------------------------------------
    # Derived graphs
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        """Return an independent copy of this graph."""
        g = Graph()
        for node in self._succ:
            g.add_node(node)
        for u, v in self.edges:
            g.add_edge(u, v)
        return g

    def subgraph(self, nodes: Iterable[Node]) -> "Graph":
        """The induced subgraph on ``nodes`` (edges with both endpoints kept)."""
        keep = set(nodes)
        g = Graph()
        for node in keep:
            if node not in self._succ:
                raise GraphError(f"node {node!r} not in graph")
            g.add_node(node)
        for u, v in self.edges:
            if u in keep and v in keep:
                g.add_edge(u, v)
        return g

    def reverse(self) -> "Graph":
        """A graph with every edge direction flipped."""
        g = Graph()
        for node in self._succ:
            g.add_node(node)
        for u, v in self.edges:
            g.add_edge(v, u)
        return g
