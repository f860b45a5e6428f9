"""Network abstractions: the pair of functions ``(f, h)`` (§4).

A :class:`NetworkAbstraction` records the topology function ``f`` mapping
concrete nodes to abstract nodes, together with the protocol whose
attribute abstraction plays the role of ``h``.  It also materialises the
abstract topology induced by ``f`` and provides the inverse views the
condition checkers and the equivalence checker need.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List, Optional, Set, Tuple

from repro.topology.graph import Edge, Graph, Node


@dataclass
class NetworkAbstraction:
    """The topology abstraction ``f`` plus supporting views.

    Attributes
    ----------
    node_map:
        The function ``f`` as a dictionary from concrete to abstract node
        names.
    abstract_graph:
        The abstract topology: one node per abstract name, an edge
        ``(û, v̂)`` whenever some concrete edge maps onto it.
    protocol:
        The protocol object providing the attribute abstraction ``h``
        (may be ``None`` for purely topological uses).
    split_groups:
        For BGP case splitting: maps each *base* abstract node name to the
        tuple of its copies in the final abstraction (empty if no splitting
        happened).  Concrete nodes in ``node_map`` point at base names; the
        copies share the base's concrete nodes.
    """

    node_map: Dict[Node, str]
    abstract_graph: Graph
    protocol: Any = None
    split_groups: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_node_map(
        cls,
        concrete_graph: Graph,
        node_map: Dict[Node, str],
        protocol: Any = None,
        split_groups: Optional[Dict[str, Tuple[str, ...]]] = None,
    ) -> "NetworkAbstraction":
        """Build the abstraction induced by ``node_map`` on ``concrete_graph``."""
        missing = [node for node in concrete_graph.nodes if node not in node_map]
        if missing:
            raise ValueError(f"node map missing concrete nodes: {missing}")
        abstract = Graph()
        split_groups = dict(split_groups or {})

        def copies(base: str) -> Tuple[str, ...]:
            return split_groups.get(base, (base,))

        # The groups each group has an edge to, de-duplicated first: one
        # add per abstract node and edge, not per concrete node and edge.
        images: Dict[str, Set[str]] = {}
        for node in concrete_graph.nodes:
            images.setdefault(node_map[node], set()).update(
                map(node_map.__getitem__, concrete_graph.successors(node))
            )
        for base in images:
            for copy in copies(base):
                abstract.add_node(copy)
        for base_u, targets in images.items():
            for cu in copies(base_u):
                for base_v in targets:
                    for cv in copies(base_v):
                        if cu != cv:
                            abstract.add_edge(cu, cv)
        return cls(
            node_map=dict(node_map),
            abstract_graph=abstract,
            protocol=protocol,
            split_groups=split_groups,
        )

    def renamed(
        self, sigma: Dict[Node, Node], concrete_graph: Graph, node_map: Dict[Node, str], protocol
    ) -> Tuple["NetworkAbstraction", Dict[str, str]]:
        """What :meth:`from_node_map` builds on ``concrete_graph``, whose groups
        ``node_map`` names, for this abstraction's image under ``sigma``; and
        the renaming of abstract nodes, split copies by index, that it is."""
        rho = {base: node_map[sigma[next(iter(g))]] for base, g in self._inverse()[0].items()}
        split_groups = {}
        for base, copies in self.split_groups.items():
            image = rho[base]
            split_groups[image] = tuple(image + copy[len(base):] for copy in copies)
            rho.update(zip(copies, split_groups[image]))
        abstract = Graph()
        for base in dict.fromkeys(map(node_map.__getitem__, concrete_graph.nodes)):
            for copy in split_groups.get(base, (base,)):
                abstract.add_node(copy)
        for u, v in self.abstract_graph.edges:
            abstract.add_edge(rho[u], rho[v])
        return NetworkAbstraction(node_map, abstract, protocol, split_groups), rho

    # ------------------------------------------------------------------
    # The function f and its inverse
    # ------------------------------------------------------------------
    def f(self, node: Node) -> str:
        """Apply the topology function to a concrete node."""
        return self.node_map[node]

    def f_edge(self, edge: Edge) -> Tuple[str, str]:
        """Apply ``f`` to a concrete edge."""
        u, v = edge
        return (self.node_map[u], self.node_map[v])

    def _inverse(self) -> Tuple[Dict[str, FrozenSet[Node]], Dict[str, str]]:
        """``(base name -> concrete members, split copy -> base name)``, built
        on first use: ``node_map`` / ``split_groups`` are not edited later."""
        cached = self.__dict__.get("_inverse_index")
        if cached is None:
            buckets: Dict[str, Set[Node]] = {}
            for node, name in self.node_map.items():
                buckets.setdefault(name, set()).add(node)
            cached = self._inverse_index = (
                {name: frozenset(members) for name, members in buckets.items()},
                {copy: base for base, copies in self.split_groups.items() for copy in copies},
            )
        return cached

    def concrete_nodes(self, abstract_node: str) -> FrozenSet[Node]:
        """The concrete nodes mapped to ``abstract_node`` (or to its base,
        for split copies)."""
        return self._inverse()[0].get(self.base_of(abstract_node), frozenset())

    def base_of(self, abstract_node: str) -> str:
        """The pre-split abstract node a split copy belongs to."""
        return self._inverse()[1].get(abstract_node, abstract_node)

    def copies_of(self, base: str) -> Tuple[str, ...]:
        """The split copies of a base abstract node (itself if unsplit)."""
        return self.split_groups.get(base, (base,))

    # ------------------------------------------------------------------
    # The attribute abstraction h
    # ------------------------------------------------------------------
    def h(self, attribute: Any) -> Any:
        """Apply the attribute abstraction induced by the protocol and ``f``."""
        if self.protocol is None:
            return attribute
        return self.protocol.abstract_attribute(attribute, self.f)

    # ------------------------------------------------------------------
    # Sizes
    # ------------------------------------------------------------------
    def num_abstract_nodes(self) -> int:
        return self.abstract_graph.num_nodes()

    def num_abstract_edges(self) -> int:
        return self.abstract_graph.num_undirected_edges()

    def groups(self) -> List[FrozenSet[Node]]:
        """The partition of concrete nodes induced by ``f`` (base groups)."""
        return list(self._inverse()[0].values())

    def edge_preimages(
        self, concrete_graph: Graph
    ) -> Dict[FrozenSet[str], FrozenSet[Tuple[Node, Node]]]:
        """Concrete undirected links grouped by their abstract image.

        Maps ``frozenset({f(u), f(v)})`` to the set of concrete links
        (as name-sorted pairs) whose endpoints map onto it; links internal
        to one group appear under the singleton ``frozenset({f(u)})``.
        The failure-soundness checker uses this to decide whether a failed
        link's whole preimage fails with it; the result is memoised per
        (graph identity, mutation version), so querying a different graph
        -- or the same graph after an in-place edge removal -- recomputes
        instead of serving stale preimages.
        """
        cached = getattr(self, "_edge_preimage_cache", None)
        if (
            cached is not None
            and cached[0] is concrete_graph
            and cached[1] == concrete_graph.version
        ):
            return cached[2]
        buckets: Dict[FrozenSet[str], Set[Tuple[Node, Node]]] = {}
        for u, v in concrete_graph.edges:
            su, sv = str(u), str(v)
            link = (su, sv) if su <= sv else (sv, su)
            image = frozenset({self.node_map[u], self.node_map[v]})
            buckets.setdefault(image, set()).add(link)
        preimages = {
            image: frozenset(links) for image, links in buckets.items()
        }
        self._edge_preimage_cache = (concrete_graph, concrete_graph.version, preimages)
        return preimages

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"NetworkAbstraction(abstract_nodes={self.num_abstract_nodes()}, "
            f"abstract_edges={self.num_abstract_edges()})"
        )
