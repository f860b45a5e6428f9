"""OSPF (link state) protocol model (§3.2).

OSPF computes least-cost paths from configured link costs.  The paper
models multi-area OSPF with attributes that pair the accumulated cost with
an inter-area flag, preferring intra-area routes over inter-area routes and
breaking ties on cost.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.routing.attributes import NO_ROUTE, OspfAttribute
from repro.routing.protocol import Protocol
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node

#: Cost assumed for links with no explicit configuration.
DEFAULT_LINK_COST = 1


class OspfProtocol(Protocol):
    """OSPF model: least-cost routing with intra-area preference."""

    name = "ospf"

    def initial_attribute(self, destination: Node) -> OspfAttribute:
        return OspfAttribute(cost=0, inter_area=False, area=0)

    def prefer(self, a: OspfAttribute, b: OspfAttribute) -> bool:
        # Intra-area routes beat inter-area routes; ties broken on cost.
        if a.inter_area != b.inter_area:
            return not a.inter_area
        return a.cost < b.cost

    def rank(self, a: OspfAttribute) -> Tuple[bool, int]:
        return (a.inter_area, a.cost)

    def default_transfer(
        self, edge: Edge, attribute: Optional[OspfAttribute]
    ) -> Optional[OspfAttribute]:
        if attribute is None:
            return NO_ROUTE
        return attribute.with_added_cost(DEFAULT_LINK_COST)


def build_ospf_srp(
    graph: Graph,
    destination: Node,
    link_costs: Optional[Dict[Edge, int]] = None,
    node_areas: Optional[Dict[Node, int]] = None,
    link_filter: Optional[Callable[[Edge], bool]] = None,
) -> SRP:
    """Construct the SRP for OSPF on ``graph`` rooted at ``destination``.

    Parameters
    ----------
    link_costs:
        Per-edge costs; missing edges use :data:`DEFAULT_LINK_COST`.
    node_areas:
        OSPF area of each node (default: single area ``0``).  Crossing
        between nodes in different areas marks the route inter-area.
    link_filter:
        Optional predicate; edges for which it returns ``False`` drop all
        routes (modelling passive interfaces or filters).
    """
    protocol = OspfProtocol()
    costs = link_costs or {}
    areas = node_areas or {}

    def transfer(edge: Edge, attribute: Optional[OspfAttribute]) -> Optional[OspfAttribute]:
        if attribute is None:
            return NO_ROUTE
        if link_filter is not None and not link_filter(edge):
            return NO_ROUTE
        u, v = edge
        cost = costs.get(edge, DEFAULT_LINK_COST)
        result = attribute.with_added_cost(cost)
        if areas.get(u, 0) != areas.get(v, 0):
            result = result.crossing_area(areas.get(u, 0))
        return result

    edge_policies = {}
    for edge in graph.edges:
        u, v = edge
        blocked = link_filter is not None and not link_filter(edge)
        edge_policies[edge] = (
            "ospf",
            costs.get(edge, DEFAULT_LINK_COST),
            areas.get(u, 0),
            areas.get(v, 0),
            "blocked" if blocked else "allow",
        )

    return SRP(
        graph=graph,
        destination=destination,
        initial=protocol.initial_attribute(destination),
        prefer=protocol.prefer,
        transfer=transfer,
        protocol=protocol,
        edge_policies=edge_policies,
    )
