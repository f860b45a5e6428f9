"""Multi-protocol networks: combining BGP, OSPF and static routes (§6).

Real devices run several protocols at once and select among them with
administrative distance; routes can also be *redistributed* from one
protocol into another.  Following the paper (and Batfish), we model this
with a product attribute :class:`~repro.routing.attributes.RibAttribute`
that tracks each protocol's best offer plus which protocol currently owns
the main RIB entry, and a transfer function that runs each protocol's
transfer side by side.

The comparison relation compares the main RIB entries: lower administrative
distance wins, then the owning protocol's own preference applies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set, Tuple

from repro.routing.attributes import (
    ADMIN_DISTANCE,
    NO_ROUTE,
    BgpAttribute,
    RibAttribute,
    StaticAttribute,
)
from repro.routing.bgp import AllowAll, BgpPolicy, BgpProtocol
from repro.routing.ospf import DEFAULT_LINK_COST, OspfProtocol
from repro.routing.protocol import Protocol
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


@dataclass
class MultiProtocolConfig:
    """Per-network description of which protocols run where.

    Attributes
    ----------
    bgp_edges:
        Edges on which eBGP sessions run (both directions must be listed for
        a bidirectional session).
    ospf_edges:
        Edges on which OSPF adjacencies run.
    static_edges:
        Edges carrying a static route for the destination, applied at the
        edge's first endpoint.
    bgp_import_policies / bgp_export_policies:
        Optional per-edge BGP policies (same conventions as
        :func:`repro.routing.bgp.build_bgp_srp`).
    ospf_costs:
        Optional per-edge OSPF link costs.
    redistribute_ospf_into_bgp:
        Nodes that inject their best OSPF route into BGP (route
        redistribution, §6).
    """

    bgp_edges: Set[Edge] = field(default_factory=set)
    ospf_edges: Set[Edge] = field(default_factory=set)
    static_edges: Set[Edge] = field(default_factory=set)
    bgp_import_policies: Dict[Edge, BgpPolicy] = field(default_factory=dict)
    bgp_export_policies: Dict[Edge, BgpPolicy] = field(default_factory=dict)
    ospf_costs: Dict[Edge, int] = field(default_factory=dict)
    redistribute_ospf_into_bgp: Set[Node] = field(default_factory=set)


class MultiProtocol(Protocol):
    """Product protocol selecting among BGP, OSPF and static by admin distance."""

    name = "multi"

    def __init__(self) -> None:
        self._bgp = BgpProtocol()
        self._ospf = OspfProtocol()

    def initial_attribute(self, destination: Node) -> RibAttribute:
        return RibAttribute(
            bgp=self._bgp.initial_attribute(destination),
            ospf=self._ospf.initial_attribute(destination),
            static=None,
            chosen="ebgp",
        )

    def prefer(self, a: RibAttribute, b: RibAttribute) -> bool:
        """Compare the main RIB entries of two product attributes.

        Every ``RibAttribute`` built by the transfer functions carries its
        best protocol in ``chosen`` (the constructors enforce the
        invariant ``chosen == best_protocol()``), so the admin-distance
        winner only needs recomputing for hand-built attributes.
        """
        pa = a.chosen if a.chosen is not None else a.best_protocol()
        pb = b.chosen if b.chosen is not None else b.best_protocol()
        if pa is None or pb is None:
            return pb is None and pa is not None
        da, db = ADMIN_DISTANCE[pa], ADMIN_DISTANCE[pb]
        if da != db:
            return da < db
        if pa == "ebgp" and a.bgp is not None and b.bgp is not None:
            return self._bgp.prefer(a.bgp, b.bgp)
        if pa == "ospf" and a.ospf is not None and b.ospf is not None:
            return self._ospf.prefer(a.ospf, b.ospf)
        return False

    def rank(self, a: RibAttribute) -> Tuple:
        """Administrative distance, then the owner's own rank (``chosen``'s
        attribute is present); an empty entry ranks behind every route."""
        protocol = a.chosen if a.chosen is not None else a.best_protocol()
        if protocol is None:
            return (1 << 30,)
        if protocol == "ebgp":
            return (ADMIN_DISTANCE[protocol], *self._bgp.rank(a.bgp))
        if protocol == "ospf":
            return (ADMIN_DISTANCE[protocol], *self._ospf.rank(a.ospf))
        return (ADMIN_DISTANCE[protocol],)

    def default_transfer(self, edge: Edge, attribute: Optional[RibAttribute]):
        raise NotImplementedError("use build_multiprotocol_srp to obtain transfer functions")

    def abstract_attribute(self, attribute, node_map):
        if attribute is None:
            return None
        return RibAttribute(
            bgp=self._bgp.abstract_attribute(attribute.bgp, node_map),
            ospf=attribute.ospf,
            static=attribute.static,
            chosen=attribute.chosen,
        )


def build_multiprotocol_srp(
    graph: Graph,
    destination: Node,
    config: MultiProtocolConfig,
) -> SRP:
    """Construct the SRP for a network running BGP, OSPF and static routes."""
    protocol = MultiProtocol()
    allow = AllowAll()

    def transfer(edge: Edge, attribute: Optional[RibAttribute]) -> Optional[RibAttribute]:
        receiver, sender = edge

        # --- static: does not depend on the neighbour at all -------------
        static_attr = StaticAttribute() if edge in config.static_edges else None

        bgp_attr = None
        ospf_attr = None
        if attribute is not None:
            # --- OSPF ------------------------------------------------------
            if edge in config.ospf_edges and attribute.ospf is not None:
                cost = config.ospf_costs.get(edge, DEFAULT_LINK_COST)
                if attribute.chosen in ("ospf", "ebgp", "static") or attribute.chosen is None:
                    ospf_attr = attribute.ospf.with_added_cost(cost)

            # --- BGP -------------------------------------------------------
            if edge in config.bgp_edges:
                # Redistribution: a neighbour whose best route is OSPF can
                # still originate a BGP announcement if redistribution is on.
                neighbour_bgp = attribute.bgp
                if neighbour_bgp is None and sender in config.redistribute_ospf_into_bgp \
                        and attribute.ospf is not None:
                    neighbour_bgp = BgpAttribute()
                if neighbour_bgp is not None:
                    outgoing = config.bgp_export_policies.get(edge, allow).apply(neighbour_bgp)
                    if outgoing is not None and not outgoing.contains_as(str(receiver)):
                        outgoing = outgoing.prepended(str(sender))
                        bgp_attr = config.bgp_import_policies.get(edge, allow).apply(outgoing)

        if static_attr is None and bgp_attr is None and ospf_attr is None:
            return NO_ROUTE
        result = RibAttribute(bgp=bgp_attr, ospf=ospf_attr, static=static_attr)
        return RibAttribute(
            bgp=bgp_attr, ospf=ospf_attr, static=static_attr, chosen=result.best_protocol()
        )

    edge_policies: Dict[Edge, object] = {}
    for edge in graph.edges:
        edge_policies[edge] = (
            "multi",
            edge in config.bgp_edges,
            edge in config.ospf_edges,
            edge in config.static_edges,
            config.ospf_costs.get(edge, DEFAULT_LINK_COST),
            config.bgp_export_policies.get(edge, allow),
            config.bgp_import_policies.get(edge, allow),
        )

    node_prefs: Dict[Node, tuple] = {}
    from repro.routing.bgp import policy_local_prefs
    from repro.routing.attributes import DEFAULT_LOCAL_PREF

    for node in graph.nodes:
        prefs = {DEFAULT_LOCAL_PREF}
        for edge in graph.out_edges(node):
            prefs |= policy_local_prefs(config.bgp_import_policies.get(edge, allow))
        node_prefs[node] = tuple(sorted(prefs))

    return SRP(
        graph=graph,
        destination=destination,
        initial=protocol.initial_attribute(destination),
        prefer=protocol.prefer,
        transfer=transfer,
        protocol=protocol,
        edge_policies=edge_policies,
        node_prefs=node_prefs,
    )
