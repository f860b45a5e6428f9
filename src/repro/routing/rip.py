"""RIP (distance vector) protocol model (§3.2).

RIP routes on hop count with a maximum path length of 16: attributes are
``{0..15}``, the destination announces ``0``, the comparison relation
prefers shorter paths, and the transfer function increments the hop count,
dropping routes that exceed the limit.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.routing.attributes import NO_ROUTE, RipAttribute
from repro.routing.protocol import Protocol
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


class RipProtocol(Protocol):
    """The RIP model: shortest hop-count routing with a 15-hop limit."""

    name = "rip"

    def initial_attribute(self, destination: Node) -> RipAttribute:
        return RipAttribute(0)

    def prefer(self, a: RipAttribute, b: RipAttribute) -> bool:
        return a.hops < b.hops

    def rank(self, a: RipAttribute) -> int:
        return a.hops

    def default_transfer(
        self, edge: Edge, attribute: Optional[RipAttribute]
    ) -> Optional[RipAttribute]:
        if attribute is None:
            return NO_ROUTE
        return attribute.incremented()


def build_rip_srp(
    graph: Graph,
    destination: Node,
    link_filter: Optional[Callable[[Edge], bool]] = None,
) -> SRP:
    """Construct the SRP for RIP on ``graph`` rooted at ``destination``.

    Parameters
    ----------
    graph:
        The network topology (directed edges; use both directions for
        physical links).
    destination:
        The node originating the destination prefix.
    link_filter:
        Optional predicate on edges; when it returns ``False`` for an edge
        ``(u, v)``, routes from ``v`` are not accepted at ``u`` (modelling a
        distribute-list / interface filter).
    """
    protocol = RipProtocol()

    def transfer(edge: Edge, attribute: Optional[RipAttribute]) -> Optional[RipAttribute]:
        if link_filter is not None and not link_filter(edge):
            return NO_ROUTE
        return protocol.default_transfer(edge, attribute)

    return SRP(
        graph=graph,
        destination=destination,
        initial=protocol.initial_attribute(destination),
        prefer=protocol.prefer,
        transfer=transfer,
        protocol=protocol,
    )
