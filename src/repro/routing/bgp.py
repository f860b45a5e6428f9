"""eBGP (path vector) protocol model (§3.2, §4.3).

BGP attributes are ``(local-pref, communities, AS path)`` tuples.  The
comparison relation prefers higher local preference, breaking ties on
shorter AS path.  The transfer function along an edge ``(u, v)`` (routes
flow from the neighbour ``v`` towards ``u``):

1. applies ``v``'s *export* policy for the interface facing ``u``,
2. prepends ``v`` to the AS path (each router is its own AS, as in large
   data centres),
3. drops the route if ``u`` already appears in the path (loop prevention),
4. applies ``u``'s *import* policy for the interface facing ``v``.

Loop prevention is what makes BGP need the stronger *BGP-effective*
abstraction conditions (∀∀-abstraction + transfer-approx) and the
local-preference-bounded case splitting of Theorem 4.4.

Policies are expressed with small immutable :class:`BgpPolicy` objects so
that structural equality doubles as a canonical policy key when no BDD
encoding is requested.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

from repro.routing.attributes import DEFAULT_LOCAL_PREF, NO_ROUTE, BgpAttribute
from repro.routing.protocol import Protocol
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


class BgpProtocol(Protocol):
    """The eBGP model with loop prevention."""

    name = "bgp"

    def __init__(self, unused_communities: FrozenSet[str] = frozenset()):
        #: Communities that are attached somewhere but never matched on;
        #: the attribute abstraction ``h`` strips them (§8, real networks).
        self.unused_communities = frozenset(unused_communities)

    def initial_attribute(self, destination: Node) -> BgpAttribute:
        return BgpAttribute(local_pref=DEFAULT_LOCAL_PREF, communities=frozenset(), as_path=())

    def prefer(self, a: BgpAttribute, b: BgpAttribute) -> bool:
        """Higher local-pref wins; ties broken on shorter AS path, then on
        eBGP-learned over iBGP-learned (the standard decision process)."""
        if a.local_pref != b.local_pref:
            return a.local_pref > b.local_pref
        if a.path_length != b.path_length:
            return a.path_length < b.path_length
        return (not a.ibgp_learned) and b.ibgp_learned

    def rank(self, a: BgpAttribute) -> Tuple[int, int, bool]:
        return (-a.local_pref, len(a.as_path), a.ibgp_learned)

    def default_transfer(
        self, edge: Edge, attribute: Optional[BgpAttribute]
    ) -> Optional[BgpAttribute]:
        if attribute is None:
            return NO_ROUTE
        receiver, sender = edge
        if attribute.contains_as(str(receiver)):
            return NO_ROUTE
        return attribute.prepended(str(sender))

    def abstract_attribute(self, attribute, node_map):
        """The BGP attribute abstraction ``h``: map the AS path through ``f``
        and strip communities known to be unused."""
        if attribute is None:
            return None
        path = tuple(str(node_map(node)) for node in attribute.as_path)
        return BgpAttribute(
            local_pref=attribute.local_pref,
            communities=attribute.communities - self.unused_communities,
            as_path=path,
            ibgp_learned=attribute.ibgp_learned,
        )


# ----------------------------------------------------------------------
# Policy atoms
# ----------------------------------------------------------------------
class BgpPolicy:
    """Base class for per-interface BGP policies.

    A policy takes an announcement and returns the transformed announcement
    or ``None`` to deny it.  Policies are immutable values: equality and
    hashing give a (syntactic) canonical key usable by the abstraction
    refinement when no BDD encoding is built.
    """

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        raise NotImplementedError


@dataclass(frozen=True)
class AllowAll(BgpPolicy):
    """The identity policy: accept the announcement unchanged."""

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        return attribute


@dataclass(frozen=True)
class DenyAll(BgpPolicy):
    """Deny every announcement (e.g. a prefix filter that never matches)."""

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        return NO_ROUTE


@dataclass(frozen=True)
class SetLocalPref(BgpPolicy):
    """Set the local preference, optionally only when a community matches.

    When ``match_any_community`` is empty the preference is set
    unconditionally; otherwise it is set only if the announcement carries at
    least one of the listed communities (announcements without a match pass
    through unchanged).
    """

    local_pref: int
    match_any_community: FrozenSet[str] = frozenset()

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        if self.match_any_community and not (attribute.communities & self.match_any_community):
            return attribute
        return attribute.with_local_pref(self.local_pref)


@dataclass(frozen=True)
class AddCommunity(BgpPolicy):
    """Attach a community tag to the announcement."""

    community: str

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        return attribute.with_community(self.community)


@dataclass(frozen=True)
class RemoveCommunity(BgpPolicy):
    """Strip a community tag from the announcement."""

    community: str

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        return attribute.without_community(self.community)


@dataclass(frozen=True)
class FilterCommunity(BgpPolicy):
    """Deny announcements carrying any of the given communities."""

    deny_communities: FrozenSet[str]

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        if attribute.communities & self.deny_communities:
            return NO_ROUTE
        return attribute


@dataclass(frozen=True)
class PrependAs(BgpPolicy):
    """Prepend an AS ``count`` extra times (path inflation for traffic steering)."""

    asn: str
    count: int = 1

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        result = attribute
        for _ in range(self.count):
            result = result.prepended(self.asn)
        return result


@dataclass(frozen=True)
class Chain(BgpPolicy):
    """Apply a sequence of policies in order, stopping on the first denial."""

    policies: Tuple[BgpPolicy, ...] = ()

    def apply(self, attribute: BgpAttribute) -> Optional[BgpAttribute]:
        result: Optional[BgpAttribute] = attribute
        for policy in self.policies:
            if result is None:
                return NO_ROUTE
            result = policy.apply(result)
        return result


def chain(*policies: BgpPolicy) -> Chain:
    """Convenience constructor for :class:`Chain`."""
    return Chain(tuple(policies))


# ----------------------------------------------------------------------
# SRP construction
# ----------------------------------------------------------------------
def policy_local_prefs(policy: BgpPolicy) -> FrozenSet[int]:
    """The local-preference values a policy can assign (excluding the default)."""
    values = set()
    if isinstance(policy, SetLocalPref):
        values.add(policy.local_pref)
    elif isinstance(policy, Chain):
        for sub in policy.policies:
            values |= policy_local_prefs(sub)
    return frozenset(values)


def build_bgp_srp(
    graph: Graph,
    destination: Node,
    import_policies: Optional[Dict[Edge, BgpPolicy]] = None,
    export_policies: Optional[Dict[Edge, BgpPolicy]] = None,
    unused_communities: Iterable[str] = (),
    loop_prevention: bool = True,
) -> SRP:
    """Construct the SRP for an eBGP network.

    Parameters
    ----------
    import_policies:
        Policy applied at the *receiving* router ``u`` of edge ``(u, v)``
        after loop checking (keyed by the edge ``(u, v)``).
    export_policies:
        Policy applied at the *sending* router ``v`` of edge ``(u, v)``
        before the AS path is extended (keyed by the same edge ``(u, v)``).
    unused_communities:
        Communities the attribute abstraction should ignore.
    loop_prevention:
        Set to ``False`` to model the paper's "BGP without loop prevention"
        (used in proofs and in tests of transfer-equivalence).
    """
    protocol = BgpProtocol(unused_communities=frozenset(unused_communities))
    imports = import_policies or {}
    exports = export_policies or {}
    allow = AllowAll()

    def transfer(edge: Edge, attribute: Optional[BgpAttribute]) -> Optional[BgpAttribute]:
        if attribute is None:
            return NO_ROUTE
        receiver, sender = edge
        outgoing = exports.get(edge, allow).apply(attribute)
        if outgoing is None:
            return NO_ROUTE
        if loop_prevention and outgoing.contains_as(str(receiver)):
            return NO_ROUTE
        outgoing = outgoing.prepended(str(sender))
        incoming = imports.get(edge, allow).apply(outgoing)
        if incoming is None:
            return NO_ROUTE
        return incoming

    edge_policies: Dict[Edge, object] = {}
    for edge in graph.edges:
        edge_policies[edge] = (
            "bgp",
            exports.get(edge, allow),
            imports.get(edge, allow),
        )

    node_prefs: Dict[Node, tuple] = {}
    for node in graph.nodes:
        prefs = {DEFAULT_LOCAL_PREF}
        for edge in graph.out_edges(node):
            prefs |= policy_local_prefs(imports.get(edge, allow))
        for edge in graph.in_edges(node):
            # Export policies of this node live on in-edges (u, node).
            prefs |= policy_local_prefs(exports.get(edge, allow))
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
