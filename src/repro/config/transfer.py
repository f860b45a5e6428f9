"""Compile device configurations into SRP instances.

This module is the bridge between the vendor-independent configuration IR
(:mod:`repro.config`) and the SRP theory (:mod:`repro.srp`): given a
:class:`~repro.config.network.Network` and a destination equivalence class
(a prefix plus its originating devices), it builds the concrete SRP whose
transfer functions implement the configured route maps, static routes, OSPF
links and ACLs for that destination.

It also produces *specialized syntactic policy keys* for every edge: a
canonical, hashable summary of the edge's policy with respect to the
destination.  These keys are a drop-in alternative to the BDD keys from
:mod:`repro.bdd.policy` (the BDD keys are canonical semantically, the
syntactic keys only structurally; the ablation benchmark compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.config.device import DeviceConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import RouteMap
from repro.routing.attributes import (
    DEFAULT_LOCAL_PREF,
    NO_ROUTE,
    BgpAttribute,
    RibAttribute,
    StaticAttribute,
    trusted,
)
from repro.routing.bgp import BgpProtocol
from repro.routing.multiprotocol import MultiProtocol
from repro.routing.ospf import OspfProtocol
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node

#: Name of the virtual destination node added when several devices
#: originate the same prefix (the SRP needs a single destination vertex).
VIRTUAL_DESTINATION = "__dest__"

#: The one static-route attribute every transfer hands out (all are equal).
_STATIC = StaticAttribute()


# ----------------------------------------------------------------------
# Route-map specialization
# ----------------------------------------------------------------------
def specialize_route_map(
    route_map: Optional[RouteMap],
    device: DeviceConfig,
    destination: Prefix,
    ignore_communities: FrozenSet[str] = frozenset(),
) -> Tuple:
    """A canonical key describing ``route_map``'s behaviour for ``destination``.

    Prefix-list matches are evaluated against the destination (clauses that
    cannot match are dropped; satisfied matches are removed), community-list
    names are replaced by their value sets, and communities in
    ``ignore_communities`` are stripped from set actions.  Two route maps
    with equal keys behave identically for this destination.
    """
    if route_map is None:
        return ("permit-all",)
    clauses: List[Tuple] = []
    for clause in route_map.clauses:
        if clause.match_prefix_lists:
            permitted = any(
                device.prefix_lists[name].permits(destination)
                for name in clause.match_prefix_lists
                if name in device.prefix_lists
            )
            if not permitted:
                # This clause can never match announcements for the
                # destination; skip it entirely.
                continue
        community_values = frozenset(
            value
            for name in clause.match_community_lists
            if name in device.community_lists
            for value in device.community_lists[name].communities
        )
        clauses.append(
            (
                clause.action,
                community_values if clause.match_community_lists else None,
                clause.set_local_pref,
                frozenset(clause.set_communities) - ignore_communities,
                frozenset(clause.delete_communities),
                clause.prepend_as,
            )
        )
        if clause.action == "permit" and not clause.match_community_lists:
            # An unconditional permit terminates evaluation for every
            # announcement; later clauses are unreachable.
            break
        if clause.action == "deny" and not clause.match_community_lists:
            break
    return tuple(clauses) if clauses else ("deny-all",)


def evaluate_route_map(
    route_map: Optional[RouteMap],
    device: DeviceConfig,
    attribute: BgpAttribute,
    destination: Prefix,
) -> Optional[BgpAttribute]:
    """Run a (possibly absent) route map on an announcement.  An absent
    map, and one that denies or passes every announcement unread
    (:attr:`RouteMap.constant`), is not evaluated at all."""
    if route_map is None:
        return attribute
    if route_map.constant is not None:
        return attribute if route_map.constant == "permit" else None
    return route_map.evaluate(
        attribute,
        destination,
        device.community_lists,
        device.prefix_lists,
        device.asn or device.name,
    )


# ----------------------------------------------------------------------
# Per-edge compilation
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CompiledEdge:
    """Everything the transfer function needs to know about one edge.

    The edge is ``(u, v)`` in SRP orientation: routes flow from the
    neighbour ``v`` to the node ``u``; data traffic forwarded over this
    choice flows from ``u`` to ``v``.
    """

    edge: Edge
    has_bgp: bool = False
    ibgp: bool = False
    export_map: Optional[RouteMap] = None
    import_map: Optional[RouteMap] = None
    has_ospf: bool = False
    ospf_cost: int = 1
    has_static: bool = False
    acl_permits: bool = True

    @property
    def receiver(self) -> Node:
        return self.edge[0]

    @property
    def sender(self) -> Node:
        return self.edge[1]


def compile_session(
    edge: Edge,
    receiver_cfg: DeviceConfig,
    toward_sender: Optional[Node],
    sender_cfg: DeviceConfig,
    toward_receiver: Optional[Node],
) -> CompiledEdge:
    """The destination-independent part of ``edge``: ``receiver_cfg``'s
    BGP session and OSPF link toward ``toward_sender`` and
    ``sender_cfg``'s toward ``toward_receiver`` (the peer names the two
    configurations use; ``None``: no such neighbour)."""
    session_in = receiver_cfg.bgp_neighbors.get(toward_sender)
    session_out = sender_cfg.bgp_neighbors.get(toward_receiver) if session_in else None
    has_bgp = session_in is not None and session_out is not None
    ibgp = False
    export_map = import_map = None
    if has_bgp:
        ibgp = session_out.ibgp and session_in.ibgp
        if session_out.export_policy:
            export_map = sender_cfg.route_maps.get(session_out.export_policy)
        if session_in.import_policy:
            import_map = receiver_cfg.route_maps.get(session_in.import_policy)

    ospf = receiver_cfg.ospf_links.get(toward_sender)
    has_ospf = ospf is not None and toward_receiver in sender_cfg.ospf_links
    return CompiledEdge(
        edge=edge,
        has_bgp=has_bgp,
        ibgp=ibgp,
        export_map=export_map,
        import_map=import_map,
        has_ospf=has_ospf,
        ospf_cost=ospf.cost if has_ospf else 1,
    )


def compile_base_edges(network: Network) -> Dict[Edge, CompiledEdge]:
    """Compile the destination-*independent* part of every directed edge.

    Everything about an edge except its static route and interface-ACL
    verdict (BGP session, route maps, OSPF) is the same for every
    destination, so callers compiling many destinations (Bonsai, the batch
    verifier) build this base once and run the cheap
    :func:`specialize_compiled_edges` per destination.
    """
    devices = network.devices
    return {
        edge: compile_session(edge, devices[edge[0]], edge[1], devices[edge[1]], edge[0])
        for edge in network.graph.edges
    }


def specialize_compiled_edges(
    network: Network, destination: Prefix, base: Dict[Edge, CompiledEdge]
) -> Dict[Edge, CompiledEdge]:
    """Fix up a base compilation for one destination.

    Only edges carrying a matching static route or a configured interface
    ACL that denies the destination differ from the base, so the
    per-class cost is O(devices + affected edges) instead of O(edges).
    When none differs ``base`` itself is returned: the result is
    read-only.
    """
    overrides: Dict[Edge, CompiledEdge] = {}
    graph = network.graph
    for name, device in network.devices.items():
        if not graph.has_node(name):
            continue
        static = device.static_route_for(destination)
        if static is not None:
            edge = (name, static.next_hop)
            if edge in base:
                overrides[edge] = replace(base[edge], has_static=True)
        for sender, acl_name in device.interface_acls.items():
            acl = device.acls.get(acl_name)
            if acl is None or acl.permits(destination):
                continue
            edge = (name, sender)
            if edge in base:
                overrides[edge] = replace(overrides.get(edge, base[edge]), acl_permits=False)
    return {**base, **overrides} if overrides else base


def compile_edges(network: Network, destination: Prefix) -> Dict[Edge, CompiledEdge]:
    """Compile every directed edge of the network for one destination."""
    return specialize_compiled_edges(network, destination, compile_base_edges(network))


def syntactic_policy_keys(
    network: Network,
    destination: Prefix,
    compiled: Optional[Dict[Edge, CompiledEdge]] = None,
    ignore_communities: Optional[FrozenSet[str]] = None,
    specialize_cache: Optional[Dict] = None,
) -> Dict[Edge, Hashable]:
    """Canonical per-edge policy keys based on specialized configuration text.

    ``specialize_cache`` optionally memoises :func:`specialize_route_map`
    results per ``(route-map identity, device identity)``.  The caller
    owns the dict and must scope it to one ``(destination,
    ignore_communities)`` pair -- and keep the networks it keys alive for
    the cache's lifetime, since identity is by ``id()``.  Both identities
    matter: specialization also reads the device's prefix lists, and a
    copy-on-write edit (same device name, new object) must miss rather
    than serve the stale tuple.  Change sweeps use this to key many
    structurally-shared networks without re-specializing the unchanged
    route maps.
    """
    if compiled is None:
        compiled = compile_edges(network, destination)
    if ignore_communities is None:
        ignore_communities = network.unused_communities()

    def specialized(route_map, device: DeviceConfig) -> Tuple:
        if specialize_cache is None:
            return specialize_route_map(route_map, device, destination, ignore_communities)
        key = (id(route_map), id(device))
        result = specialize_cache.get(key)
        if result is None:
            result = specialize_cache[key] = specialize_route_map(
                route_map, device, destination, ignore_communities
            )
        return result

    keys: Dict[Edge, Hashable] = {}
    for edge, info in compiled.items():
        receiver_cfg = network.devices[info.receiver]
        sender_cfg = network.devices[info.sender]
        keys[edge] = (
            info.has_bgp,
            info.ibgp,
            specialized(info.export_map, sender_cfg),
            specialized(info.import_map, receiver_cfg),
            info.has_ospf,
            info.ospf_cost if info.has_ospf else None,
            info.has_static,
            info.acl_permits,
        )
    return keys


# ----------------------------------------------------------------------
# Transfer function
# ----------------------------------------------------------------------
@dataclass
class NetworkTransfer:
    """The transfer function of a configured network for one destination.

    This used to be a closure inside :func:`build_srp_from_network`; it is a
    class so that SRP instances (and the compression results built from
    them) can be pickled and shipped across process boundaries by the
    parallel compression pipeline (:mod:`repro.pipeline`).
    """

    network: Network
    destination: Prefix
    compiled: Dict[Edge, CompiledEdge]
    virtual_edges: FrozenSet[Edge]

    #: Bound on the transfer's one memo (sender halves, OSPF costs, RIB
    #: entries).  One destination's solve sees a bounded announcement
    #: universe, but failure sweeps drive one transfer through thousands
    #: of scenario re-solves; on overflow the memo is cleared wholesale
    #: (the ``BddManager.ite`` precedent -- correctness is unaffected,
    #: only hit rates) and ``config.eval_cache.overflows`` counts it.
    EVAL_CACHE_LIMIT = 100_000

    _COUNTER_FIELDS = ("_eval_overflows", "_sender_hits", "_sender_misses")

    def __getstate__(self):
        state = self.__dict__.copy()
        for transient in ("_eval_cache",) + self._COUNTER_FIELDS:
            state.pop(transient, None)
        return state

    def eval_cache_info(self) -> Dict:
        """Size and counters of the memo: ``overflows`` counts its clears,
        ``sender`` the sender halves' hits and misses."""
        state = self.__dict__
        return {
            "size": len(state.get("_eval_cache") or ()),
            "limit": self.EVAL_CACHE_LIMIT,
            "overflows": state.get("_eval_overflows", 0),
            "sender": {
                "hits": state.get("_sender_hits", 0),
                "misses": state.get("_sender_misses", 0),
            },
        }

    def _memo(self) -> dict:
        state = self.__dict__
        memo = state.get("_eval_cache")
        if memo is None:
            # Counters first: whoever sees the memo may count into them.
            for counter in self._COUNTER_FIELDS:
                state.setdefault(counter, 0)
            memo = state["_eval_cache"] = {}
        return memo

    def _remember(self, memo: dict, key, entry: tuple) -> tuple:
        """Store ``entry`` (clear-on-overflow).  Entries are tuples that
        hold every object whose ``id()`` is in their key, so no id is
        reused while its entry lives, and a miss reads as ``None``."""
        if len(memo) >= self.EVAL_CACHE_LIMIT:
            memo.clear()
            self.__dict__["_eval_overflows"] += 1
        memo[key] = entry
        return entry

    def _send(self, sender: Node, info: CompiledEdge, bgp: BgpAttribute):
        """The sender half of a BGP edge: what ``sender`` exports under the
        session's export map, before (``outgoing``) and after
        (``incoming``) the iBGP mark or its own AS-path prepend.  It reads
        no receiver, so every receiver of one label shares it."""
        device = self.network.devices[sender]
        outgoing = evaluate_route_map(info.export_map, device, bgp, self.destination)
        if outgoing is None:
            return bgp, info.export_map, None, None
        if info.ibgp:
            # iBGP: no AS-path change and no AS-based loop check, but the
            # receiver ranks the route below eBGP-learned ties
            # (BgpAttribute.ibgp_learned).
            return bgp, info.export_map, outgoing, outgoing.via_ibgp()
        return bgp, info.export_map, outgoing, outgoing.prepended(device.asn or str(sender))

    def offers_without_route(self, edge: Edge) -> bool:
        """Whether ``self(edge, None)`` can be a route: only a static route
        needs no announcement from the neighbour.  The solvers call the
        transfer on a ``None`` label over these edges alone."""
        info = self.compiled.get(edge)
        return info is not None and info.has_static and edge not in self.virtual_edges

    def __call__(
        self, edge: Edge, attribute: Optional[RibAttribute]
    ) -> Optional[RibAttribute]:
        if edge in self.virtual_edges:
            # Links to the virtual destination simply hand out the initial
            # announcement to each true originator.
            if attribute is None:
                return NO_ROUTE
            return attribute

        info = self.compiled.get(edge)
        if info is None:
            return NO_ROUTE

        memo = self.__dict__.get("_eval_cache")
        if memo is None:
            memo = self._memo()
        static_attr = _STATIC if info.has_static else None
        bgp_attr = ospf_attr = None
        if attribute is not None:
            ospf = attribute.ospf
            if info.has_ospf and ospf is not None:
                key = ("ospf", id(ospf), info.ospf_cost)
                entry = memo.get(key) or self._remember(
                    memo, key, (ospf, ospf.with_added_cost(info.ospf_cost))
                )
                ospf_attr = entry[1]
            bgp = attribute.bgp
            if info.has_bgp and bgp is not None:
                receiver, sender = edge
                key = ("out", sender, id(info.export_map), info.ibgp, id(bgp))
                entry = memo.get(key)
                if entry is None:
                    self.__dict__["_sender_misses"] += 1
                    entry = self._remember(memo, key, self._send(sender, info, bgp))
                else:
                    self.__dict__["_sender_hits"] += 1
                _, _, outgoing, incoming = entry
                if incoming is not None and not info.ibgp:
                    # The receiver half: AS-based loop check, then import.
                    receiver_cfg = self.network.devices[receiver]
                    if outgoing.contains_as(receiver_cfg.asn or str(receiver)):
                        incoming = None
                if incoming is not None:
                    bgp_attr = evaluate_route_map(
                        info.import_map, self.network.devices[receiver], incoming,
                        self.destination,
                    )

        if static_attr is None and bgp_attr is None and ospf_attr is None:
            return NO_ROUTE
        # One RibAttribute per (bgp, ospf, static) triple of objects, and one
        # per value among those, so equal routes reach the solver as one
        # object (interning, rank memo and forwarding read-off then hit by
        # identity).
        key = ("rib", id(bgp_attr), id(ospf_attr), id(static_attr))
        entry = memo.get(key)
        if entry is None:
            # best_protocol() by administrative distance, inlined (static 1
            # < ebgp 20 < ospf 110); the attribute is valid by construction.
            if static_attr is not None:
                chosen = "static"
            elif bgp_attr is not None:
                chosen = "ebgp"
            else:
                chosen = "ospf"
            rib = trusted(
                RibAttribute, bgp=bgp_attr, ospf=ospf_attr, static=static_attr, chosen=chosen
            )
            by_value = ("rib", rib)
            rib = (memo.get(by_value) or self._remember(memo, by_value, (rib,)))[0]
            entry = self._remember(memo, key, (bgp_attr, ospf_attr, static_attr, rib))
        return entry[3]


# ----------------------------------------------------------------------
# SRP construction
# ----------------------------------------------------------------------
def _destination_node(
    graph: Graph, origins: Set[Node]
) -> Tuple[Graph, Node, Set[Edge]]:
    """Pick (or synthesise) the single SRP destination vertex.

    With one originating device that device is the destination.  With
    several, a virtual node is attached below all of them so that the SRP
    still has a unique root; the added edges are returned so the transfer
    function can treat them as plain announcements.
    """
    if len(origins) == 1:
        return graph, next(iter(origins)), set()
    g = graph.copy()
    g.add_node(VIRTUAL_DESTINATION)
    virtual_edges: Set[Edge] = set()
    for origin in origins:
        g.add_edge(origin, VIRTUAL_DESTINATION)
        virtual_edges.add((origin, VIRTUAL_DESTINATION))
    return g, VIRTUAL_DESTINATION, virtual_edges


def srp_origins(srp: SRP) -> Set[Node]:
    """The originating devices of an SRP :func:`build_srp_from_network`
    built: those below the virtual destination, or the destination."""
    virtual = srp.transfer.virtual_edges
    return {origin for origin, _ in virtual} if virtual else {srp.destination}


def build_srp_from_network(
    network: Network,
    destination: Prefix,
    origins: Optional[Set[Node]] = None,
    ignore_communities: Optional[FrozenSet[str]] = None,
    compiled: Optional[Dict[Edge, CompiledEdge]] = None,
    include_syntactic_keys: bool = True,
    local_prefs: Optional[Dict[Node, tuple]] = None,
) -> SRP:
    """Build the concrete SRP for one destination equivalence class.

    The resulting SRP uses multi-protocol RIB attributes
    (:class:`~repro.routing.attributes.RibAttribute`) so that BGP, OSPF and
    static routes coexist exactly as described in §6.

    ``compiled`` lets a caller that has already run
    :func:`compile_edges` for this destination (e.g. Bonsai, which also
    needs the compiled edges for BDD specialization) share the result
    instead of recompiling.  ``include_syntactic_keys=False`` skips the
    specialized syntactic policy keys entirely (only the virtual
    destination edges keep a key); callers that just *solve* the SRP --
    the data-plane simulation behind the verifiers -- never read them, and
    computing the keys costs as much as a full solver round.
    ``ignore_communities`` (read by the syntactic keys alone) and
    ``local_prefs`` default to the network's ``unused_communities()`` and
    ``local_pref_values_by_device()``; a caller building many classes of
    an unchanging network derives both once.
    """
    if origins is None:
        origins = network.originators_of(destination)
    if not origins:
        raise ValueError(f"no device originates {destination}")
    graph, dest_node, virtual_edges = _destination_node(network.graph, set(origins))
    if compiled is None:
        compiled = compile_edges(network, destination)
    protocol = MultiProtocol()
    bgp = BgpProtocol()
    ospf = OspfProtocol()

    transfer = NetworkTransfer(
        network=network,
        destination=destination,
        compiled=compiled,
        virtual_edges=frozenset(virtual_edges),
    )

    edge_policies: Dict[Edge, Hashable] = (
        dict(syntactic_policy_keys(network, destination, compiled, ignore_communities))
        if include_syntactic_keys
        else {}
    )
    for edge in virtual_edges:
        edge_policies[edge] = ("virtual-destination",)

    node_prefs = local_prefs if local_prefs is not None else network.local_pref_values_by_device()
    if virtual_edges:
        node_prefs = {**node_prefs, VIRTUAL_DESTINATION: (DEFAULT_LOCAL_PREF,)}

    initial = RibAttribute(
        bgp=bgp.initial_attribute(dest_node),
        ospf=ospf.initial_attribute(dest_node),
        static=None,
        chosen="ebgp",
    )

    return SRP(
        graph=graph,
        destination=dest_node,
        initial=initial,
        prefer=protocol.prefer,
        transfer=transfer,
        protocol=protocol,
        edge_policies=edge_policies,
        node_prefs=node_prefs,
    )


def restrict_srp(srp: SRP, network: Network) -> SRP:
    """``srp`` (one :func:`build_srp_from_network` built) on ``network``, a
    failure view of its network sharing the device configurations: the
    compiled edges, origins and local preferences are filtered to what
    survives, nothing is recompiled."""
    graph = network.graph
    transfer = srp.transfer
    return build_srp_from_network(
        network,
        transfer.destination,
        {origin for origin in srp_origins(srp) if graph.has_node(origin)},
        compiled={edge: info for edge, info in transfer.compiled.items() if graph.has_edge(*edge)},
        include_syntactic_keys=False,
        local_prefs={node: prefs for node, prefs in srp.node_prefs.items() if node in graph},
    )
