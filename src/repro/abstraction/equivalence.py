"""Building abstract SRPs and validating CP-equivalence (§4.2, §4.4).

Bonsai's guarantee is a bisimulation: every stable solution of the concrete
network corresponds to one of the abstract network and vice versa, with
related labels (label-equivalence) and related forwarding
(fwd-equivalence).  The paper proves this from the effective-abstraction
conditions; this module lets the test-suite *observe* it by

1. constructing the abstract SRP induced by an abstraction (reusing the
   representative concrete policies on each abstract edge; for a
   configured network, the representative devices' sessions), and
2. solving both SRPs and checking label- and fwd-equivalence of the
   solutions.

For BGP abstractions with case splitting, the concrete-to-abstract node
mapping is solution dependent (Theorem 4.5), so the checker verifies that
*some* assignment of concrete nodes to split copies relates the solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

from repro.abstraction.mapping import NetworkAbstraction
from repro.config.device import DeviceConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import (
    VIRTUAL_DESTINATION,
    NetworkTransfer,
    build_srp_from_network,
    compile_session,
    srp_origins,
)
from repro.routing.attributes import BgpAttribute, RibAttribute
from repro.routing.bgp import build_bgp_srp
from repro.routing.multiprotocol import MultiProtocolConfig, build_multiprotocol_srp
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import solve
from repro.topology.graph import Edge, Graph, Node


class AbstractionBuildError(Exception):
    """Raised when an abstract SRP cannot be reconstructed."""


# ----------------------------------------------------------------------
# Abstract SRP construction
# ----------------------------------------------------------------------
def _representative_edges(
    srp: SRP, abstraction: NetworkAbstraction
) -> Dict[Tuple[str, str], Edge]:
    """Pick one concrete witness edge per (base) abstract edge."""
    representatives: Dict[Tuple[str, str], Edge] = {}
    for edge in srp.graph.edges:
        abstract_edge = abstraction.f_edge(edge)
        representatives.setdefault(abstract_edge, edge)
    return representatives


def representative_view(
    abstraction: NetworkAbstraction, network: Network, prefix: Prefix
) -> Tuple[Network, Dict[str, Tuple[Node, Dict[str, Node]]]]:
    """The abstract network's devices, sessions not yet configured, and
    ``{abstract node: (representative, {abstract neighbour: witness})}``.

    The representative is the member least by ``str``, its witness the
    first ``str``-sorted concrete neighbour among the abstract
    neighbour's members (none: no session); transfer-equivalence makes
    any choice behave alike, this one is deterministic.  Each device has
    its representative's maps, lists and ACLs under the abstract name,
    which is its AS too.  The virtual destination's own node stands for
    no device and is left out."""
    abstract_graph = abstraction.abstract_graph
    devices: Dict[str, DeviceConfig] = {}
    sessions: Dict[str, Tuple[Node, Dict[str, Node]]] = {}
    for node in abstract_graph.nodes:
        members = abstraction.concrete_nodes(node) - {VIRTUAL_DESTINATION}
        if not members:
            continue
        source = min(members, key=str)
        concrete = network.devices[source]
        devices[node] = DeviceConfig(
            name=node,
            route_maps=dict(concrete.route_maps),
            community_lists=dict(concrete.community_lists),
            prefix_lists=dict(concrete.prefix_lists),
            acls=dict(concrete.acls),
        )
        # Each neighbouring group's first member among the sorted peers.
        first: Dict[str, Node] = {}
        for peer in sorted(network.graph.successors(source), key=str):
            first.setdefault(abstraction.f(peer), peer)
        sessions[node] = (source, {
            neighbour: first[abstraction.base_of(neighbour)]
            for neighbour in abstract_graph.successors(node)
            if abstraction.base_of(neighbour) in first
        })
    graph = Graph(
        devices, [(u, v) for u, v in abstract_graph.edges if u in devices and v in devices]
    )
    view = Network(graph=graph, devices=devices, name=f"{network.name}-abstract-{prefix}")
    return view, sessions


def _configured_abstract_srp(srp: SRP, abstraction: NetworkAbstraction) -> SRP:
    """A configured network's abstract SRP, straight from the partition:
    each abstract edge compiles the representatives' sessions toward
    their witnesses (:func:`representative_view`) with the receiver's
    static route and ACL verdict.  This is the SRP the emitted
    configurations compile to."""
    transfer = srp.transfer
    devices = transfer.network.devices
    view, sessions = representative_view(abstraction, transfer.network, transfer.destination)
    compiled = {}
    for edge in view.graph.edges:
        receiver, sender = edge
        source, toward = sessions[receiver]
        peer, back = sessions[sender]
        witness = toward.get(sender)
        info = compile_session(edge, devices[source], witness, devices[peer], back.get(receiver))
        concrete = transfer.compiled.get((source, witness))
        if concrete is not None and (concrete.has_static or not concrete.acl_permits):
            info = replace(info, has_static=concrete.has_static, acl_permits=concrete.acl_permits)
        compiled[edge] = info
    # Originated where the class originates, as the emitted configs say.
    class_origins = srp_origins(srp)
    return build_srp_from_network(
        view,
        transfer.destination,
        {node for node in sessions if abstraction.concrete_nodes(node) & class_origins},
        compiled=compiled,
        include_syntactic_keys=False,
        local_prefs={node: srp.prefs(source) for node, (source, _) in sessions.items()},
    )


def build_abstract_srp(srp: SRP, abstraction: NetworkAbstraction) -> SRP:
    """Construct the abstract SRP induced by ``abstraction`` on ``srp``.

    The abstract network reuses, on each abstract edge, the policy of a
    representative concrete edge (any one -- transfer-equivalence makes
    them interchangeable).  A configured network's SRP is rebuilt from
    its representative devices (:func:`representative_view`); other
    protocols whose attributes embed node names (BGP, multi-protocol) are
    rebuilt so that loop prevention operates on abstract names; the rest
    simply delegate to the representative concrete transfer function.
    """
    if isinstance(srp.transfer, NetworkTransfer):
        return _configured_abstract_srp(srp, abstraction)
    representatives = _representative_edges(srp, abstraction)
    abstract_graph = abstraction.abstract_graph
    destination = abstraction.f(srp.destination)

    def base_edge(edge: Edge) -> Tuple[str, str]:
        u, v = edge
        return (abstraction.base_of(u), abstraction.base_of(v))

    protocol_name = getattr(srp.protocol, "name", None)

    if protocol_name == "bgp":
        imports = {}
        exports = {}
        for edge in abstract_graph.edges:
            witness = representatives.get(base_edge(edge))
            if witness is None:
                continue
            policy = srp.edge_policies.get(witness)
            if policy is None or policy[0] != "bgp":
                raise AbstractionBuildError(f"missing BGP policy for edge {witness!r}")
            _, export_policy, import_policy = policy
            exports[edge] = export_policy
            imports[edge] = import_policy
        abstract = build_bgp_srp(
            abstract_graph,
            destination,
            import_policies=imports,
            export_policies=exports,
            unused_communities=getattr(srp.protocol, "unused_communities", frozenset()),
        )
        return abstract

    if protocol_name == "multi":
        config = MultiProtocolConfig()
        for edge in abstract_graph.edges:
            witness = representatives.get(base_edge(edge))
            if witness is None:
                continue
            policy = srp.edge_policies.get(witness)
            if policy is None or policy[0] != "multi":
                raise AbstractionBuildError(f"missing multi-protocol policy for {witness!r}")
            _, has_bgp, has_ospf, has_static, cost, export_policy, import_policy = policy
            if has_bgp:
                config.bgp_edges.add(edge)
                config.bgp_export_policies[edge] = export_policy
                config.bgp_import_policies[edge] = import_policy
            if has_ospf:
                config.ospf_edges.add(edge)
                config.ospf_costs[edge] = cost
            if has_static:
                config.static_edges.add(edge)
        return build_multiprotocol_srp(abstract_graph, destination, config)

    # Generic case (RIP, OSPF, static, custom protocols whose attributes do
    # not mention node names): delegate to the representative edge.
    def transfer(edge: Edge, attribute):
        witness = representatives.get(base_edge(edge))
        if witness is None:
            return None
        return srp.transfer(witness, attribute)

    edge_policies = {
        edge: srp.edge_policies.get(representatives.get(base_edge(edge)), ("default",))
        for edge in abstract_graph.edges
    }
    node_prefs = {}
    for abstract_node in abstract_graph.nodes:
        members = abstraction.concrete_nodes(abstract_node)
        prefs: Set[int] = set()
        for member in members:
            prefs.update(srp.prefs(member))
        node_prefs[abstract_node] = tuple(sorted(prefs)) if prefs else (0,)

    return SRP(
        graph=abstract_graph,
        destination=destination,
        initial=srp.initial,
        prefer=srp.prefer,
        transfer=transfer,
        protocol=srp.protocol,
        edge_policies=edge_policies,
        node_prefs=node_prefs,
    )


# ----------------------------------------------------------------------
# Attribute comparison helpers
# ----------------------------------------------------------------------
class UnmappedAsError(KeyError):
    """A label ``h`` cannot map: an AS-path element names neither a node
    of the abstraction nor an AS that one of its devices carries."""


def _h(srp: SRP, abstraction: NetworkAbstraction, label: Any) -> Any:
    """``abstraction.h(label)``, with AS-path elements that are no node --
    an AS number several devices share, as iBGP cores do -- mapped through
    the devices that carry it: to their abstraction groups, joined."""
    devices = getattr(getattr(srp.transfer, "network", None), "devices", {})
    node_map = abstraction.node_map

    def f(element):
        if element in node_map:
            return node_map[element]
        groups = {
            node_map[name]
            for name, device in devices.items()
            if device.asn == element and name in node_map
        }
        if not groups:
            raise UnmappedAsError(
                f"cannot map label {label!r}: AS-path element {element!r} "
                "names neither a node nor a device's AS"
            )
        return "|".join(sorted(groups))

    if abstraction.protocol is None:
        return label
    return abstraction.protocol.abstract_attribute(label, f)


def _labels_related(
    srp: SRP,
    abstraction: NetworkAbstraction,
    concrete_label: Any,
    abstract_label: Any,
    strict: bool,
) -> bool:
    """Whether a concrete label and an abstract label are related by ``h``.

    In strict mode the abstracted concrete label must equal the abstract
    label exactly.  In relaxed mode they only need to be equally preferred
    (``≈``), which tolerates the solver picking different but equally good
    routes on either side; for BGP this compares local preference, path
    length and (relevant) communities, which is what the preserved
    properties of §4.4 depend on.
    """
    mapped = _h(srp, abstraction, concrete_label)
    if mapped is None or abstract_label is None:
        return mapped is None and abstract_label is None
    if strict:
        return mapped == abstract_label
    if isinstance(mapped, BgpAttribute) and isinstance(abstract_label, BgpAttribute):
        return (
            mapped.local_pref == abstract_label.local_pref
            and mapped.path_length == abstract_label.path_length
            and mapped.communities == abstract_label.communities
        )
    if isinstance(mapped, RibAttribute) and isinstance(abstract_label, RibAttribute):
        if (mapped.chosen is None) != (abstract_label.chosen is None):
            return False
        bgp_ok = (mapped.bgp is None) == (abstract_label.bgp is None)
        if mapped.bgp is not None and abstract_label.bgp is not None:
            bgp_ok = (
                mapped.bgp.local_pref == abstract_label.bgp.local_pref
                and mapped.bgp.path_length == abstract_label.bgp.path_length
            )
        ospf_ok = (mapped.ospf is None) == (abstract_label.ospf is None)
        if mapped.ospf is not None and abstract_label.ospf is not None:
            ospf_ok = mapped.ospf.cost == abstract_label.ospf.cost
        static_ok = (mapped.static is None) == (abstract_label.static is None)
        return bgp_ok and ospf_ok and static_ok
    if srp.protocol is not None and hasattr(srp.protocol, "equally_preferred"):
        try:
            return srp.protocol.equally_preferred(mapped, abstract_label)
        except Exception:  # noqa: BLE001 - incomparable attribute types
            return mapped == abstract_label
    return mapped == abstract_label


#: Delivery at an origin, as a next hop: being the SRP's destination, or
#: a hop into what stands for the virtual destination (``__dest__``, or
#: the abstraction's group of it), a name the two sides need not share.
DELIVERED = "(delivered)"


# ----------------------------------------------------------------------
# Equivalence reports
# ----------------------------------------------------------------------
@dataclass
class EquivalenceReport:
    """Result of comparing a concrete and an abstract solution."""

    label_equivalent: bool
    fwd_equivalent: bool
    violations: List[str] = field(default_factory=list)

    @property
    def cp_equivalent(self) -> bool:
        return self.label_equivalent and self.fwd_equivalent


def check_solution_equivalence(
    concrete: Solution,
    abstract: Solution,
    abstraction: NetworkAbstraction,
    strict_labels: bool = False,
    max_violations: int = 10,
) -> EquivalenceReport:
    """Check label- and fwd-equivalence between two specific solutions.

    Every concrete node must relate, by label and by forwarding (next
    hops through ``f``, delivery as :data:`DELIVERED`), to its abstract
    node -- under BGP case splitting to *some* split copy of it: the
    refinement ``f_r`` of Theorem 4.5 exists iff such a copy can be found
    for every node.  The virtual destination relates to the abstract
    SRP's destination.
    """
    violations: List[str] = []
    srp = concrete.srp
    stand_ins = {VIRTUAL_DESTINATION, abstraction.node_map.get(VIRTUAL_DESTINATION)}

    def next_hops(solution: Solution, node: Node, rename: Callable[[Node], Node]) -> Set[Node]:
        if node == solution.srp.destination:
            return {DELIVERED}
        return {
            DELIVERED if v in stand_ins else rename(v) for _, v in solution.forwarding.get(node, ())
        }

    label_ok = fwd_ok = True
    for node in srp.graph.nodes:
        if node == VIRTUAL_DESTINATION:
            base = abstract.srp.destination
            copies: Tuple[Node, ...] = (base,)
        else:
            base = abstraction.f(node)
            copies = abstraction.copies_of(base)
        label = concrete.labeling.get(node)
        related = {
            copy
            for copy in copies
            if _labels_related(srp, abstraction, label, abstract.labeling.get(copy), strict_labels)
        }
        hops = next_hops(concrete, node, lambda v: abstraction.base_of(abstraction.f(v)))
        forwarding = {
            copy for copy in copies if next_hops(abstract, copy, abstraction.base_of) == hops
        }
        if related & forwarding:
            continue
        # Unsplit, labels and forwarding are judged apart; a split node
        # fails both when no one copy relates by both.
        label_ok = label_ok and len(copies) == 1 and bool(related)
        fwd_ok = fwd_ok and len(copies) == 1 and bool(forwarding)
        violations.append(
            f"{node!r} (label {label!r}, next hops {sorted(map(str, hops))}) relates to no "
            f"copy of {base!r}: labels of {sorted(related)}, forwarding of {sorted(forwarding)}"
        )
        if len(violations) >= max_violations:
            break
    return EquivalenceReport(
        label_equivalent=label_ok, fwd_equivalent=fwd_ok, violations=violations
    )


def check_bgp_solution_equivalence(
    concrete: Solution,
    abstract: Solution,
    abstraction: NetworkAbstraction,
    max_violations: int = 10,
) -> EquivalenceReport:
    """:func:`check_solution_equivalence` with equally preferred (not
    equal) labels, as a solution-dependent case split needs."""
    return check_solution_equivalence(
        concrete, abstract, abstraction, max_violations=max_violations
    )


def check_cp_equivalence(
    srp: SRP,
    abstraction: NetworkAbstraction,
    abstract_srp: Optional[SRP] = None,
    strict_labels: bool = False,
) -> EquivalenceReport:
    """Solve both networks and check that the solutions are related.

    This is the end-to-end validation used throughout the test-suite: it
    exercises the full bisimulation claim on the particular solutions the
    deterministic solver finds.  A label ``h`` cannot map is a failed
    report naming the class, the label and the reason -- not an exception.
    """
    if abstract_srp is None:
        abstract_srp = build_abstract_srp(srp, abstraction)
    concrete_solution = solve(srp)
    abstract_solution = solve(abstract_srp)
    try:
        return check_solution_equivalence(
            concrete_solution,
            abstract_solution,
            abstraction,
            # A case split relates equally preferred labels only.
            strict_labels=strict_labels and not abstraction.split_groups,
        )
    except UnmappedAsError as exc:
        destination = getattr(srp.transfer, "destination", srp.destination)
        return EquivalenceReport(False, False, [f"class {destination}: {exc.args[0]}"])
