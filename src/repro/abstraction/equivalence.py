"""Building abstract SRPs and validating CP-equivalence (§4.2, §4.4).

Bonsai's guarantee is a bisimulation: every stable solution of the concrete
network corresponds to one of the abstract network and vice versa, with
related labels (label-equivalence) and related forwarding
(fwd-equivalence).  The paper proves this from the effective-abstraction
conditions; this module lets the test-suite *observe* it by

1. constructing the abstract SRP induced by an abstraction (reusing the
   representative concrete policies on each abstract edge), and
2. solving both SRPs and checking label- and fwd-equivalence of the
   solutions.

For BGP abstractions with case splitting, the concrete-to-abstract node
mapping is solution dependent (Theorem 4.5), so the checker verifies that
*some* assignment of concrete nodes to split copies relates the solutions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.abstraction.mapping import NetworkAbstraction
from repro.routing.attributes import BgpAttribute, RibAttribute
from repro.routing.bgp import build_bgp_srp
from repro.routing.multiprotocol import MultiProtocolConfig, build_multiprotocol_srp
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import solve
from repro.topology.graph import Edge, Node


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


def build_abstract_srp(srp: SRP, abstraction: NetworkAbstraction) -> SRP:
    """Construct the abstract SRP induced by ``abstraction`` on ``srp``.

    The abstract network reuses, on each abstract edge, the policy of a
    representative concrete edge (any one -- transfer-equivalence makes
    them interchangeable).  Protocols whose attributes embed node names
    (BGP, multi-protocol) are rebuilt so that loop prevention operates on
    abstract names; other protocols simply delegate to the representative
    concrete transfer function.
    """
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

    def _has_reconstructible_policies(tag: str) -> bool:
        return all(
            isinstance(policy, tuple) and policy and policy[0] == tag
            for policy in (
                srp.edge_policies.get(representatives.get(base_edge(edge)))
                for edge in abstract_graph.edges
            )
            if policy is not None
        ) and any(srp.edge_policies.get(e) for e in srp.graph.edges)

    if protocol_name == "multi" and _has_reconstructible_policies("multi"):
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

    Only meaningful for abstractions without BGP case splitting (the node
    map is then a function); use :func:`check_bgp_solution_equivalence`
    otherwise.
    """
    violations: List[str] = []
    srp = concrete.srp
    label_ok = True
    for node in srp.graph.nodes:
        abstract_node = abstraction.f(node)
        if not _labels_related(
            srp,
            abstraction,
            concrete.labeling.get(node),
            abstract.labeling.get(abstract_node),
            strict_labels,
        ):
            label_ok = False
            violations.append(
                f"label mismatch at {node!r}: h({concrete.labeling.get(node)!r}) vs "
                f"{abstract.labeling.get(abstract_node)!r} at {abstract_node!r}"
            )
            if len(violations) >= max_violations:
                break

    fwd_ok = True
    # Direction 1: concrete forwarding edges map to abstract forwarding edges.
    for node in srp.graph.nodes:
        abstract_node = abstraction.f(node)
        abstract_next = {
            abstraction.base_of(v) for _, v in abstract.forwarding.get(abstract_node, ())
        }
        for _, neighbour in concrete.forwarding.get(node, ()):
            if abstraction.base_of(abstraction.f(neighbour)) not in abstract_next:
                fwd_ok = False
                violations.append(
                    f"forwarding mismatch: {node!r}->{neighbour!r} has no abstract "
                    f"counterpart at {abstract_node!r}"
                )
                break
    # Direction 2: abstract forwarding edges are realised by every member.
    for abstract_node in abstraction.abstract_graph.nodes:
        members = abstraction.concrete_nodes(abstract_node)
        for _, abstract_neighbour in abstract.forwarding.get(abstract_node, ()):
            target_members = abstraction.concrete_nodes(abstract_neighbour)
            for member in members:
                concrete_next = {v for _, v in concrete.forwarding.get(member, ())}
                if not concrete_next & target_members:
                    fwd_ok = False
                    violations.append(
                        f"abstract forwarding {abstract_node!r}->{abstract_neighbour!r} "
                        f"not realised at concrete {member!r}"
                    )
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
    """Equivalence check for abstractions with BGP case splitting.

    For every concrete node the checker looks for *some* split copy of its
    base abstract node whose label and forwarding relate to the concrete
    node's (the refinement ``f_r`` of Theorem 4.5 exists iff such a copy can
    be found for every node), and conversely that every copy is realised by
    some concrete node.
    """
    violations: List[str] = []
    srp = concrete.srp
    label_ok = True
    fwd_ok = True

    def copy_matches(node: Node, copy: str) -> bool:
        if not _labels_related(
            srp,
            abstraction,
            concrete.labeling.get(node),
            abstract.labeling.get(copy),
            strict=False,
        ):
            return False
        abstract_next = {
            abstraction.base_of(v) for _, v in abstract.forwarding.get(copy, ())
        }
        concrete_next = {
            abstraction.base_of(abstraction.f(v))
            for _, v in concrete.forwarding.get(node, ())
        }
        return concrete_next == abstract_next

    used_copies: Dict[str, Set[str]] = {}
    for node in srp.graph.nodes:
        base = abstraction.f(node)
        copies = abstraction.copies_of(base)
        matching = [copy for copy in copies if copy_matches(node, copy)]
        if not matching:
            label_ok = False
            fwd_ok = False
            violations.append(
                f"no split copy of {base!r} matches concrete node {node!r} "
                f"(label {concrete.labeling.get(node)!r})"
            )
            if len(violations) >= max_violations:
                break
        else:
            used_copies.setdefault(base, set()).update(matching)

    return EquivalenceReport(
        label_equivalent=label_ok, fwd_equivalent=fwd_ok, violations=violations
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
        if abstraction.split_groups:
            return check_bgp_solution_equivalence(
                concrete_solution, abstract_solution, abstraction
            )
        return check_solution_equivalence(
            concrete_solution, abstract_solution, abstraction, strict_labels=strict_labels
        )
    except UnmappedAsError as exc:
        destination = getattr(srp.transfer, "destination", srp.destination)
        return EquivalenceReport(False, False, [f"class {destination}: {exc.args[0]}"])
