"""The abstraction-refinement algorithm (Algorithm 1, §5).

Starting from the coarsest possible abstraction -- the destination alone in
one abstract node, everything else in another -- the algorithm repeatedly
splits abstract nodes whose members disagree on either

* the policies they apply on their edges (transfer-equivalence), or
* the abstract (respectively concrete, for BGP nodes with several local
  preference values) neighbours those edges lead to (the topological
  ∀∃ / ∀∀ conditions),

until a full pass makes no progress.  Finally, abstract nodes whose members
can assign more than one local-preference value are split into one copy per
value (Theorem 4.4), which is what lets the compressed network represent
every forwarding behaviour BGP loop prevention can force.

The algorithm is purely structural: it needs the topology, a canonical
policy key per edge (a BDD identifier in the full pipeline, or a syntactic
key), and the per-node local-preference sets.  It never simulates the
network.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Set, Tuple

from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.partition import UnionSplitFind
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


@dataclass
class RefinementResult:
    """The outcome of running abstraction refinement on one SRP."""

    abstraction: NetworkAbstraction
    partition: UnionSplitFind
    iterations: int
    elapsed_seconds: float
    split_counts: Dict[str, int] = field(default_factory=dict)

    @property
    def num_abstract_nodes(self) -> int:
        return self.abstraction.num_abstract_nodes()

    @property
    def num_abstract_edges(self) -> int:
        return self.abstraction.num_abstract_edges()


def _node_prefs(srp: SRP, nodes: FrozenSet[Node]) -> FrozenSet[int]:
    """The union of local-preference values over a group of concrete nodes."""
    values = set()
    for node in nodes:
        values.update(srp.prefs(node))
    return frozenset(values)


class ClassFamily(dict):
    """An interned per-edge policy-key map, and with it a *class family*.

    Destination classes of one network that specialise to the same key
    map (and share its local-preference map) differ by nothing but the
    destination node.  What refinement derives from the keys alone is
    built once, on first use, and kept here: the per-node edge summaries
    and, from the second class on, the *base partition* -- the same
    refinement with no destination distinguished.  Pass the family
    itself as ``policy_keys``; it must not be mutated.
    """

    #: Refinements started from this family's inputs.
    refinements = 0
    #: The graph the inputs were built for (``None``: not built yet).
    graph: Optional[Graph] = None
    #: ``(family with built inputs, removed edges)`` of :meth:`without`.
    origin: Optional[Tuple["ClassFamily", FrozenSet[Edge]]] = None

    def without(self, removed: FrozenSet[Edge]) -> "ClassFamily":
        """This family's keys on the same graph less the ``removed`` edges;
        inputs this family has built are patched by :meth:`over`, not rebuilt."""
        derived = ClassFamily({edge: key for edge, key in self.items() if edge not in removed})
        if self.graph is not None:
            derived.origin = (self, removed)
        return derived

    def over(self, srp: SRP) -> "ClassFamily":
        """This family, its inputs built for ``srp``'s graph and local
        preferences -- or a one-off copy if they were built for others."""
        graph = srp.graph
        if self.graph is not None:
            same = (self.graph, self.version, self.prefs) == (graph, graph.version, srp.node_prefs)
            return self if same else ClassFamily(self).over(srp)
        self.graph, self.version, self.prefs = graph, graph.version, srp.node_prefs
        default_key = ("default",)
        #: Per node, its incident edges as parallel tuples: each edge's
        #: (direction, policy) -- numbered, so that signing a node does
        #: not hash policy keys again -- and the neighbour it leads to.
        self.edge_summary: Dict[Node, Tuple[Tuple, Tuple]] = {}
        #: The neighbours whose group movement changes a node's signature.
        self.neighbours_of: Dict[Node, Tuple] = {}
        #: Their union over a group decides its ∀∀ vs ∀∃ condition.
        self.pref_sets: Dict[Node, FrozenSet[int]] = {}
        self.numbers: Dict[Tuple, int] = {}
        nodes = graph.nodes
        parent, removed = self.origin or (None, None)
        if (
            parent is not None
            and parent.prefs == srp.node_prefs
            and parent.graph.num_nodes() == graph.num_nodes()
        ):
            # Same nodes, same keys, same preferences: only the endpoints
            # of the removed edges are summarised differently.
            self.edge_summary.update(parent.edge_summary)
            self.neighbours_of.update(parent.neighbours_of)
            self.pref_sets.update(parent.pref_sets)
            self.numbers = parent.numbers  # read only: no edge is new
            nodes = {node for edge in removed for node in edge}
        numbers = self.numbers
        for node in nodes:
            out_edges, in_edges = graph.out_edges(node), graph.in_edges(node)
            # Incoming edges count too: the key of an edge (w, u) contains
            # u's *export* policy towards w, so without them two nodes whose
            # own export policies differ could be merged.
            policies = [("out", self.get(edge, default_key)) for edge in out_edges]
            policies += [("in", self.get(edge, default_key)) for edge in in_edges]
            ends = tuple(edge[1] for edge in out_edges) + tuple(edge[0] for edge in in_edges)
            numbered = tuple(numbers.setdefault(policy, len(numbers)) for policy in policies)
            self.edge_summary[node] = (numbered, ends)
            self.neighbours_of[node] = tuple(set(ends))
            self.pref_sets[node] = frozenset(srp.prefs(node))
        #: With at most one local-preference value no group ever needs the
        #: ∀∀ condition: signatures only name neighbour groups, the coarsest
        #: stable partition below any start is unique, and the destination-
        #: free fixed point is coarser than every class's.  With more, the
        #: condition depends on group membership and that argument fails:
        #: every class then starts from the trivial partition.
        self.single_pref = len(frozenset().union(*self.pref_sets.values())) <= 1
        self.base: Optional[UnionSplitFind] = None
        return self

    def start(self, destination: Node) -> Tuple[UnionSplitFind, Dict[int, Set[Node]]]:
        """The partition one class starts from and, per group, the members
        whose signature is not yet known to equal their group's.

        The first class (a family seen once never pays for a base) and
        every class under several local-preference values start from
        {destination} / {the rest}, nothing signed.  Later ones copy the
        base, split the destination off and re-sign only its neighbours.
        """
        self.refinements += 1
        if not self.single_pref or self.refinements == 1:
            partition = UnionSplitFind(self.graph.nodes)
            partition.split({destination})
            return partition, {g: set(partition.members(g)) for g in partition.groups()}
        if self.base is None:
            self.base = UnionSplitFind(self.graph.nodes)
            _refine(self, self.base, {0: set(self.graph.nodes)}, 10_000)
        partition = self.base.copy()
        partition.split({destination})
        touched: Dict[int, Set[Node]] = {}
        for neighbour in self.neighbours_of[destination]:
            touched.setdefault(partition.group_of[neighbour], set()).add(neighbour)
        return partition, touched


def _refine(
    family: ClassFamily,
    partition: UnionSplitFind,
    touched: Dict[int, Set[Node]],
    max_iterations: int,
) -> int:
    """Split ``partition`` until every group's members share a signature.

    ``touched`` maps a group to the members whose signature may differ
    from the rest of their group; the untouched members of a group always
    share one signature, so one of them stands witness for all.  A pass
    signs the touched nodes of every listed group, splits those that
    disagree into new groups, and touches the neighbours of every node
    that moved -- only their signatures name a group that changed.
    Returns the number of passes.
    """
    edge_summary, neighbours_of = family.edge_summary, family.neighbours_of
    group_of = partition.group_of
    iterations = 0
    while touched and iterations < max_iterations:
        iterations += 1
        current, touched = touched, {}
        for group in sorted(current):
            # Nodes touched earlier in this very pass must be signed now:
            # they are no witness for the signature their group had.
            nodes = current[group] | touched.pop(group, set())
            members = partition.members(group)
            if len(members) <= 1:
                continue
            use_concrete = not family.single_pref and len(
                frozenset().union(*(family.pref_sets[node] for node in members))
            ) > 1
            witness = next((node for node in members if node not in nodes), None)
            buckets: Dict[Hashable, List[Node]] = {}
            for node in nodes if witness is None else (witness, *nodes):
                policies, ends = edge_summary[node]
                if not use_concrete:
                    ends = map(group_of.__getitem__, ends)
                buckets.setdefault(frozenset(zip(policies, ends)), []).append(node)
            if len(buckets) == 1:
                continue
            if witness is not None:
                # Every untouched member is signed like the witness (first).
                next(iter(buckets.values())).extend(members - nodes - {witness})
            # The largest bucket stays in place: the fewest nodes move, and
            # only a moved node's neighbours need signing again.
            stay = max(buckets.values(), key=len)
            affected: Set[Node] = set()
            for bucket in buckets.values():
                if bucket is not stay:
                    partition.split(bucket)
                    affected.update(*(neighbours_of[node] for node in bucket))
            for neighbour in affected:
                touched.setdefault(group_of[neighbour], set()).add(neighbour)
    return iterations


def find_abstraction_partition(
    srp: SRP,
    policy_keys: Optional[Dict[Edge, Hashable]] = None,
    max_iterations: int = 10_000,
) -> Tuple[UnionSplitFind, int]:
    """Compute the pre-split partition (Algorithm 1 up to the fixed point).

    This is the *touched-node worklist* form (:func:`_refine`): a node is
    only re-signed when a neighbour moved to a different group.  A
    :class:`ClassFamily` as ``policy_keys`` shares its inputs and base
    partition with the family's other classes; any other mapping is a
    family of one.  The fixed point -- the coarsest partition below the
    start that is stable under the signature function -- is independent
    of the examination order, so the result is identical to the
    full-rescan loop the tests keep as their oracle.

    Returns the partition and the number of worklist passes from the start.
    """
    keys = policy_keys if policy_keys is not None else {
        edge: srp.policy_key(edge) for edge in srp.graph.edges
    }
    family = (keys if isinstance(keys, ClassFamily) else ClassFamily(keys)).over(srp)
    partition, touched = family.start(srp.destination)
    return partition, _refine(family, partition, touched, max_iterations)


def split_into_bgp_cases(
    srp: SRP, partition: UnionSplitFind, names: Optional[Dict[Node, str]] = None
) -> Dict[str, Tuple[str, ...]]:
    """The final ``SplitIntoBGPCases`` step of Algorithm 1.

    Every abstract node whose members can assign ``k > 1`` local-preference
    values is split into ``min(k, |members|)`` copies; the mapping of
    concrete nodes to copies is solution-dependent (Theorem 4.5), so the
    copies share the base group's concrete members.  ``names`` is
    ``partition.canonical_names()``, when the caller already has it.

    Returns the ``split_groups`` dictionary consumed by
    :class:`~repro.abstraction.mapping.NetworkAbstraction`.
    """
    if names is None:
        names = partition.canonical_names()
    split_groups: Dict[str, Tuple[str, ...]] = {}
    for group in partition.groups():
        members = partition.members(group)
        prefs = _node_prefs(srp, members)
        copies_needed = min(len(prefs), len(members))
        if copies_needed <= 1 or srp.destination in members:
            continue
        base = names[next(iter(members))]
        split_groups[base] = tuple(
            f"{base}_case{i}" for i in range(copies_needed)
        )
    return split_groups


def compute_abstraction(
    srp: SRP,
    policy_keys: Optional[Dict[Edge, Hashable]] = None,
    bgp_case_split: bool = True,
    max_iterations: int = 10_000,
) -> RefinementResult:
    """Run the complete compression algorithm on one SRP.

    Parameters
    ----------
    policy_keys:
        Canonical per-edge policy keys.  Defaults to the SRP's own
        ``edge_policies`` (syntactic keys); pass the specialized BDD keys
        from :class:`repro.bdd.policy.PolicyBddEncoder` for the full
        pipeline.
    bgp_case_split:
        Whether to perform the final local-preference case splitting.
        Disabling it reproduces the *unsound* naive abstraction of
        Figure 2(b) and is used by tests and the ablation benchmarks.
    """
    start = time.perf_counter()
    partition, iterations = find_abstraction_partition(srp, policy_keys, max_iterations)
    names = partition.canonical_names()
    split_groups = split_into_bgp_cases(srp, partition, names) if bgp_case_split else {}
    abstraction = NetworkAbstraction.from_node_map(
        srp.graph,
        names,
        protocol=srp.protocol,
        split_groups=split_groups,
    )
    elapsed = time.perf_counter() - start
    split_counts = {base: len(copies) for base, copies in split_groups.items()}
    return RefinementResult(
        abstraction=abstraction,
        partition=partition,
        iterations=iterations,
        elapsed_seconds=elapsed,
        split_counts=split_counts,
    )
