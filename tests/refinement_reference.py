"""The full-rescan refinement loop: the oracle the worklist form is tested against.

``repro.abstraction.refinement.find_abstraction_partition`` re-signs only
the nodes whose neighbours moved.  The loop here re-examines *every* group
on every pass, as the first implementation did, and is kept unoptimised so
tests can check that both reach the identical partition.
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Set, Tuple

from repro.abstraction.partition import UnionSplitFind
from repro.abstraction.refinement import _node_prefs
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


def split_by_key(
    partition: UnionSplitFind, group: int, key_of: Dict[Node, Hashable]
) -> List[int]:
    """Split ``group`` so that members with different keys are separated.

    Returns the list of resulting group ids (the original id is reused
    for one of the key classes).  Members missing from ``key_of`` get a
    distinct key of their own.
    """
    members = partition.members(group)
    buckets: Dict[Hashable, Set[Node]] = {}
    for node in members:
        buckets.setdefault(key_of.get(node, ("__missing__", node)), set()).add(node)
    if len(buckets) <= 1:
        return [group]
    # Keep the largest bucket in place and split the rest out.
    ordered = sorted(buckets.values(), key=len, reverse=True)
    return [group] + [partition.split(bucket) for bucket in ordered[1:]]


def _refine_group(
    graph: Graph,
    policy_keys: Dict[Edge, Hashable],
    partition: UnionSplitFind,
    group: int,
    use_concrete_neighbours: bool,
) -> int:
    """One call of the paper's ``Refine`` procedure on one abstract node.

    Each member node is summarised by the set of ``(policy, neighbour)``
    pairs over its outgoing and incoming edges, where ``neighbour`` is the
    concrete neighbour for BGP nodes with several local preferences (the
    ∀∀ condition) and the neighbour's abstract node otherwise (∀∃).
    Members with different summaries are split apart.

    Returns the number of new groups created.
    """
    signature: Dict[Node, Hashable] = {}
    for node in partition.members(group):
        pairs = set()
        for edge in graph.out_edges(node):
            policy = policy_keys.get(edge, ("default",))
            target = edge[1] if use_concrete_neighbours else partition.find(edge[1])
            pairs.add(("out", policy, target))
        # The key of an edge (w, u) contains u's *export* policy towards
        # w, so incoming edges are summarised too.
        for edge in graph.in_edges(node):
            policy = policy_keys.get(edge, ("default",))
            origin = edge[0] if use_concrete_neighbours else partition.find(edge[0])
            pairs.add(("in", policy, origin))
        signature[node] = frozenset(pairs)
    return len(split_by_key(partition, group, signature)) - 1


def find_abstraction_partition_reference(
    srp: SRP,
    policy_keys: Optional[Dict[Edge, Hashable]] = None,
    max_iterations: int = 10_000,
) -> Tuple[UnionSplitFind, int]:
    """The original full-rescan refinement loop: every group, every pass."""
    graph = srp.graph
    keys = policy_keys if policy_keys is not None else {
        edge: srp.policy_key(edge) for edge in graph.edges
    }

    partition = UnionSplitFind(graph.nodes)
    partition.split({srp.destination})

    iterations = 0
    for _ in range(max_iterations):
        iterations += 1
        before = partition.num_groups()
        for group in list(partition.groups()):
            members = partition.members(group)
            if len(members) <= 1:
                continue
            _refine_group(
                graph,
                keys,
                partition,
                group,
                use_concrete_neighbours=len(_node_prefs(srp, members)) > 1,
            )
        if partition.num_groups() == before:
            if not split_transfer_violations(graph, keys, partition):
                break
    return partition, iterations


def split_transfer_violations(
    graph: Graph,
    policy_keys: Dict[Edge, Hashable],
    partition: UnionSplitFind,
) -> List[Node]:
    """Split groups whose members apply different policies towards the same
    abstract neighbour group.  Returns the nodes moved to new groups.

    The reference loop's safety net: at a signature fixed point it cannot
    fire (no parallel edges, and the ``(policy, target)`` pairs a group
    agrees on determine its per-target policy sets); a property test pins it.
    """
    group_of = partition.group_of
    default_key = ("default",)
    moved: List[Node] = []
    for group in list(partition.groups()):
        members = partition.members(group)
        if len(members) <= 1:
            continue
        signature: Dict[Node, Hashable] = {}
        for node in members:
            per_target: Dict[int, set] = {}
            for edge in graph.out_edges(node):
                per_target.setdefault(group_of[edge[1]], set()).add(
                    policy_keys.get(edge, default_key)
                )
            signature[node] = frozenset(
                (target, frozenset(keys)) for target, keys in per_target.items()
            )
        for new_group in split_by_key(partition, group, signature)[1:]:
            moved.extend(partition.members(new_group))
    return moved
