"""Union-split-find: the partition data structure behind Algorithm 1.

The compression algorithm maintains a partition of the concrete nodes into
disjoint groups (the abstract nodes) and repeatedly *splits* groups as it
discovers that their members cannot share an abstract node.  This is the
opposite refinement direction from union-find, hence the paper's name
"union-split-find".

The implementation keeps, for every node, the identifier of its group and,
for every group, the set of member nodes.  Splitting a subset out of a
group is O(subset size); looking up a node's group is O(1).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Hashable, Iterable, List, Set

Node = Hashable


class PartitionError(Exception):
    """Raised on invalid partition operations."""


class UnionSplitFind:
    """A partition of a fixed node set supporting group splits."""

    def __init__(self, nodes: Iterable[Node]):
        nodes = list(nodes)
        if not nodes:
            raise PartitionError("cannot partition an empty node set")
        self._group_of: Dict[Node, int] = {}
        self._members: Dict[int, Set[Node]] = {}
        self._next_group = 0
        initial = self._new_group()
        for node in nodes:
            if node in self._group_of:
                raise PartitionError(f"duplicate node {node!r}")
            self._group_of[node] = initial
            self._members[initial].add(node)

    def _new_group(self) -> int:
        group = self._next_group
        self._next_group += 1
        self._members[group] = set()
        return group

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(self, node: Node) -> int:
        """The group identifier of ``node``."""
        try:
            return self._group_of[node]
        except KeyError as exc:
            raise PartitionError(f"unknown node {node!r}") from exc

    @property
    def group_of(self) -> Dict[Node, int]:
        """The live node -> group-id mapping.

        Exposed for hot loops (the refinement worklist) that cannot afford
        a method call per lookup; callers must treat it as read-only.
        """
        return self._group_of

    def copy(self) -> "UnionSplitFind":
        """An independent partition with the same groups and group ids."""
        clone = object.__new__(UnionSplitFind)
        clone._group_of = dict(self._group_of)
        clone._members = {group: set(members) for group, members in self._members.items()}
        clone._next_group = self._next_group
        return clone

    def renamed(self, sigma: Dict[Node, Node]) -> "UnionSplitFind":
        """A copy with each node renamed through the bijection ``sigma``."""
        clone = object.__new__(UnionSplitFind)
        clone._group_of = {sigma[node]: group for node, group in self._group_of.items()}
        clone._members = {g: set(map(sigma.__getitem__, m)) for g, m in self._members.items()}
        clone._next_group = self._next_group
        return clone

    def members(self, group: int) -> FrozenSet[Node]:
        """The nodes in ``group``."""
        if group not in self._members:
            raise PartitionError(f"unknown group {group}")
        return frozenset(self._members[group])

    def groups(self) -> List[int]:
        """All group identifiers with at least one member."""
        return [group for group, members in self._members.items() if members]

    def partitions(self) -> List[FrozenSet[Node]]:
        """The current partition as a list of frozensets."""
        return [frozenset(members) for members in self._members.values() if members]

    def num_groups(self) -> int:
        return sum(1 for members in self._members.values() if members)

    def nodes(self) -> List[Node]:
        return list(self._group_of.keys())

    def __len__(self) -> int:
        return self.num_groups()

    def __contains__(self, node: Node) -> bool:
        return node in self._group_of

    # ------------------------------------------------------------------
    # Splitting
    # ------------------------------------------------------------------
    def split(self, nodes: Iterable[Node]) -> int:
        """Move ``nodes`` into a fresh group.

        All nodes must currently belong to the same group.  Splitting an
        entire group (or an empty set) is a no-op and returns the existing
        group id.  Returns the group id now containing ``nodes``.
        """
        subset = set(nodes)
        if not subset:
            raise PartitionError("cannot split an empty subset")
        groups = {self.find(node) for node in subset}
        if len(groups) != 1:
            raise PartitionError(f"nodes {sorted(map(str, subset))} span multiple groups")
        source = groups.pop()
        if subset == self._members[source]:
            return source
        target = self._new_group()
        for node in subset:
            self._members[source].discard(node)
            self._members[target].add(node)
            self._group_of[node] = target
        return target

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def canonical_names(self, prefix: str = "abs") -> Dict[Node, str]:
        """Stable, human-readable abstract node names.

        Groups are numbered in order of their smallest member's string
        representation, so renaming is deterministic across runs.
        """
        ordered = sorted(
            (members for members in self._members.values() if members),
            key=lambda members: min(str(node) for node in members),
        )
        names: Dict[Node, str] = {}
        for index, members in enumerate(ordered):
            label = f"{prefix}{index}"
            for node in members:
                names[node] = label
        return names
