"""Control-plane simulation to a data plane (the Batfish-style substrate).

Downstream analyses (reachability queries, the verification benchmarks)
need the forwarding state a network converges to.  This module simulates
the control plane of a configured network -- per destination equivalence
class -- and materialises per-destination forwarding tables, applying the
configured data-plane ACLs on the forwarding edges.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Set, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import VIRTUAL_DESTINATION, build_srp_from_network
from repro.srp.solution import Solution
from repro.srp.solver import solve
from repro.topology.graph import Edge, Node


class PathLimitExceeded(Exception):
    """:meth:`ForwardingTable.all_paths` met more paths than its bound."""


@dataclass
class ForwardingTable:
    """Per-destination forwarding state of the whole network.

    ``next_hops[node]`` is the set of neighbours ``node`` forwards traffic
    for the destination to; an empty set means the traffic is dropped
    (no route, or every forwarding edge blocked by an ACL).  A plain
    value: nothing is cached on it.
    """

    destination: Prefix
    origins: Set[Node]
    next_hops: Dict[Node, Set[Node]] = field(default_factory=dict)
    acl_blocked: Set[Edge] = field(default_factory=set)

    def delivers(self, node: Node) -> bool:
        """Whether the destination is attached at ``node``."""
        return node in self.origins

    def reachable(self, source: Node) -> bool:
        """Whether traffic from ``source`` reaches an originating device."""
        return self.path_outcome(source)[0] == "delivered"

    def path_outcome(self, source: Node) -> Tuple[str, List[Node]]:
        """Follow forwarding from ``source``.

        Returns ``(outcome, path)`` where outcome is ``"delivered"``,
        ``"blackhole"`` (dropped), or ``"loop"`` (the path then ends at the
        first repeated node).  Multipath forwarding is followed along the
        lexicographically smallest next hop; :meth:`iter_paths` walks the
        full set.
        """
        path = [source]
        node = source
        while not self.delivers(node):
            hops = self.next_hops.get(node)
            if not hops:
                return "blackhole", path
            node = min(hops, key=str)
            looped = node in path
            path.append(node)
            if looped:
                return "loop", path
        return "delivered", path

    def _onward(self, node: Node) -> Optional[Iterator[Node]]:
        """The next hops of ``node`` in name order; ``None`` where a path
        ends (an originating device, or nowhere to forward to)."""
        hops = None if node in self.origins else self.next_hops.get(node)
        return iter(sorted(hops, key=str)) if hops else None

    def iter_paths(
        self, source: Node, admit: Callable[[Node, int], bool] = lambda hop, hops: True
    ) -> Iterator[List[Node]]:
        """Every forwarding path (under multipath) from ``source``,
        depth-first with next hops in name order.

        A path ends at an originating device, at a node with no next hop,
        or at the first node it repeats (a loop; that node appears twice).
        ``admit(hop, hops)`` prunes: the walk steps to a not yet visited
        ``hop`` (the path's ``hops``-th) only if it says so.  The property
        checks pass what :class:`ForwardingFacts` knows, so the first path
        with the ending they look for is found without enumerating the
        paths before it.
        """
        path = [source]
        pending = [self._onward(source)]
        if pending[0] is None:
            yield path
            return
        while pending:
            for hop in pending[-1]:
                if hop in path:
                    yield path + [hop]
                elif admit(hop, len(path)):
                    onward = self._onward(hop)
                    if onward is None:
                        yield path + [hop]
                    else:
                        path.append(hop)
                        pending.append(onward)
                        break
            else:
                pending.pop()
                path.pop()

    def all_paths(self, source: Node, max_paths: int = 1000) -> List[List[Node]]:
        """The explicitly bounded enumerator: every path of
        :meth:`iter_paths`, or :class:`PathLimitExceeded` when there are
        more than ``max_paths``.  No registered property depends on it."""
        paths: List[List[Node]] = []
        for path in self.iter_paths(source):
            if len(paths) == max_paths:
                raise PathLimitExceeded(
                    f"more than {max_paths} forwarding paths from {source!r}"
                )
            paths.append(path)
        return paths


class ForwardingFacts:
    """One O(V + E) analysis of a table's forwarding graph, from which
    every registered property is decided per node without walking.

    Originating devices are sinks (a path ends where it is delivered); a
    *black hole* is any other node with no next hop, whether or not it is
    a key of ``next_hops``.  A node the table never mentions is one too,
    which is why the sets below are phrased so that absence means that.
    """

    def __init__(self, table: ForwardingTable):
        origins = table.origins
        hops_of = {
            node: () if node in origins else hops
            for node, hops in table.next_hops.items()
        }
        for node in origins.union(*hops_of.values()):
            hops_of.setdefault(node, ())
        #: ``node -> the nodes forwarding to it`` (origins forward nowhere).
        self.preds: Dict[Node, List[Node]] = {node: [] for node in hops_of}
        for node, hops in hops_of.items():
            for hop in hops:
                self.preds[hop].append(node)

        # Peel from the sinks (Kahn): a node is peeled once all its next
        # hops are.  What is never peeled reaches a cycle.
        unpeeled = {node: len(hops) for node, hops in hops_of.items()}
        order = [node for node, count in unpeeled.items() if not count]
        #: Longest delivered path, in hops, of the peeled nodes having one.
        self.longest: Dict[Node, int] = {}
        for node in order:
            if node in origins:
                self.longest[node] = 0
            else:
                onward = [self.longest[hop] for hop in hops_of[node] if hop in self.longest]
                if onward:
                    self.longest[node] = 1 + max(onward)
            for pred in self.preds[node]:
                unpeeled[pred] -= 1
                if not unpeeled[pred]:
                    order.append(pred)
        #: Nodes with a path into a forwarding cycle.
        self.cyclic: Set[Node] = {node for node, count in unpeeled.items() if count}

        #: Nodes with some delivered path.
        self.delivering = self.closure(origins)
        dropping = self.closure(
            node for node, hops in hops_of.items() if not hops and node not in origins
        )
        #: Nodes with no path to a black hole.
        self.drop_free: Set[Node] = hops_of.keys() - dropping
        #: Nodes every path of which is delivered.
        self.all_delivered: Set[Node] = self.drop_free - self.cyclic

        #: ``ForwardingTable.path_outcome(node)[0]`` (black holes themselves
        #: are left out): follow the smallest next hop, chains memoised.
        self.outcome: Dict[Node, str] = dict.fromkeys(origins, "delivered")
        for start, hops in hops_of.items():
            chain = []
            node = start
            while hops and node not in self.outcome:
                self.outcome[node] = "loop"  # if the chain comes back here
                chain.append(node)
                node = min(hops, key=str)
                hops = hops_of[node]
            for link in chain:
                self.outcome[link] = self.outcome.get(node, "blackhole")

    def closure(self, seeds: Iterable[Node], avoiding=frozenset()) -> Set[Node]:
        """``seeds`` plus every node with a path to one that stays clear
        of ``avoiding``."""
        reached = set(seeds)
        frontier = list(reached)
        while frontier:
            for pred in self.preds[frontier.pop()]:
                if pred not in reached and pred not in avoiding:
                    reached.add(pred)
                    frontier.append(pred)
        return reached


def forwarding_table_from_solution(
    solution: Solution,
    equivalence_class: EquivalenceClass,
) -> ForwardingTable:
    """Extract a forwarding table from a solved SRP (one
    :func:`build_srp_from_network` built, concrete or abstract), applying
    the ACL verdicts its compiled edges carry."""
    compiled = solution.srp.transfer.compiled
    next_hops: Dict[Node, Set[Node]] = {}
    blocked: Set[Edge] = set()
    forwarding = solution.forwarding
    for node in solution.srp.graph.nodes:
        if node == VIRTUAL_DESTINATION:
            continue
        hops: Set[Node] = set()
        for edge in forwarding.get(node, ()):
            neighbour = edge[1]
            if neighbour == VIRTUAL_DESTINATION:
                continue
            if compiled[edge].acl_permits:
                hops.add(neighbour)
            else:
                blocked.add(edge)
        next_hops[node] = hops
    return ForwardingTable(
        destination=equivalence_class.prefix,
        origins=set(equivalence_class.origins),
        next_hops=next_hops,
        acl_blocked=blocked,
    )


def compute_forwarding_table(
    network: Network,
    equivalence_class: EquivalenceClass,
) -> ForwardingTable:
    """Simulate the control plane for one class and extract forwarding."""
    srp = build_srp_from_network(
        network,
        equivalence_class.prefix,
        set(equivalence_class.origins),
        # The SRP is solved and discarded; nothing reads the specialized
        # syntactic policy keys, and skipping them saves a full pass of
        # route-map specialization per class.
        include_syntactic_keys=False,
    )
    return forwarding_table_from_solution(solve(srp), equivalence_class)
