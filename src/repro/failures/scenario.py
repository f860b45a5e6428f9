"""Failure scenarios: downed links and nodes as first-class values.

The paper proves Bonsai's compression sound only for the *failure-free*
control plane and explicitly names link failures as the key limitation: a
⟨topology, policy⟩ abstraction need not preserve behaviour once edges
disappear.  This module supplies the scenario vocabulary the rest of
:mod:`repro.failures` is built on:

* :class:`FailureScenario` -- an immutable set of downed (undirected)
  links and downed nodes, with validation against a concrete topology and
  a JSON/pickle-friendly wire form so scenarios travel through the
  pipeline's task options;
* enumerators -- exhaustive all-``≤k`` link (and optionally node)
  failures, deterministic seeded sampling for large spaces, and named
  single-point-of-interest scenarios;
* :meth:`FailureScenario.apply` -- derive the failed
  :class:`~repro.config.network.Network` *without mutating the original*:
  the view gets a fresh subgraph but shares every surviving
  :class:`~repro.config.device.DeviceConfig`, so configurations stay
  byte-identical (links go down; configs do not change) and the original
  network's fingerprint-guarded memos are untouched.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.config.network import Network
from repro.topology.graph import Graph, Node

#: An undirected link, canonicalised as a name-sorted pair.
Link = Tuple[str, str]


class ScenarioError(ValueError):
    """Raised for scenarios that do not fit the topology they are applied to."""


def canonical_link(u: Node, v: Node) -> Link:
    """The canonical (sorted) undirected form of a link between two nodes."""
    a, b = str(u), str(v)
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class FailureScenario:
    """A set of simultaneously failed links and nodes.

    Links are undirected (a physical link failing kills both directed
    edges); nodes take every incident link down with them.  The empty
    scenario is allowed and represents the failure-free baseline.
    """

    links: FrozenSet[Link] = frozenset()
    nodes: FrozenSet[str] = frozenset()
    #: Optional human-readable name ("link:a|b", "node:spine0", ...).
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        # Canonicalise link orientation so {("b","a")} == {("a","b")}.
        canonical = frozenset(canonical_link(u, v) for u, v in self.links)
        if canonical != self.links:
            object.__setattr__(self, "links", canonical)
        if not self.name:
            object.__setattr__(self, "name", self.describe())

    # ------------------------------------------------------------------
    # Identity / display
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """A canonical, deterministic identifier for the scenario."""
        parts = [f"link:{u}|{v}" for u, v in sorted(self.links)]
        parts.extend(f"node:{n}" for n in sorted(self.nodes))
        return "+".join(parts) if parts else "baseline"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or self.describe()

    @property
    def size(self) -> int:
        """The number of failed elements (links plus nodes)."""
        return len(self.links) + len(self.nodes)

    def is_empty(self) -> bool:
        return not self.links and not self.nodes

    # ------------------------------------------------------------------
    # Wire form (travels inside pickled/JSON task options)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "links": [list(link) for link in sorted(self.links)],
            "nodes": sorted(self.nodes),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "FailureScenario":
        return cls(
            links=frozenset(canonical_link(u, v) for u, v in data.get("links", [])),
            nodes=frozenset(str(n) for n in data.get("nodes", [])),
            name=str(data.get("name", "")),
        )

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, network: Network) -> List[str]:
        """Problems preventing this scenario from applying to ``network``."""
        graph = network.graph
        problems: List[str] = []
        for u, v in sorted(self.links):
            if not (graph.has_edge(u, v) or graph.has_edge(v, u)):
                problems.append(f"failed link {u}|{v} is not in the topology")
        for node in sorted(self.nodes):
            if not graph.has_node(node):
                problems.append(f"failed node {node!r} is not in the topology")
        return problems

    def assert_valid(self, network: Network) -> None:
        problems = self.validate(network)
        if problems:
            raise ScenarioError("; ".join(problems))

    # ------------------------------------------------------------------
    # Application
    # ------------------------------------------------------------------
    def directed_edges(self, graph: Graph) -> FrozenSet[Tuple[Node, Node]]:
        """Every *directed* edge of ``graph`` removed by this scenario."""
        removed = set()
        for u, v in self.links:
            if graph.has_edge(u, v):
                removed.add((u, v))
            if graph.has_edge(v, u):
                removed.add((v, u))
        for node in self.nodes:
            if not graph.has_node(node):
                continue
            for edge in graph.out_edges(node):
                removed.add(edge)
            for edge in graph.in_edges(node):
                removed.add(edge)
        return frozenset(removed)

    def apply(self, network: Network) -> Network:
        """The failed network: a subgraph view sharing device configs.

        The returned :class:`Network` is a *new* object with a fresh graph
        (failed links and nodes removed) whose device dictionary holds the
        *same* :class:`DeviceConfig` objects as the original -- links fail,
        configurations do not.  The original network is not mutated, and
        because the view is a distinct object its fingerprint-guarded memos
        (destination classes, local-pref sets) start empty rather than
        inheriting possibly-stale entries.

        Note that ``validate()`` on the view may report BGP/OSPF sessions
        pointing at now-unreachable neighbours; that is the expected state
        of a network with down links, not a configuration error.
        """
        self.assert_valid(network)
        removed = self.directed_edges(network.graph)
        graph = Graph()
        for node in network.graph.nodes:
            if node not in self.nodes:
                graph.add_node(node)
        for edge in network.graph.edges:
            if edge in removed:
                continue
            u, v = edge
            if u in self.nodes or v in self.nodes:
                continue
            graph.add_edge(u, v)
        devices = {
            name: config
            for name, config in network.devices.items()
            if name not in self.nodes
        }
        return Network(
            graph=graph,
            devices=devices,
            name=f"{network.name}@{self.name}",
        )


# ----------------------------------------------------------------------
# Enumeration
# ----------------------------------------------------------------------
def undirected_links(network: Network) -> List[Link]:
    """Every physical (undirected) link of the network, name-sorted."""
    seen = {canonical_link(u, v) for u, v in network.graph.edges}
    return sorted(seen)


def enumerate_link_failures(
    network: Network, k: int = 1, include_nodes: bool = False
) -> List[FailureScenario]:
    """Every failure scenario of at most ``k`` simultaneous elements.

    Scenarios are ordered deterministically: by size, then by canonical
    identifier.  With ``include_nodes`` the enumeration also covers node
    failures and mixed link+node combinations of total size ``≤ k``.
    The failure-free baseline is *not* included (it is the reference every
    sweep compares against, not a scenario of its own).
    """
    if k < 1:
        raise ScenarioError("k must be >= 1")
    links = undirected_links(network)
    nodes = sorted(str(n) for n in network.graph.nodes) if include_nodes else []
    elements: List[Tuple[str, object]] = [("link", link) for link in links]
    elements.extend(("node", node) for node in nodes)
    scenarios: List[FailureScenario] = []
    for size in range(1, k + 1):
        sized: List[FailureScenario] = []
        for combo in itertools.combinations(elements, size):
            sized.append(
                FailureScenario(
                    links=frozenset(v for kind, v in combo if kind == "link"),
                    nodes=frozenset(v for kind, v in combo if kind == "node"),
                )
            )
        sized.sort(key=lambda s: s.name)
        scenarios.extend(sized)
    return scenarios


def sample_link_failures(
    network: Network,
    k: int,
    count: int,
    seed: int = 0,
    include_nodes: bool = False,
) -> List[FailureScenario]:
    """A deterministic seeded sample of ``count`` distinct ``≤k`` scenarios.

    Sampling is without replacement and reproducible for a given
    ``(topology, k, count, seed)``.  When the full space holds at most
    ``count`` scenarios the exhaustive enumeration is returned instead
    (sampling can never do better than that).
    """
    if count < 1:
        raise ScenarioError("sample count must be >= 1")
    links = undirected_links(network)
    nodes = sorted(str(n) for n in network.graph.nodes) if include_nodes else []
    elements: List[Tuple[str, object]] = [("link", link) for link in links]
    elements.extend(("node", node) for node in nodes)
    total = 0
    for size in range(1, k + 1):
        total += _combinations_count(len(elements), size)
        if total > count * 4:
            break
    if total <= count:
        return enumerate_link_failures(network, k, include_nodes=include_nodes)

    rng = random.Random(seed)
    chosen: List[FailureScenario] = []
    seen = set()
    # Rejection sampling over uniformly chosen sizes; deterministic for a
    # fixed seed, and cheap because the space is much larger than `count`.
    attempts = 0
    max_attempts = count * 200
    while len(chosen) < count and attempts < max_attempts:
        attempts += 1
        size = rng.randint(1, min(k, len(elements)))
        combo = tuple(sorted(rng.sample(range(len(elements)), size)))
        if combo in seen:
            continue
        seen.add(combo)
        picked = [elements[i] for i in combo]
        chosen.append(
            FailureScenario(
                links=frozenset(v for kind, v in picked if kind == "link"),
                nodes=frozenset(v for kind, v in picked if kind == "node"),
            )
        )
    chosen.sort(key=lambda s: (s.size, s.name))
    return chosen


def _combinations_count(n: int, r: int) -> int:
    if r > n:
        return 0
    result = 1
    for i in range(r):
        result = result * (n - i) // (i + 1)
    return result


# ----------------------------------------------------------------------
# Named single points of interest
# ----------------------------------------------------------------------
def link_scenario(u: Node, v: Node) -> FailureScenario:
    """The named single-link failure ``link:u|v``."""
    return FailureScenario(links=frozenset({canonical_link(u, v)}))


def node_scenario(node: Node) -> FailureScenario:
    """The named single-node failure ``node:n``."""
    return FailureScenario(nodes=frozenset({str(node)}))


def points_of_interest(network: Network) -> Dict[str, FailureScenario]:
    """Named single-point scenarios an operator typically asks about first.

    Returns a name -> scenario mapping covering the highest-degree device
    (the hub whose loss hurts most), the busiest link (the undirected link
    between the two highest-degree endpoints), and the failure of each
    originating device's first upstream link.  All names are stable for a
    fixed topology, so reports can reference them across runs.
    """
    graph = network.graph
    interest: Dict[str, FailureScenario] = {}
    if not graph.nodes:
        return interest
    hub = max(graph.nodes, key=lambda n: (graph.degree(n), str(n)))
    interest["hub-node"] = FailureScenario(
        nodes=frozenset({str(hub)}), name=f"hub-node({hub})"
    )
    links = undirected_links(network)
    if links:
        busiest = max(
            links, key=lambda link: (graph.degree(link[0]) + graph.degree(link[1]), link)
        )
        interest["busiest-link"] = FailureScenario(
            links=frozenset({busiest}), name=f"busiest-link({busiest[0]}|{busiest[1]})"
        )
    for name, device in sorted(network.devices.items()):
        if not device.originated_prefixes or not graph.has_node(name):
            continue
        neighbours = sorted(graph.successors(name), key=str)
        if neighbours:
            link = canonical_link(name, neighbours[0])
            interest[f"origin-uplink({name})"] = FailureScenario(
                links=frozenset({link}), name=f"origin-uplink({name})"
            )
    return interest


def scenarios_for(
    network: Network,
    k: int = 1,
    sample: Optional[int] = None,
    seed: int = 0,
    include_nodes: bool = False,
    named: Iterable[FailureScenario] = (),
) -> List[FailureScenario]:
    """The scenario list a sweep runs: enumerate/sample plus named extras.

    Named scenarios are prepended (deduplicated against the enumeration) so
    operator points of interest are always covered even under sampling.
    """
    if sample is None:
        body = enumerate_link_failures(network, k, include_nodes=include_nodes)
    else:
        body = sample_link_failures(
            network, k, sample, seed=seed, include_nodes=include_nodes
        )
    result: List[FailureScenario] = []
    seen = set()
    for scenario in itertools.chain(named, body):
        scenario.assert_valid(network)
        key = (scenario.links, scenario.nodes)
        if key in seen:
            continue
        seen.add(key)
        result.append(scenario)
    return result
