"""A configured network: topology plus per-device configurations.

This is the unit Bonsai operates on: the concrete network whose control
plane is to be compressed.  It bundles the physical topology with the
:class:`~repro.config.device.DeviceConfig` of every device and provides
the whole-network views the compression pipeline needs (community
universe, unused communities, referenced prefixes, destination equivalence
classes).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from repro.config.device import ConfigError, DeviceConfig
from repro.config.prefix import Prefix, PrefixTrie
from repro.topology.graph import Graph, Node


@dataclass
class Network:
    """A topology together with the configuration of each device."""

    graph: Graph
    devices: Dict[str, DeviceConfig] = field(default_factory=dict)
    name: str = "network"

    def __post_init__(self) -> None:
        for node in self.graph.nodes:
            if node not in self.devices:
                self.devices[node] = DeviceConfig(name=str(node))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Dangling references and topology/config mismatches."""
        problems: List[str] = []
        for device in self.devices.values():
            problems.extend(device.validate())
        for name, device in self.devices.items():
            if not self.graph.has_node(name):
                problems.append(f"device {name!r} is configured but not in the topology")
                continue
            neighbours = self.graph.successors(name)
            for peer in device.bgp_neighbors:
                if peer not in neighbours:
                    problems.append(f"{name}: BGP neighbour {peer!r} is not adjacent")
            for peer in device.ospf_links:
                if peer not in neighbours:
                    problems.append(f"{name}: OSPF link to {peer!r} is not adjacent")
        return problems

    def assert_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ConfigError("; ".join(problems))

    # ------------------------------------------------------------------
    # Whole-network views
    # ------------------------------------------------------------------
    def device(self, name: Node) -> DeviceConfig:
        return self.devices[name]

    def num_devices(self) -> int:
        return len(self.devices)

    def unused_communities(self) -> FrozenSet[str]:
        """Communities that are attached somewhere but never matched on.

        The paper's real-network evaluation (§8) found that many apparent
        role differences came from such irrelevant tags; the BGP attribute
        abstraction strips them before comparing policies.
        """
        matched: Set[str] = set()
        attached: Set[str] = set()
        for device in self.devices.values():
            matched |= device.matched_communities()
            attached |= device.set_communities()
        return frozenset(attached - matched)

    def originators_of(self, prefix: Prefix) -> Set[str]:
        """Devices originating a route that covers ``prefix``."""
        return {name for name, device in self.devices.items() if device.originates(prefix)}

    def total_config_lines(self) -> int:
        """Approximate total configuration size (for reporting)."""
        return sum(device.config_line_count() for device in self.devices.values())

    def local_pref_values_by_device(self) -> Dict[str, Tuple[int, ...]]:
        """Per-device sorted local-preference value tuples, memoised.

        ``build_srp_from_network`` needs these for every destination class,
        but they only depend on the route maps and session attachments; the
        memo is invalidated by a fingerprint over those inputs, like the
        destination class cache.  A hit still pays the O(devices +
        sessions + route maps) fingerprint construction -- much cheaper
        than re-deriving the values (which walks every clause), but not
        free on very large configurations.
        """
        fingerprint = (
            self._topology_stamp(),
            tuple(
                (
                    name,
                    tuple(
                        (peer, neighbor.import_policy)
                        for peer, neighbor in device.bgp_neighbors.items()
                    ),
                    tuple(
                        (rm_name, route_map.clauses)
                        for rm_name, route_map in device.route_maps.items()
                    ),
                )
                for name, device in self.devices.items()
            ),
        )
        cached = getattr(self, "_lp_cache", None)
        if cached is not None and cached[0] == fingerprint:
            return cached[1]
        values = {
            name: tuple(sorted(device.local_pref_values()))
            for name, device in self.devices.items()
        }
        self._lp_cache = (fingerprint, values)
        return values

    def _topology_stamp(self) -> Tuple[int, int, int]:
        """A cheap topology component for the memo fingerprints.

        The graph's mutation counter (plus the sizes, which also guard
        against a caller swapping in a *different* graph object) makes
        removing an edge or node -- a failure scenario applied by mutation
        rather than through the non-mutating views in
        :mod:`repro.failures.scenario` -- invalidate the memoised
        whole-network views instead of serving stale entries.
        """
        return (self.graph.version, self.graph.num_nodes(), self.graph.num_edges())

    # ------------------------------------------------------------------
    # Destination equivalence classes (§5.1)
    # ------------------------------------------------------------------
    def _destination_fingerprint(self) -> Tuple:
        """A cheap value summarising every input to the destination trie.

        The memoised :meth:`destination_equivalence_classes` is invalidated
        by comparing fingerprints, so mutating a device's originations or
        static routes -- or the topology itself (removing an edge bumps the
        graph's mutation counter) -- transparently recomputes the classes
        while repeated calls on an unchanged network (one per class task,
        per solver invocation, ...) are free.
        """
        return (
            self._topology_stamp(),
            tuple(
                (
                    name,
                    tuple(device.originated_prefixes),
                    tuple(static.prefix for static in device.static_routes),
                )
                for name, device in self.devices.items()
            ),
        )

    def destination_trie(self) -> PrefixTrie:
        """A prefix trie of every originated prefix with its origin devices."""
        trie = PrefixTrie()
        for name, device in self.devices.items():
            for prefix in device.originated_prefixes:
                trie.insert(prefix, origins=[name])
            for static in device.static_routes:
                # A static route's destination is routable even if nobody
                # originates it dynamically; record it with no origin so it
                # still forms a class.
                trie.insert(static.prefix)
        return trie

    def destination_equivalence_classes(self) -> List[Tuple[Prefix, Set[str]]]:
        """The per-destination classes Bonsai builds one abstraction for.

        Memoised: the prefix trie is only re-derived when the fingerprint
        of the originated prefixes / static routes changes (the pipeline
        and the batch verifier call this once per class task, previously
        rebuilding the same trie every time).
        """
        fingerprint = self._destination_fingerprint()
        cached = getattr(self, "_dec_cache", None)
        if cached is not None and cached[0] == fingerprint:
            classes = cached[1]
        else:
            classes = [
                (prefix, frozenset(origins))
                for prefix, origins in self.destination_trie().equivalence_classes()
            ]
            self._dec_cache = (fingerprint, classes)
        # Hand out fresh mutable origin sets so callers cannot corrupt the
        # cache (the uncached implementation returned fresh sets too).
        return [(prefix, set(origins)) for prefix, origins in classes]

    # ------------------------------------------------------------------
    # Topology statistics used in the evaluation tables
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        return {
            "nodes": self.graph.num_nodes(),
            "edges": self.graph.num_undirected_edges(),
            "directed_edges": self.graph.num_edges(),
            "config_lines": self.total_config_lines(),
            "equivalence_classes": len(self.destination_equivalence_classes()),
        }
