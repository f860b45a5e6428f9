"""Per-device configuration (vendor-independent IR).

A :class:`DeviceConfig` is the Batfish-style intermediate representation of
one router's configuration: its BGP process (neighbours with import/export
route maps and originated networks), OSPF links, static routes, and the
route maps / community lists / prefix lists / ACLs they reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set

from repro.config.acl import Acl
from repro.config.prefix import Prefix
from repro.config.routemap import CommunityList, PrefixList, RouteMap
from repro.routing.attributes import DEFAULT_LOCAL_PREF


class ConfigError(Exception):
    """Raised for inconsistent device configurations."""


@dataclass
class BgpNeighborConfig:
    """A BGP session towards ``peer`` with optional per-direction policy."""

    peer: str
    import_policy: Optional[str] = None
    export_policy: Optional[str] = None
    #: iBGP sessions share the local AS; eBGP sessions (the default) do not.
    ibgp: bool = False


@dataclass
class StaticRouteConfig:
    """A static route: traffic to ``prefix`` leaves via ``next_hop``.

    ``next_hop`` of ``None`` models a discard (``Null0``) route.
    """

    prefix: Prefix
    next_hop: Optional[str] = None


@dataclass
class OspfLinkConfig:
    """An OSPF adjacency towards ``peer`` with a link cost and area."""

    peer: str
    cost: int = 1
    area: int = 0


@dataclass
class DeviceConfig:
    """The full configuration of one device."""

    name: str
    asn: Optional[str] = None
    route_maps: Dict[str, RouteMap] = field(default_factory=dict)
    community_lists: Dict[str, CommunityList] = field(default_factory=dict)
    prefix_lists: Dict[str, PrefixList] = field(default_factory=dict)
    acls: Dict[str, Acl] = field(default_factory=dict)
    bgp_neighbors: Dict[str, BgpNeighborConfig] = field(default_factory=dict)
    ospf_links: Dict[str, OspfLinkConfig] = field(default_factory=dict)
    static_routes: List[StaticRouteConfig] = field(default_factory=list)
    originated_prefixes: List[Prefix] = field(default_factory=list)
    #: Outbound data-plane ACL per neighbouring interface (peer name -> ACL name).
    interface_acls: Dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.asn is None:
            self.asn = self.name

    # ------------------------------------------------------------------
    # Referential integrity
    # ------------------------------------------------------------------
    def validate(self) -> List[str]:
        """Return a list of dangling references (empty when consistent)."""
        problems: List[str] = []
        for neighbor in self.bgp_neighbors.values():
            for policy in (neighbor.import_policy, neighbor.export_policy):
                if policy is not None and policy not in self.route_maps:
                    problems.append(f"{self.name}: missing route-map {policy!r}")
        for route_map in self.route_maps.values():
            for name in route_map.referenced_community_lists():
                if name not in self.community_lists:
                    problems.append(f"{self.name}: missing community-list {name!r}")
            for name in route_map.referenced_prefix_lists():
                if name not in self.prefix_lists:
                    problems.append(f"{self.name}: missing prefix-list {name!r}")
        for peer, acl in self.interface_acls.items():
            if acl not in self.acls:
                problems.append(f"{self.name}: missing ACL {acl!r} on interface to {peer}")
        return problems

    def assert_valid(self) -> None:
        problems = self.validate()
        if problems:
            raise ConfigError("; ".join(problems))

    # ------------------------------------------------------------------
    # Derived views used by Bonsai
    # ------------------------------------------------------------------
    def originates(self, prefix: Prefix) -> bool:
        """True if this device originates a route covering ``prefix``."""
        return any(own.contains(prefix) for own in self.originated_prefixes)

    def local_pref_values(self) -> FrozenSet[int]:
        """All local-preference values any import policy can assign, plus the
        default (Theorem 4.4's ``prefs``)."""
        values: Set[int] = {DEFAULT_LOCAL_PREF}
        for neighbor in self.bgp_neighbors.values():
            if neighbor.import_policy and neighbor.import_policy in self.route_maps:
                values |= self.route_maps[neighbor.import_policy].local_pref_values()
        return frozenset(values)

    def matched_communities(self) -> FrozenSet[str]:
        """Community values this device's policies *match on*."""
        values: Set[str] = set()
        for route_map in self.route_maps.values():
            values |= route_map.matched_communities(self.community_lists)
        return frozenset(values)

    def set_communities(self) -> FrozenSet[str]:
        """Community values this device's policies can attach."""
        values: Set[str] = set()
        for route_map in self.route_maps.values():
            values |= route_map.set_community_values()
        return frozenset(values)

    def static_route_for(self, prefix: Prefix) -> Optional[StaticRouteConfig]:
        """The longest-match static route covering ``prefix``, if any."""
        best: Optional[StaticRouteConfig] = None
        for static in self.static_routes:
            if static.prefix.contains(prefix):
                if best is None or static.prefix.length > best.prefix.length:
                    best = static
        return best

    def config_line_count(self) -> int:
        """A rough count of configuration lines (used for reporting only)."""
        lines = 1 + len(self.originated_prefixes) + len(self.static_routes)
        lines += 2 * len(self.bgp_neighbors) + len(self.ospf_links)
        for route_map in self.route_maps.values():
            lines += 1 + 3 * len(route_map.clauses)
        for community_list in self.community_lists.values():
            lines += len(community_list.communities)
        for prefix_list in self.prefix_lists.values():
            lines += len(prefix_list.entries)
        for acl in self.acls.values():
            lines += 1 + len(acl.lines)
        return lines
