"""Vendor-independent configuration IR (the Batfish-substitute substrate)."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".acl": ("Acl", "AclLine", "PERMIT_ALL_ACL"),
    ".device": (
        "BgpNeighborConfig", "ConfigError", "DeviceConfig", "OspfLinkConfig",
        "StaticRouteConfig",
    ),
    ".network": ("Network",),
    ".parser": ("ParseError", "format_network", "parse_network"),
    ".prefix": ("DEFAULT_PREFIX", "Prefix", "PrefixTrie"),
    ".routemap": (
        "DENY_ALL", "PERMIT_ALL", "CommunityList", "PrefixList", "PrefixListEntry",
        "RouteMap", "RouteMapClause",
    ),
    ".transfer": (
        "CompiledEdge", "VIRTUAL_DESTINATION", "build_srp_from_network", "compile_edges",
        "evaluate_route_map", "specialize_route_map", "syntactic_policy_keys",
    ),
})
