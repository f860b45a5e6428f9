"""Configured-network generators for the evaluation workloads."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".base": (
        "EXPORT_MAP", "IMPORT_MAP", "SITE_AGGREGATE", "SITE_PREFIX_LIST", "make_bgp_device",
        "permit_all_map", "prefix_for_index", "site_prefix_list", "standard_export_map",
        "uniform_bgp_network",
    ),
    ".fattree": (
        "PREFER_BOTTOM_LOCAL_PREF", "POLICIES", "fattree_network", "fattree_roles",
    ),
    ".ring": ("ring_network",),
    ".mesh": ("full_mesh_network",),
    ".datacenter": (
        "DatacenterParams", "DATACENTER_PAPER_SCALE=PAPER_SCALE",
        "DATACENTER_SMALL_SCALE=SMALL_SCALE", "datacenter_network",
    ),
    ".families": (
        "DEFAULT_FAMILY_SIZES", "TOPOLOGY_FAMILIES", "build_topology", "default_size",
    ),
    ".wan": (
        "WAN_PAPER_SCALE=PAPER_SCALE", "WAN_SMALL_SCALE=SMALL_SCALE", "WanParams",
        "wan_network",
    ),
})
