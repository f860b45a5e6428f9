"""Routing protocol models: RIP, OSPF, BGP, static routes and multi-protocol."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".attributes": (
        "ADMIN_DISTANCE", "DEFAULT_LOCAL_PREF", "NO_ROUTE", "BgpAttribute", "OspfAttribute",
        "RibAttribute", "RipAttribute", "StaticAttribute",
    ),
    ".protocol": ("Protocol",),
    ".rip": ("RipProtocol", "build_rip_srp"),
    ".ospf": ("OspfProtocol", "build_ospf_srp"),
    ".static": ("StaticProtocol", "build_static_srp"),
    ".bgp": (
        "AddCommunity", "AllowAll", "BgpPolicy", "BgpProtocol", "Chain", "DenyAll",
        "FilterCommunity", "PrependAs", "RemoveCommunity", "SetLocalPref", "build_bgp_srp",
        "chain", "policy_local_prefs",
    ),
    ".multiprotocol": ("MultiProtocol", "MultiProtocolConfig", "build_multiprotocol_srp"),
})
