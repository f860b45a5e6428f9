"""Downstream analyses run on concrete or compressed networks."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".batch": (
        "BatchVerifier", "ClassVerificationRecord", "PropertySuite", "PropertyVerdict",
        "VerificationReport", "VerificationTimeout", "abstract_arm", "lift_counterexample",
    ),
    ".dataplane": (
        "ForwardingTable", "compute_forwarding_table", "forwarding_table_from_solution",
    ),
    ".properties": (
        "PROPERTY_REGISTRY", "Counterexample", "PropertyContext", "PropertyResult",
        "PropertySpec", "check_all_paths_reach", "check_black_hole",
        "check_bounded_path_length", "check_multipath_consistency", "check_path_length",
        "check_reachability", "check_routing_loop", "check_waypointing", "get_property",
        "path_lengths", "register_property", "registered_properties",
    ),
})
