"""Control plane compression: abstractions, refinement and the Bonsai tool."""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".bonsai": ("Bonsai", "CompressionResult", "CompressionSummary"),
    ".conditions": (
        "ConditionReport", "EffectivenessReport", "check_bgp_effective",
        "check_dest_equivalence", "check_effective", "check_forall_exists",
        "check_forall_forall", "check_self_loop_free", "check_transfer_equivalence",
    ),
    ".ec": ("EquivalenceClass", "compute_equivalence_classes", "routable_equivalence_classes"),
    ".equivalence": (
        "AbstractionBuildError", "EquivalenceReport", "build_abstract_srp",
        "check_bgp_solution_equivalence", "check_cp_equivalence",
        "check_solution_equivalence",
    ),
    ".mapping": ("NetworkAbstraction",),
    ".partition": ("PartitionError", "UnionSplitFind"),
    ".refinement": (
        "RefinementResult", "compute_abstraction", "find_abstraction_partition",
        "split_into_bgp_cases",
    ),
})
