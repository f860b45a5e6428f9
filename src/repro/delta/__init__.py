"""Configuration change-impact analysis: what-if sweeps over compression.

The fifth pillar of the system next to compression, verification,
hot-paths and failure analysis: model configuration *changes* as typed
first-class values, re-verify the changed control plane *incrementally*
from the unchanged baseline, and decide -- per destination class --
whether the baseline Bonsai abstraction survives the change (reuse) or
must be re-compressed (dirty classes only).
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".changeset": (
        "CHANGE_KINDS", "Change", "ChangeError", "ChangeSet", "DeviceAdd", "DeviceRemove",
        "InterfaceAclSet", "LinkAdd", "LinkCostSet", "LinkRemove", "LocalPrefOverride",
        "PrefixListSet", "PrefixOriginate", "PrefixWithdraw", "RouteMapClauseDelete",
        "RouteMapClauseEdit", "RouteMapClauseInsert", "change_from_dict",
        "load_change_script",
    ),
    ".incremental": (
        "EdgeDiff", "delta_resolve", "diff_network_edges", "seed_transfer_cache",
    ),
    ".revalidate": ("class_signature", "revalidate_class"),
    ".sweep": (
        "ChangeOutcome", "ClassDeltaRecord", "DeltaReport", "DeltaSweep",
        "delta_class_task", "sweep_changes",
    ),
})
