"""Configuration change-impact analysis: what-if sweeps over compression.

The fifth pillar of the system next to compression, verification,
hot-paths and failure analysis: model configuration *changes* as typed
first-class values, re-verify the changed control plane *incrementally*
from the unchanged baseline, and decide -- per destination class --
whether the baseline Bonsai abstraction survives the change (reuse) or
must be re-compressed (dirty classes only).
"""

from repro.delta.changeset import (
    CHANGE_KINDS,
    Change,
    ChangeError,
    ChangeSet,
    DeviceAdd,
    DeviceRemove,
    InterfaceAclSet,
    LinkAdd,
    LinkCostSet,
    LinkRemove,
    LocalPrefOverride,
    PrefixListSet,
    PrefixOriginate,
    PrefixWithdraw,
    RouteMapClauseDelete,
    RouteMapClauseEdit,
    RouteMapClauseInsert,
    change_from_dict,
    load_change_script,
)
from repro.delta.incremental import (
    EdgeDiff,
    delta_resolve,
    diff_network_edges,
    seed_transfer_cache,
)
from repro.delta.revalidate import (
    RevalidationOutcome,
    class_signature,
    revalidate_class,
)
from repro.delta.sweep import (
    ChangeOutcome,
    ClassDeltaRecord,
    DeltaReport,
    DeltaSweep,
    delta_class_task,
    sweep_changes,
)

__all__ = [
    "CHANGE_KINDS",
    "Change",
    "ChangeError",
    "ChangeSet",
    "DeviceAdd",
    "DeviceRemove",
    "InterfaceAclSet",
    "LinkAdd",
    "LinkCostSet",
    "LinkRemove",
    "LocalPrefOverride",
    "PrefixListSet",
    "PrefixOriginate",
    "PrefixWithdraw",
    "RouteMapClauseDelete",
    "RouteMapClauseEdit",
    "RouteMapClauseInsert",
    "change_from_dict",
    "load_change_script",
    "EdgeDiff",
    "delta_resolve",
    "diff_network_edges",
    "seed_transfer_cache",
    "RevalidationOutcome",
    "class_signature",
    "revalidate_class",
    "ChangeOutcome",
    "ClassDeltaRecord",
    "DeltaReport",
    "DeltaSweep",
    "delta_class_task",
    "sweep_changes",
]
