"""Incremental re-solve of an SRP under an arbitrary configuration delta.

This generalises :mod:`repro.failures.incremental` from "edges
disappeared" to "the compiled transfer of some edges changed": a config
change (route-map edit, local-pref override, ACL, origination, link or
device churn) perturbs routing only through the edges whose *compiled,
destination-specialised* behaviour actually differs.  Those edges are
detected by per-edge policy-key comparison -- the specialized syntactic
keys produced through :func:`repro.config.transfer.compile_base_edges` /
:func:`~repro.config.transfer.specialize_compiled_edges` are canonical
summaries of an edge's behaviour for one destination, so equal keys mean
the transfer is unchanged on that edge even if the underlying route-map
objects were rewritten.

The re-solve then reuses the failure machinery wholesale:

* **taint** -- the reverse closure, under the baseline forwarding
  relation, of nodes forwarding over a *removed or changed* edge
  (:func:`repro.failures.incremental.tainted_nodes` with changed edges
  treated as removed: a changed edge's old offer may no longer exist, so
  labels derived through it cannot be trusted);
* **dirty** -- taint plus the surviving endpoints of every
  removed/changed/added edge (their offer sets shrank, changed or grew),
  nodes offering into a tainted node, neighbours of removed devices, and
  newly added devices (which start with no label);
* the baseline's transfer memo seeds the new solve *minus* the entries
  of changed and removed edges (their cached values describe the old
  policy) -- unchanged edges reference configuration objects the
  copy-on-write :meth:`~repro.delta.changeset.ChangeSet.apply` shares
  with the baseline, so their memo entries remain exact.

As in the failure subsystem, :func:`repro.srp.solver.solve_seeded`
re-verifies the stability of every node before returning and the scratch
solver remains the per-change oracle; a bad seed can never silently
produce a wrong answer.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional

from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import syntactic_policy_keys
from repro.failures.incremental import BaselineIndex, IncrementalSolve, seeded_resolve
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import TransferCache
from repro.topology.graph import Edge


@dataclass(frozen=True)
class EdgeDiff:
    """How one destination's compiled edges differ between two networks."""

    #: Directed edges present before but not after.
    removed: FrozenSet[Edge]
    #: Directed edges present after but not before.
    added: FrozenSet[Edge]
    #: Directed edges present in both whose specialized policy key differs.
    changed: FrozenSet[Edge]
    #: Devices present before but not after.
    removed_nodes: FrozenSet[str]
    #: Devices present after but not before.
    added_nodes: FrozenSet[str]

    def is_empty(self) -> bool:
        return not (
            self.removed or self.added or self.changed
            or self.removed_nodes or self.added_nodes
        )

    @property
    def perturbed(self) -> FrozenSet[Edge]:
        """The edges whose baseline-derived labels cannot be trusted."""
        return self.removed | self.changed


def diff_network_edges(
    old_network: Network,
    new_network: Network,
    destination: Prefix,
    old_keys: Optional[Dict[Edge, object]] = None,
    new_keys: Optional[Dict[Edge, object]] = None,
) -> EdgeDiff:
    """Diff two networks' compiled edges for one destination.

    Comparison runs on the specialized syntactic policy keys (each
    network's own unused-community set folded in), so a rewritten route
    map that specialises to the same behaviour for this destination --
    e.g. a clause guarded by a prefix list not matching it -- is correctly
    reported as *unchanged*.  Callers that already hold either key map
    (the sweep threads each step's keys into the next step's diff) pass
    them in to skip the recomputation; handing in the *same* map twice
    (the sweep does when re-keying the edges a step touched changed
    none) says no edge differs without a scan.
    """
    if old_keys is None:
        old_keys = syntactic_policy_keys(old_network, destination)
    if new_keys is None:
        new_keys = syntactic_policy_keys(new_network, destination)
    removed = added = changed = frozenset()
    if old_keys is not new_keys:
        removed = frozenset(edge for edge in old_keys if edge not in new_keys)
        added = frozenset(edge for edge in new_keys if edge not in old_keys)
        changed = frozenset(
            edge
            for edge, key in new_keys.items()
            if edge in old_keys and old_keys[edge] != key
        )
    old_nodes = {str(node) for node in old_network.graph.nodes}
    new_nodes = {str(node) for node in new_network.graph.nodes}
    return EdgeDiff(
        removed=removed,
        added=added,
        changed=changed,
        removed_nodes=frozenset(old_nodes - new_nodes),
        added_nodes=frozenset(new_nodes - old_nodes),
    )


def seed_transfer_cache(
    baseline: Solution, diff: EdgeDiff, transfer_cache: Optional[TransferCache] = None
) -> TransferCache:
    """A transfer memo seeded from the baseline minus stale edges.

    Entries for changed and removed edges describe the *old* compiled
    policy and are evicted; everything else is exact in the changed
    network because unchanged edges share their configuration objects
    with the baseline (copy-on-write application).
    """
    if transfer_cache is None:
        transfer_cache = TransferCache().seeded_from(baseline.transfer_cache)
    stale = diff.perturbed
    if stale:
        for key in [k for k in transfer_cache if k[0] in stale]:
            del transfer_cache[key]
    return transfer_cache


def delta_resolve(
    changed_srp: SRP,
    baseline: Solution,
    diff: EdgeDiff,
    transfer_cache: Optional[TransferCache] = None,
    index: Optional[BaselineIndex] = None,
) -> IncrementalSolve:
    """Solve ``changed_srp`` seeded from the baseline solution.

    ``changed_srp`` must share its destination structure with the
    baseline SRP (same origin set, hence the same virtual-destination
    shape); the sweep driver falls back to a scratch solve when a change
    alters the origin set.  ``diff`` is the compiled-edge diff between the
    baseline and changed networks for this destination
    (:func:`diff_network_edges`).
    """
    start = time.perf_counter()
    # Stale memo entries are evicted here, not in the shared body: steps
    # chain, so a removed edge can come back with a new policy.
    result = seeded_resolve(
        changed_srp,
        baseline,
        perturbed_edges=diff.perturbed,
        removed_nodes=diff.removed_nodes,
        added_edges=diff.added,
        added_nodes=diff.added_nodes,
        transfer_cache=seed_transfer_cache(baseline, diff, transfer_cache),
        index=index,
        solver="delta",
    )
    result.seconds = time.perf_counter() - start
    return result
