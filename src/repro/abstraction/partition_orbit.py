"""Refine once per orbit: ``compress`` maps a class that is a checked
image of its family's representative to σ(the representative's
partition), which is exact (:mod:`repro.abstraction.orbit`).  An
O(degree) filter on what every σ preserves at the origins refines a
class (``no-candidate``) before any shape is built; a Schreier tree
over origin sets maps a class its checked σs reach, unchecked.  The
memo (:func:`family_orbit`, verify's too) sits on the run's ``Bonsai``,
refers to nothing back and is dropped when the run ends.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.abstraction.bonsai import CompressionResult
from repro.abstraction.refinement import RefinementResult
from repro.config.transfer import VIRTUAL_DESTINATION
from repro.obs import metrics as _metrics
from repro.srp.instance import SRP
from repro.topology.graph import Node


@dataclass
class FamilyOrbit:
    """One class family's representatives, verify's and compress's, per
    origin count: a class maps only onto a class with as many."""

    #: Held so that the family's id is not reused while the entry lives.
    family: object
    #: The network's unused communities (:class:`FamilyShape` reads them).
    unused: FrozenSet[str]
    shape: Optional["FamilyShape"] = None
    #: Colour numbering of the family's abstract SRPs.
    abstract_numbers: Dict[Hashable, int] = field(default_factory=dict)
    representatives: Dict[int, "Representative"] = field(default_factory=dict)
    partitions: Dict[int, "PartitionOrbit"] = field(default_factory=dict)

    def shape_of(self, srp: SRP) -> Shape:
        if self.shape is None:
            from repro.abstraction.orbit import FamilyShape
            self.shape = FamilyShape(srp, self.family, self.unused)
        return self.shape.shape(srp)


#: Families the run's memo keeps before it clears (the refinement memo's rule).
LIMIT = 64


def family_orbit(bonsai, family) -> FamilyOrbit:
    """``family``'s entry in the run's memo, ``bonsai.orbits`` (one per
    serial run or pool worker, cleared when it ends)."""
    memo = bonsai.orbits
    entry = memo.get(id(family))
    if entry is None:
        if len(memo) >= LIMIT:
            memo.clear()
        entry = memo[id(family)] = FamilyOrbit(family, bonsai._class_invariants[0])
    return entry


REACHED_LIMIT = 4096  # origin sets per tree: a multi-origin set's orbit can be huge


@dataclass
class PartitionOrbit:
    """Compress's representative for one (family, origin count) and the
    Schreier tree of the origin sets its checked σs (``generators``, over
    the family's node order) reach: set -> ``(set, generator)`` it came from."""

    srp: SRP
    refinement: RefinementResult
    origins: FrozenSet[Node]
    shape: Optional["Shape"] = None  # the representative's, built by the first check
    generators: List[Tuple[int, ...]] = field(default_factory=list)
    reached: Dict[FrozenSet[int], Optional[Tuple]] = field(default_factory=dict)

    def extend(self, sigma: Tuple[int, ...]) -> None:
        """Add the generator ``sigma`` and whatever the tree now reaches."""
        generators, reached = self.generators, self.reached
        generators.append(sigma)
        # Breadth first (the loop reads what it appends): short paths.
        pending = [(node, (len(generators) - 1,)) for node in reached]
        for node, which in pending:
            for at in which:
                image = frozenset(map(generators[at].__getitem__, node))
                if image not in reached and len(reached) < REACHED_LIMIT:
                    reached[image] = (node, at)
                    pending.append((image, range(len(generators))))

    def composed(self, node: FrozenSet[int], size: int) -> Tuple[int, ...]:
        """The product of the generators on ``node``'s path (over ``size``
        nodes): it maps the representative's origin set onto ``node``."""
        tau, step = tuple(range(size)), self.reached[node]
        while step is not None:
            node, at = step
            tau, step = tuple(map(tau.__getitem__, self.generators[at])), self.reached[node]
        return tau

    def image(self, entry: FamilyOrbit, srp: SRP, origins) -> Tuple[Optional[Tuple], str]:
        """σ onto ``srp`` (with ``origins``) and how it was found, or
        ``None`` and why there is none."""
        if not self.reached:  # the first check roots the tree
            self.shape = entry.shape_of(self.srp)
            self.reached[frozenset(map(entry.shape.index.__getitem__, self.origins))] = None
        order, index = entry.shape.order, entry.shape.index
        node = frozenset(map(index.__getitem__, origins))
        if node in self.reached:
            return self.composed(node, len(order)), "composed"
        from repro.abstraction import orbit  # loaded by the first σ check
        shape = entry.shape_of(srp)
        sigma = orbit.candidate(self.shape, shape)
        if sigma is None:
            return None, "no-candidate"
        if orbit.isomorphism(sigma, self.shape, shape) is None:
            return None, "not-isomorphic"
        self.extend(tuple(index[sigma[member]] for member in order))
        return self.generators[-1], "checked"


def _local_inputs(family, origins) -> Optional[Counter]:
    """Each origin's (direction, policy) multiset and preferences, which σ keeps;
    ``None`` before the family's refinement inputs exist (anycast-only families)."""
    if family.graph is None:
        return None
    summary, prefs = family.edge_summary, family.pref_sets
    return Counter((tuple(sorted(summary[node][0])), prefs[node]) for node in origins)


def compress(bonsai, equivalence_class) -> CompressionResult:
    """The ``compress`` task's class: ``bonsai.compress(equivalence_class,
    build_network=False)``, or σ(its representative's partition) when it
    is a checked image of it."""
    start = time.perf_counter()
    family = bonsai.policy_keys(equivalence_class.prefix)
    entry = family_orbit(bonsai, family)
    origins = frozenset(equivalence_class.origins)
    orbit = entry.partitions.get(len(origins))
    tau, how = None, "representative" if orbit is None else "no-candidate"
    if orbit is not None and _local_inputs(family, origins) == _local_inputs(family, orbit.origins):
        srp = bonsai.concrete_srp(equivalence_class)
        tau, how = orbit.image(entry, srp, origins)
    if tau is None:
        result = bonsai.compress(equivalence_class, build_network=False)
        if orbit is None:
            orbit = PartitionOrbit(result.concrete_srp, result.refinement, origins)
            entry.partitions[len(origins)] = orbit
        _metrics.counter(f"abstraction.orbit.refined.{how}").inc()
        return result
    order = entry.shape.order
    sigma = dict(zip(order, map(order.__getitem__, tau)))
    if srp.transfer.virtual_edges:
        sigma[VIRTUAL_DESTINATION] = VIRTUAL_DESTINATION
    partition = orbit.refinement.partition.renamed(sigma)
    abstraction = orbit.refinement.abstraction.renamed(
        sigma, srp.graph, partition.canonical_names(), srp.protocol
    )
    splits = {base: len(copies) for base, copies in abstraction.split_groups.items()}
    refinement = RefinementResult(abstraction, partition, 0, time.perf_counter() - start, splits)
    _metrics.counter("abstraction.refinement_cache.hits").inc()
    _metrics.counter(f"abstraction.orbit.mapped.{how}").inc()
    return CompressionResult(equivalence_class, srp, refinement, None, time.perf_counter() - start)
