"""A class family's orbit records: per origin count, one representative
(the run's first class of that count) and the Schreier tree of the
origin sets its checked σs reach.  Every class finds its σ against this
record (:class:`repro.abstraction.orbit.ClassOrbit`); ``compress``, the
sweeps' and the store's class baselines map its partition through σ,
and cold ``verify`` also its two logged solves, which sit on it.  The
memo (:func:`family_orbit`) sits on the run's ``Bonsai``, refers to
nothing back and is dropped when the run ends.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.abstraction.refinement import RefinementResult
from repro.srp.instance import SRP
from repro.topology.graph import Node


@dataclass
class FamilyOrbit:
    """One class family's representatives, per origin count: a class
    maps only onto a class with as many."""

    #: Held so that the family's id is not reused while the entry lives.
    family: object
    #: The network's unused communities (:class:`FamilyShape` reads them).
    unused: FrozenSet[str]
    #: The family's :class:`~repro.abstraction.orbit.FamilyShape`, built by its first check.
    shape: Optional[object] = None
    #: Colour numbering of the family's abstract SRPs.
    abstract_numbers: Dict[Hashable, int] = field(default_factory=dict)
    partitions: Dict[int, "PartitionOrbit"] = field(default_factory=dict)


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
    """The representative of one (family, origin count): its SRP, its
    refinement, cold verify's two logged solves (``None`` in other runs),
    and the Schreier tree of the origin sets its checked σs
    (``generators``, over the family's node order) reach: set -> ``(set,
    generator)`` it came from."""

    srp: SRP
    refinement: Optional[RefinementResult]
    origins: FrozenSet[Node]
    concrete: Optional[object] = None  # verify's Solveds (repro.abstraction.orbit)
    abstract: Optional[object] = None
    shape: Optional[object] = None  # the representative's Shape, built by the first check
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
