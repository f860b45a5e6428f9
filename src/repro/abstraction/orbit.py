"""Class orbits: every class task takes a symmetric class's partition,
and cold ``verify`` also its two solutions, from its family's
representative through one σ per class (:class:`ClassOrbit`).

The paper's premise is that real networks are symmetric.  Two classes
of one class family (:class:`~repro.abstraction.refinement.ClassFamily`:
the same specialised policy keys) are often images of each other under
a renaming σ of the nodes -- every ToR of a fat-tree is.  Per family and
origin count a run's first class is the *representative*
(:mod:`repro.abstraction.partition_orbit` keeps its record); a later
class finds σ once, by one method:

* **the local filter.**  Each origin's (direction, policy) multiset and
  local preferences in the family's refinement inputs, which every σ
  keeps, must match the representative's (``no-candidate`` otherwise,
  before any shape is built);
* **the Schreier tree.**  A class whose origin set the checked σs
  already reach takes their product, unchecked: a product of
  automorphisms of the family's shape is one (``composed``);
* **one check** (``checked``).  Both SRPs are cut into cells -- a node's
  BFS distance from the destination, its local-preference set and the
  multiset of its out-edge colours -- and :func:`candidate` pairs nodes
  by name order within each cell (``no-candidate`` when the cells
  differ).  An edge's *colour* is what the transfer reads about it
  except node identity: the family's policy key, the compiled edge's
  flags and whether it leads to the virtual destination.
  :func:`isomorphism` then checks that every edge maps to an edge of
  equal colour, local-preference sets, destination and origins map onto
  themselves, and ASNs map consistently (:func:`renaming`), so AS paths
  are renamed through it (``not-isomorphic`` otherwise).

**The partition** (:meth:`ClassOrbit.compress`: the ``compress`` task,
cold ``verify``, and the class baselines of ``failures``, ``delta`` and
``store save``).  Those checks cover everything refinement reads -- edge
policy keys (the virtual destination's edges carry one constant key),
local-preference sets, destination, origins -- so σ is an automorphism
of refinement's input.  Its output, the coarsest stable partition below
{destination} / {the rest}, does not depend on the order nodes are
examined in, so σ(P_rep) *is* the class's partition: exact, not merely
effective.

**The solutions** (cold ``verify``).  Renaming can reorder a tie the
solver broke by ``repr``, so the representative's solves log their ties
and each side maps only if each breaks the same way renamed
(``tie-order``).  The concrete side maps through σ, with the ASN
renaming σ induces.  The abstract side maps through σ_abs, the renaming
of abstract nodes the mapped partition is (split copies by index), and
is checked as σ is: the abstract SRP picks representative edges by name,
so it is not σ-isomorphic by construction.  Its shape takes the
abstract names as ASNs and colours an abstract edge by its flags and
its route maps as :func:`~repro.config.transfer.specialize_route_map`
keys them.

Anything that fails computes itself: the orbit is never a weakened
check.  A route map that sets or deletes a community nobody matches
colours its edge by the edge itself.  Failure views and delta
recompressions refine on their own ``Bonsai``; failure and change units
re-solve from their baseline's transfer memo, which a mapped solution
does not carry.
"""

from __future__ import annotations

import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.abstraction.bonsai import CompressionResult
from repro.abstraction.partition_orbit import FamilyOrbit, PartitionOrbit, family_orbit
from repro.abstraction.refinement import RefinementResult
from repro.config.transfer import (
    VIRTUAL_DESTINATION,
    specialize_route_map,
    srp_origins,
)
from repro.obs import metrics as _metrics
from repro.routing.attributes import BgpAttribute, RibAttribute, trusted
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import _attribute_sort_key, solve
from repro.topology.graph import Edge, Node

Sigma = Dict[Node, Node]


@dataclass
class Shape:
    """What σ is found and checked on: an SRP's coloured edges, cells,
    local preferences, destination, origins and ASNs."""

    colours: Dict[Edge, int]
    prefs: Dict[Node, tuple]
    destination: Node
    origins: FrozenSet[Node]
    asn: Dict[Node, str]
    #: Cell key -> its nodes in name order (concrete side only).
    cells: Dict[Hashable, List[Node]] = field(default_factory=dict)


@dataclass
class Solved:
    """One solved SRP of the representative, as its images need it (the
    abstract one with its shape: σ_abs is checked against it)."""

    shape: Optional[Shape]
    labeling: Dict
    forwarding: Dict
    ties: "Ties"


# ----------------------------------------------------------------------
# Shapes
# ----------------------------------------------------------------------
def _bfs_distances(srp: SRP) -> Dict[Node, int]:
    """Hops from the destination, against the edges (routes flow from
    ``v`` to ``u`` over ``(u, v)``)."""
    graph = srp.graph
    distance = {srp.destination: 0}
    frontier = [srp.destination]
    while frontier:
        reached = []
        for node in frontier:
            for neighbour, _ in graph.in_edges(node):
                if neighbour not in distance:
                    distance[neighbour] = distance[node] + 1
                    reached.append(neighbour)
        frontier = reached
    return distance


class FamilyShape:
    """What every concrete SRP of one family shares: the network's edges
    coloured, each node's local preferences and out-edge colour multiset,
    its ASN and the node name order.  A family fixes the policy keys and
    the compiled edges' flags, so only the destination (and, for several
    origins, the virtual destination's edges) differs between classes."""

    def __init__(self, srp: SRP, family, unused: FrozenSet[str]):
        transfer = srp.transfer
        compiled = transfer.compiled
        network = transfer.network
        graph = network.graph
        #: Colour -> number; the virtual destination's edges are 0.
        self.numbers: Dict[Hashable, int] = {("virtual",): 0}
        untracked: Dict[int, bool] = {}

        def touches_unused(route_map) -> bool:
            if route_map is None or not unused:
                return False
            hit = untracked.get(id(route_map))
            if hit is None:
                hit = untracked[id(route_map)] = any(
                    unused.intersection(clause.set_communities + clause.delete_communities)
                    for clause in route_map.clauses
                )
            return hit

        def colour_of(edge: Edge) -> Hashable:
            info = compiled.get(edge)
            if info is None:
                return None
            tags = touches_unused(info.export_map) or touches_unused(info.import_map)
            return (
                family.get(edge), info.has_bgp, info.ibgp, info.has_ospf, info.ospf_cost,
                info.has_static, info.acl_permits, edge if tags else None,
            )

        numbers = self.numbers
        self.colours = {
            edge: numbers.setdefault(colour_of(edge), len(numbers)) for edge in graph.edges
        }
        self.prefs = {node: srp.prefs(node) for node in graph.nodes}
        self.multiset = {
            node: tuple(sorted(self.colours[edge] for edge in graph.out_edges(node)))
            for node in graph.nodes
        }
        self.asn = {node: network.devices[node].asn or str(node) for node in graph.nodes}
        self.order = sorted(graph.nodes, key=str)
        self.index = {node: at for at, node in enumerate(self.order)}  # σ as a tuple indexes it

    def shape(self, srp: SRP) -> Shape:
        """``srp``'s shape, its cells included."""
        colours, prefs, multiset, order = self.colours, self.prefs, self.multiset, self.order
        virtual = srp.transfer.virtual_edges
        if virtual:
            colours = {**colours, **dict.fromkeys(virtual, 0)}
            prefs = {**prefs, VIRTUAL_DESTINATION: srp.prefs(VIRTUAL_DESTINATION)}
            multiset = {
                **multiset,
                VIRTUAL_DESTINATION: (),
                **{origin: tuple(sorted(multiset[origin] + (0,))) for origin, _ in virtual},
            }
            order = order + [VIRTUAL_DESTINATION]
        shape = Shape(
            colours=colours,
            prefs=prefs,
            destination=srp.destination,
            origins=frozenset(srp_origins(srp)),
            asn=self.asn,
        )
        distance = _bfs_distances(srp)
        cells = shape.cells
        for node in order:
            cells.setdefault((distance.get(node, -1), prefs[node], multiset[node]), []).append(node)
        return shape


def abstract_shape(srp: SRP, numbers: Dict) -> Shape:
    """An abstract SRP's shape (no cells: σ_abs comes from the
    partitions): each edge coloured by its compiled flags and its route
    maps as specialised for the destination on their devices."""
    transfer = srp.transfer
    compiled, virtual = transfer.compiled, transfer.virtual_edges
    devices, destination = transfer.network.devices, transfer.destination
    graph = srp.graph
    keys: Dict = {}

    def specialised(route_map, device) -> int:
        key = (id(route_map), id(device))
        number = keys.get(key)
        if number is None:
            behaviour = ("route map", specialize_route_map(route_map, device, destination))
            number = keys[key] = numbers.setdefault(behaviour, len(numbers))
        return number

    def colour_of(edge: Edge) -> Hashable:
        if edge in virtual:
            return ("virtual",)
        info = compiled.get(edge)
        if info is None:
            return None
        receiver, sender = edge
        return (
            info.has_bgp, info.ibgp, info.has_ospf, info.ospf_cost, info.has_static,
            info.acl_permits, specialised(info.export_map, devices[sender]),
            specialised(info.import_map, devices[receiver]),
        )

    return Shape(
        colours={
            edge: numbers.setdefault(colour_of(edge), len(numbers)) for edge in graph.edges
        },
        prefs={node: srp.prefs(node) for node in graph.nodes},
        destination=srp.destination,
        origins=frozenset(srp_origins(srp)),
        # A view device has no AS number of its own: its name is its AS.
        asn={node: devices[node].asn or str(node) for node in graph.nodes if node in devices},
    )


# ----------------------------------------------------------------------
# σ: candidate, check, mapping
# ----------------------------------------------------------------------
def candidate(a: Shape, b: Shape) -> Optional[Sigma]:
    """Pair the nodes of equal cells by name order, or ``None`` when the
    cells differ."""
    if a.cells.keys() != b.cells.keys():
        return None
    sigma: Sigma = {}
    for key, members in a.cells.items():
        images = b.cells[key]
        if len(images) != len(members):
            return None
        sigma.update(zip(members, images))
    return sigma


def isomorphism(sigma: Sigma, a: Shape, b: Shape) -> Optional[Dict[str, str]]:
    """The ASN renaming that, with ``sigma``, maps ``a`` onto ``b`` -- or
    ``None`` when ``sigma`` is not a colour-preserving isomorphism.
    ``sigma`` must be injective on ``a``'s nodes."""
    if len(a.prefs) != len(b.prefs) or len(a.colours) != len(b.colours):
        return None
    if sigma.get(a.destination) != b.destination:
        return None
    if frozenset(sigma.get(origin) for origin in a.origins) != b.origins:
        return None
    prefs = b.prefs
    for node, node_prefs in a.prefs.items():
        if prefs.get(sigma.get(node)) != node_prefs:
            return None
    colours = b.colours
    for (u, v), colour in a.colours.items():
        if colours.get((sigma[u], sigma[v])) != colour:
            return None
    return renaming(sigma, a.asn, b.asn)


def renaming(sigma: Sigma, a_asn: Dict[Node, str], b_asn: Dict[Node, str]) -> Optional[Dict]:
    """The ASN renaming ``sigma`` carries ``a_asn`` onto ``b_asn`` by, or
    ``None`` when it is not a consistent bijection."""
    alpha: Dict[str, str] = {}
    for node, asn in a_asn.items():
        image = b_asn.get(sigma[node])
        if image is None or alpha.setdefault(asn, image) != image:
            return None
    return alpha if len(set(alpha.values())) == len(alpha) else None


class Renamer:
    """Attributes with their AS paths renamed through ``alpha``: one
    object per source object, so equal sources stay shared."""

    def __init__(self, alpha: Dict[str, str]):
        self.alpha = alpha
        self._memo: Dict[int, tuple] = {}

    def __call__(self, attr):
        if attr is None:
            return None
        entry = self._memo.get(id(attr))
        if entry is None:
            renamed, bgp = attr, attr.bgp
            path = () if bgp is None else self.path(bgp.as_path)
            if path != (() if bgp is None else bgp.as_path):
                renamed = trusted(
                    RibAttribute,
                    bgp=trusted(
                        BgpAttribute,
                        local_pref=bgp.local_pref,
                        communities=bgp.communities,
                        as_path=path,
                        ibgp_learned=bgp.ibgp_learned,
                    ),
                    ospf=attr.ospf,
                    static=attr.static,
                    chosen=attr.chosen,
                )
            # The entry holds the source: its id is not reused meanwhile.
            entry = self._memo[id(attr)] = (attr, renamed)
        return entry[1]

    def path(self, as_path: Tuple[str, ...]) -> Tuple[str, ...]:
        return tuple(map(self.alpha.__getitem__, as_path))

    def sort_keys(self, ties: "Ties") -> List[str]:
        """The solver's sort keys of ``ties``' attributes, renamed.  A
        renamed attribute differs from its source in the AS path alone,
        so its key is the source's with the path's ``repr`` replaced:
        the last ``as_path=`` of a key is the BGP field's (the
        communities' come before it, the OSPF and static fields have
        none)."""
        keys = []
        for attr, key in zip(ties.attributes, ties.keys):
            bgp = attr.bgp
            path = () if bgp is None else self.path(bgp.as_path)
            if path != (() if bgp is None else bgp.as_path):
                head, found, tail = key.rpartition(f"as_path={bgp.as_path!r}")
                key = f"{head}as_path={path!r}{tail}" if found else _attribute_sort_key(self(attr))
            keys.append(key)
        return keys

    def ties_hold(self, ties: "Ties") -> bool:
        """Whether, renamed, every logged decision still goes to its
        chosen attribute: the solver picks the ``repr``-least of a tied
        set (strictly least: an equal key would leave it to offer order)."""
        keys = self.sort_keys(ties)
        key = keys.__getitem__
        return all(keys[chosen] < min(map(key, others)) for chosen, others in ties.decisions)


@dataclass(frozen=True)
class Ties:
    """A :func:`~repro.srp.solver.solve` tie log as the check reads it:
    the attributes it names, and each distinct decision as ``(chosen,
    others)`` indices into them."""

    attributes: Tuple
    decisions: Tuple[Tuple[int, Tuple[int, ...]], ...]
    #: Each attribute's sort key, as the solver compared them.
    keys: Tuple[str, ...]

    @classmethod
    def from_log(cls, tie_log: List) -> "Ties":
        index: Dict[int, int] = {}
        attributes: List = []

        def position(attr) -> int:
            at = index.get(id(attr))
            if at is None:
                at = index[id(attr)] = len(attributes)
                attributes.append(attr)
            return at

        decisions = {
            (position(chosen), tuple(sorted(position(a) for a in tied if a != chosen))): None
            for _, chosen, tied in tie_log
        }
        return cls(
            tuple(attributes), tuple(decisions), tuple(map(_attribute_sort_key, attributes))
        )


def mapped_solution(srp: SRP, solved: Solved, sigma: Sigma, rename: Renamer) -> Solution:
    """``solved``'s labeling and forwarding carried onto ``srp`` by
    ``sigma``.  A node's forwarding edges keep the representative's
    order: like the solver's out-edge order, it carries no meaning."""
    source = {image: node for node, image in sigma.items()}
    labeling = {node: rename(solved.labeling[source[node]]) for node in srp.graph.nodes}
    labeling[srp.destination] = srp.initial
    forwarding = {
        sigma[node]: tuple((sigma[u], sigma[v]) for u, v in edges)
        for node, edges in solved.forwarding.items()
    }
    solution = Solution(srp=srp, labeling=labeling)
    solution.forwarding = forwarding
    return solution


def solve_logged(srp: SRP, shape: Shape) -> Tuple[Solution, Solved]:
    """Solve ``srp`` as a representative: with its ties logged."""
    ties: List = []
    solution = solve(srp, tie_log=ties)
    return solution, Solved(shape, solution.labeling, solution.forwarding, Ties.from_log(ties))


# ----------------------------------------------------------------------
# One σ per class
# ----------------------------------------------------------------------
def _local_inputs(family, origins) -> Optional[Counter]:
    """Each origin's (direction, policy) multiset and preferences, which σ keeps;
    ``None`` before the family's refinement inputs exist (anycast-only families)."""
    if family.graph is None:
        return None
    summary, prefs = family.edge_summary, family.pref_sets
    return Counter((tuple(sorted(summary[node][0])), prefs[node]) for node in origins)


def _shape(entry: FamilyOrbit, srp: SRP) -> Shape:
    if entry.shape is None:
        entry.shape = FamilyShape(srp, entry.family, entry.unused)
    return entry.shape.shape(srp)


class ClassOrbit:
    """One class's σ from its family's representative, found once on the
    class's concrete SRP, and what its task takes through it: the
    partition (:meth:`compress`) and, on cold verify, both solutions
    (:meth:`solve_concrete`, :meth:`solve_abstract`).  ``how`` says how σ
    was found or why there is none; ``mapped`` lists the solves taken and
    ``reason`` why the first solve that ran itself did (``None``: none did)."""

    def __init__(self, bonsai, equivalence_class):
        self.bonsai = bonsai
        self.equivalence_class = equivalence_class
        self.origins = frozenset(equivalence_class.origins)
        self.how: Optional[str] = None
        self.sigma: Optional[Sigma] = None
        self.mapped: List[str] = []
        self.reason: Optional[str] = None
        self._entry: Optional[FamilyOrbit] = None
        #: The family's representative record (when this class is it, a new
        #: one that :meth:`compress` registers).
        self._record: Optional[PartitionOrbit] = None
        #: σ_abs: the mapped partition's renaming of abstract nodes.
        self._abstract_sigma: Optional[Sigma] = None

    def _find(self, srp: SRP) -> None:
        """σ onto ``srp``, the class's concrete SRP, looked for once."""
        if self.how is not None:
            return
        family = self.bonsai.policy_keys(self.equivalence_class.prefix)
        entry = self._entry = family_orbit(self.bonsai, family)
        record = self._record = entry.partitions.get(len(self.origins))
        if record is None:
            self.how, self._record = "representative", PartitionOrbit(srp, None, self.origins)
            return
        if _local_inputs(family, self.origins) != _local_inputs(family, record.origins):
            self.how = "no-candidate"
            return
        if not record.reached:  # the first check roots the tree
            record.shape = _shape(entry, record.srp)
            record.reached[frozenset(map(entry.shape.index.__getitem__, record.origins))] = None
        order, index = entry.shape.order, entry.shape.index
        node = frozenset(map(index.__getitem__, self.origins))
        if node in record.reached:
            self.how, tau = "composed", record.composed(node, len(order))
        else:
            shape = _shape(entry, srp)
            sigma = candidate(record.shape, shape)
            if sigma is None or isomorphism(sigma, record.shape, shape) is None:
                self.how = "no-candidate" if sigma is None else "not-isomorphic"
                return
            record.extend(tuple(index[sigma[member]] for member in order))
            self.how, tau = "checked", record.generators[-1]
        self.sigma = dict(zip(order, map(order.__getitem__, tau)))
        if srp.transfer.virtual_edges:
            self.sigma[VIRTUAL_DESTINATION] = VIRTUAL_DESTINATION

    def compress(self, srp: SRP) -> CompressionResult:
        """The class's compression (``srp``: its concrete SRP): σ(the
        representative's partition), or ``Bonsai.compress`` with no σ."""
        start = time.perf_counter()
        self._find(srp)
        record, sigma = self._record, self.sigma
        if sigma is None:
            result = self.bonsai.compress(self.equivalence_class, build_network=False, srp=srp)
            if self.how == "representative":
                record.refinement = result.refinement
                self._entry.partitions[len(self.origins)] = record
            _metrics.counter(f"abstraction.orbit.refined.{self.how}").inc()
            return result
        partition = record.refinement.partition.renamed(sigma)
        abstraction, rho = record.refinement.abstraction.renamed(
            sigma, srp.graph, partition.canonical_names(), srp.protocol
        )
        self._abstract_sigma = {VIRTUAL_DESTINATION: VIRTUAL_DESTINATION, **rho}
        splits = {base: len(copies) for base, copies in abstraction.split_groups.items()}
        seconds = time.perf_counter() - start
        refinement = RefinementResult(abstraction, partition, 0, seconds, splits)
        _metrics.counter("abstraction.refinement_cache.hits").inc()
        _metrics.counter(f"abstraction.orbit.mapped.{self.how}").inc()
        return CompressionResult(
            self.equivalence_class, srp, refinement, None, time.perf_counter() - start
        )

    def _solve(self, reason: str, srp: SRP) -> Solution:
        if self.reason is None:
            self.reason = reason
        return solve(srp)

    def _take(self, side: str, solved: Solved, sigma: Sigma, alpha, srp: SRP) -> Solution:
        """``solved`` mapped onto ``srp`` through ``sigma`` and the ASN
        renaming ``alpha`` if there is one and the ties hold, else solved."""
        if alpha is None:
            return self._solve("not-isomorphic", srp)
        rename = Renamer(alpha)
        if not rename.ties_hold(solved.ties):
            return self._solve("tie-order", srp)
        self.mapped.append(side)
        return mapped_solution(srp, solved, sigma, rename)

    def solve_concrete(self, srp: SRP) -> Solution:
        """The class's concrete solution (its ``TaskBaseline`` solver)."""
        self._find(srp)
        if self.how == "representative":
            self.reason = self.how
            solution, self._record.concrete = solve_logged(srp, None)
            return solution
        if self.sigma is None:
            return self._solve(self.how, srp)
        asn = self._entry.shape.asn
        return self._take(
            "concrete", self._record.concrete, self.sigma, renaming(self.sigma, asn, asn), srp
        )

    def solve_abstract(self, srp: SRP) -> Solution:
        """The abstract arm's solver, on the SRP of :meth:`compress`'s partition."""
        if self.how != "representative" and self.sigma is None:
            return solve(srp)
        shape = abstract_shape(srp, self._entry.abstract_numbers)
        if self.how == "representative":
            solution, self._record.abstract = solve_logged(srp, shape)
            return solution
        solved, sigma = self._record.abstract, self._abstract_sigma
        return self._take("abstract", solved, sigma, isomorphism(sigma, solved.shape, shape), srp)

    def count(self) -> None:
        """Add this class to the ``verify.orbit.*`` counters."""
        for side in self.mapped:
            _metrics.counter(f"verify.orbit.mapped.{side}").inc()
        if self.reason is not None:
            _metrics.counter(f"verify.orbit.solved.{self.reason}").inc()
