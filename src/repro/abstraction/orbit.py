"""Class orbits: a symmetric class takes its partition (``compress``) or
its solutions (cold ``verify``) from its family's representative.

The paper's premise is that real networks are symmetric.  Two classes
of one class family (:class:`~repro.abstraction.refinement.ClassFamily`:
the same specialised policy keys) are often images of each other under
a renaming σ of the nodes -- every ToR of a fat-tree is.  Per family and
origin count a run's first class is the *representative*; a later one
is its image when σ, found and checked in O(E), maps the
representative's concrete SRP onto the class's:

* **a candidate σ exists.**  Both SRPs are cut into cells -- a node's
  BFS distance from the destination, its local-preference set and the
  multiset of its out-edge colours -- and nodes are paired by name order
  within each cell.  An edge's *colour* is what the transfer reads about
  it except node identity: the family's policy key, the compiled edge's
  flags and whether it leads to the virtual destination
  (``no-candidate`` when the cells differ);
* **σ is an isomorphism** (``not-isomorphic`` otherwise): every edge
  maps to an edge of equal colour, local-preference sets, destination
  and origins map onto themselves, and ASNs map consistently, so AS
  paths are renamed through it.

**Compress** (:mod:`repro.abstraction.partition_orbit`).  Those checks
cover everything refinement reads -- edge policy keys (the virtual
destination's edges carry one constant key), local-preference sets,
destination, origins -- so σ is an automorphism of refinement's input.
Its output, the coarsest stable partition below {destination} / {the
rest}, does not depend on the order nodes are examined in, so σ(P_rep)
*is* the class's partition: exact, not merely effective.

**Cold verify** (:class:`ClassOrbit`) maps both solutions.  Renaming can
reorder a tie the solver broke by ``repr``, so the representative's
solve logs its ties and σ is taken only if each breaks the same way
renamed (``tie-order``).  The abstract side maps through σ_abs, the map
σ induces on the two partitions (each group onto one group of its size,
split copies by index; ``partition`` otherwise), checked as σ is, with
the abstract names as ASNs and an abstract edge coloured by its flags
and its route maps as :func:`~repro.config.transfer.specialize_route_map`
keys them.

Anything that fails computes itself: the orbit is never a weakened
check.  A route map that sets or deletes a community nobody matches
colours its edge by the edge itself.  Failure and change units
re-solve from their baseline's transfer memo, which a mapped solution
does not carry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.partition_orbit import FamilyOrbit, family_orbit
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
    """One solved SRP of the representative, as its images need it."""

    shape: Shape
    labeling: Dict
    forwarding: Dict
    ties: "Ties"


@dataclass
class Representative:
    """The first class of a family: both solutions and its partition."""

    concrete: Solved
    abstraction: Optional[NetworkAbstraction] = None
    abstract: Optional[Solved] = None


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
    alpha: Dict[str, str] = {}
    for node, asn in a.asn.items():
        image = b.asn.get(sigma[node])
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
# Cold verify: both solutions per orbit
# ----------------------------------------------------------------------
class ClassOrbit:
    """One class's two solves: each taken from its family's
    representative when σ checks out, solved otherwise.  ``mapped`` lists
    the sides taken; ``reason`` says why the first side that solved itself
    did (``None``: neither did)."""

    def __init__(self, bonsai, equivalence_class):
        self.bonsai = bonsai
        self.equivalence_class = equivalence_class
        self.mapped: List[str] = []
        self.reason: Optional[str] = None
        self._family: Optional[FamilyOrbit] = None
        #: This class's origin count: its representative's key.
        self._origins = 0
        #: This class's solutions, when it is its family's first class.
        self._new: Optional[Representative] = None
        self._sigma: Optional[Sigma] = None

    def _solve(self, reason: str, srp: SRP) -> Solution:
        if self.reason is None:
            self.reason = reason
        return solve(srp)

    def _take(self, side: str, solved: Solved, sigma: Sigma, shape: Shape, srp: SRP) -> Solution:
        """``solved`` mapped onto ``srp`` if ``sigma`` checks out against
        ``shape`` (``srp``'s), else ``srp`` solved."""
        alpha = isomorphism(sigma, solved.shape, shape)
        if alpha is None:
            return self._solve("not-isomorphic", srp)
        rename = Renamer(alpha)
        if not rename.ties_hold(solved.ties):
            return self._solve("tie-order", srp)
        self.mapped.append(side)
        return mapped_solution(srp, solved, sigma, rename)

    def solve_concrete(self, srp: SRP) -> Solution:
        """The class's concrete solution (its ``TaskBaseline`` solver)."""
        family = self.bonsai.policy_keys(self.equivalence_class.prefix)
        entry = self._family = family_orbit(self.bonsai, family)
        shape = entry.shape_of(srp)
        self._origins = len(shape.origins)
        representative = entry.representatives.get(self._origins)
        if representative is None:
            self.reason = "representative"
            solution, solved = solve_logged(srp, shape)
            self._new = Representative(solved)
            return solution
        solved = representative.concrete
        sigma = candidate(solved.shape, shape)
        if sigma is None:
            return self._solve("no-candidate", srp)
        solution = self._take("concrete", solved, sigma, shape, srp)
        if self.mapped:
            self._sigma = sigma
        return solution

    def abstract_solver(self, abstraction) -> Callable[[SRP], Solution]:
        """The abstract arm's solver for the class's ``abstraction``."""
        return lambda srp: self._solve_abstract(abstraction, srp)

    def _solve_abstract(self, abstraction, srp: SRP) -> Solution:
        entry, new = self._family, self._new
        if new is None and self._sigma is None:
            return solve(srp)
        shape = abstract_shape(srp, entry.abstract_numbers)
        if new is not None:
            new.abstraction = abstraction
            solution, new.abstract = solve_logged(srp, shape)
            entry.representatives[self._origins] = new
            return solution
        representative = entry.representatives[self._origins]
        sigma = induced_sigma(self._sigma, representative.abstraction, abstraction)
        if sigma is None:
            return self._solve("partition", srp)
        return self._take("abstract", representative.abstract, sigma, shape, srp)

    def count(self) -> None:
        """Add this class to the ``verify.orbit.*`` counters."""
        for side in self.mapped:
            _metrics.counter(f"verify.orbit.mapped.{side}").inc()
        if self.reason is not None:
            _metrics.counter(f"verify.orbit.solved.{self.reason}").inc()


def induced_sigma(sigma: Sigma, source, target) -> Optional[Sigma]:
    """σ_abs: ``sigma`` through the partitions of the ``source`` and
    ``target`` abstractions -- each source group onto one target group of
    its size, split copies by index -- or ``None`` when they do not
    correspond."""
    node_map = target.node_map
    bases = set(source.node_map.values())
    if len(bases) != len(set(node_map.values())):
        return None
    induced: Sigma = {VIRTUAL_DESTINATION: VIRTUAL_DESTINATION}
    images = set()
    for base in bases:
        members = source.concrete_nodes(base)
        image = {node_map.get(sigma[member]) for member in members}
        if len(image) != 1:
            return None
        image = image.pop()
        if image is None or image in images:
            return None
        copies, image_copies = source.copies_of(base), target.copies_of(image)
        if len(copies) != len(image_copies) or len(target.concrete_nodes(image)) != len(members):
            return None
        images.add(image)
        induced.update(zip(copies, image_copies))
    return induced
