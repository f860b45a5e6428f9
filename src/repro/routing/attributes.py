"""Routing-message attributes for the protocols modelled in the paper (§3.2).

Each routing protocol exchanges messages whose contents the paper calls
*attributes*.  A missing route is represented with ``None`` (the paper's
``⊥``), so every attribute class here represents a *present* route.

Attribute classes are immutable (frozen dataclasses) and hashable so that
they can be stored in sets, used as dictionary keys, and compared
structurally in tests.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import FrozenSet, Optional, Tuple

#: The paper's ``⊥`` -- absence of a route.  We use ``None`` throughout.
NO_ROUTE = None


def _hash_once(cls):
    """Class decorator for the frozen attributes the solver keys its memos
    by: the field hash is computed once per object and left out of its
    pickle (string hashes are per process; artifacts are loaded by others)."""
    names = tuple(cls.__dataclass_fields__)
    fields = attrgetter(*names)

    def __hash__(self) -> int:
        try:
            return self.__dict__["_hash"]
        except KeyError:
            value = self.__dict__["_hash"] = hash(fields(self))
            return value

    def __getstate__(self) -> dict:
        return dict(zip(names, fields(self)))

    cls.__hash__, cls.__getstate__ = __hash__, __getstate__
    return cls


def trusted(cls, **fields):
    """An attribute from all its field values, already known to be valid:
    no ``__init__``, no validation.  For the transfer hot path only."""
    attribute = object.__new__(cls)
    attribute.__dict__.update(fields)
    return attribute


@dataclass(frozen=True, order=True)
class RipAttribute:
    """A RIP route: just a hop count in ``[0, 15]`` (16 means unreachable)."""

    hops: int

    #: RIP's maximum usable metric; routes beyond this are dropped.
    MAX_HOPS = 15

    def __post_init__(self) -> None:
        if self.hops < 0:
            raise ValueError("RIP hop count cannot be negative")

    def incremented(self) -> Optional["RipAttribute"]:
        """The attribute after traversing one more hop, or ``None`` if the
        hop-count limit is exceeded (RIP's infinity)."""
        if self.hops + 1 > self.MAX_HOPS:
            return NO_ROUTE
        return RipAttribute(self.hops + 1)


@dataclass(frozen=True)
class OspfAttribute:
    """An OSPF route: accumulated path cost plus an intra/inter-area flag.

    The paper models multi-area OSPF with attributes that are tuples of the
    path cost and a boolean marking inter-area routes; intra-area routes are
    preferred regardless of cost.
    """

    cost: int
    inter_area: bool = False
    area: int = 0

    def __post_init__(self) -> None:
        if self.cost < 0:
            raise ValueError("OSPF cost cannot be negative")

    def with_added_cost(self, link_cost: int) -> "OspfAttribute":
        """The attribute after traversing a link of the given cost."""
        if link_cost < 0:
            raise ValueError("link cost cannot be negative")
        return trusted(
            OspfAttribute, cost=self.cost + link_cost, inter_area=self.inter_area, area=self.area
        )

    def crossing_area(self, new_area: int) -> "OspfAttribute":
        """The attribute after crossing into a different OSPF area."""
        return replace(self, inter_area=True, area=new_area)


#: Default BGP local preference when no policy sets one.
DEFAULT_LOCAL_PREF = 100


@_hash_once
@dataclass(frozen=True)
class BgpAttribute:
    """A BGP route announcement.

    Follows the paper's model ``A = N x 2^N x list(V)``: a local-preference
    value, a set of community tags, and the AS path (a tuple of node names,
    most recent AS first).  Additional fields (MED, origin) exist on real
    announcements but, as in the paper, are omitted because they do not
    change the abstraction theory.
    """

    local_pref: int = DEFAULT_LOCAL_PREF
    communities: FrozenSet[str] = field(default_factory=frozenset)
    as_path: Tuple[str, ...] = ()
    #: Whether this route was learned over an iBGP session.  Real BGP
    #: prefers eBGP-learned over iBGP-learned routes (decision step after
    #: the AS-path length comparison); without this step, two route
    #: reflectors that learn a destination both directly (eBGP) and from
    #: each other (iBGP) tie and "forward" into a transient two-node cycle.
    ibgp_learned: bool = False

    def __post_init__(self) -> None:
        if self.local_pref < 0:
            raise ValueError("local preference cannot be negative")

    @property
    def path_length(self) -> int:
        return len(self.as_path)

    def has_community(self, community: str) -> bool:
        return community in self.communities

    def _copy(self, local_pref, communities, as_path, ibgp_learned) -> "BgpAttribute":
        return trusted(
            BgpAttribute,
            local_pref=local_pref,
            communities=communities,
            as_path=as_path,
            ibgp_learned=ibgp_learned,
        )

    def with_community(self, community: str) -> "BgpAttribute":
        """A copy with ``community`` added (BGP ``set community additive``)."""
        communities = self.communities | {community}
        return self._copy(self.local_pref, communities, self.as_path, self.ibgp_learned)

    def without_community(self, community: str) -> "BgpAttribute":
        """A copy with ``community`` removed (``set comm-list delete``)."""
        communities = self.communities - {community}
        return self._copy(self.local_pref, communities, self.as_path, self.ibgp_learned)

    def with_local_pref(self, local_pref: int) -> "BgpAttribute":
        """A copy with the local preference replaced."""
        if local_pref < 0:
            raise ValueError("local preference cannot be negative")
        return self._copy(local_pref, self.communities, self.as_path, self.ibgp_learned)

    def prepended(self, asn: str) -> "BgpAttribute":
        """A copy with ``asn`` prepended to the AS path (eBGP route export);
        the receiver learns it over eBGP, so the iBGP mark is cleared."""
        return self._copy(self.local_pref, self.communities, (asn,) + self.as_path, False)

    def via_ibgp(self) -> "BgpAttribute":
        """A copy marked as learned over an iBGP session (AS path, local
        preference and communities travel unchanged)."""
        return self._copy(self.local_pref, self.communities, self.as_path, True)

    def contains_as(self, asn: str) -> bool:
        """True if ``asn`` already appears in the AS path (loop detection)."""
        return asn in self.as_path


@dataclass(frozen=True)
class StaticAttribute:
    """A static route.  The paper uses the singleton attribute set {true}."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "StaticAttribute()"


#: Administrative distances used when combining protocols into one RIB
#: (Cisco defaults; lower wins).
ADMIN_DISTANCE = {
    "connected": 0,
    "static": 1,
    "ebgp": 20,
    "ospf": 110,
    "rip": 120,
    "ibgp": 200,
}


@_hash_once
@dataclass(frozen=True)
class RibAttribute:
    """A multi-protocol RIB entry (§6, Multiple Protocols).

    Tracks the per-protocol attributes alongside which protocol currently
    owns the best route (selected by administrative distance).  The
    ``chosen`` field names that protocol; the corresponding per-protocol
    attribute must be present.
    """

    bgp: Optional[BgpAttribute] = None
    ospf: Optional[OspfAttribute] = None
    static: Optional[StaticAttribute] = None
    chosen: Optional[str] = None

    def __post_init__(self) -> None:
        if self.chosen is not None and self.chosen not in ("ebgp", "ibgp", "ospf", "static"):
            raise ValueError(f"unknown protocol {self.chosen!r}")

    @property
    def is_empty(self) -> bool:
        """True if no protocol contributed a route."""
        return self.bgp is None and self.ospf is None and self.static is None

    def best_protocol(self) -> Optional[str]:
        """The protocol with the lowest administrative distance among those
        that have a route."""
        candidates = []
        if self.static is not None:
            candidates.append("static")
        if self.bgp is not None:
            candidates.append("ebgp")
        if self.ospf is not None:
            candidates.append("ospf")
        if not candidates:
            return None
        return min(candidates, key=lambda p: ADMIN_DISTANCE[p])
