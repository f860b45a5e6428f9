"""Route maps, community lists and prefix lists (vendor-independent IR).

These classes model the configuration primitives the paper's example in
Figure 10 uses::

    ip community-list dept permit 65001:1
    ip community-list dept permit 65001:2
    route-map M 10
      match community dept
      set community 65001:3 additive
      set local-preference 350

A :class:`RouteMap` is an ordered list of clauses; the first clause whose
match conditions all hold determines the outcome (permit with its actions
applied, or deny).  A route matching no clause is dropped, mirroring the
implicit deny of real route maps.

Route maps operate on :class:`~repro.routing.attributes.BgpAttribute`
values together with the destination prefix of the announcement (the SRP
is per destination, so the prefix is supplied separately).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Optional, Tuple

from repro.config.prefix import Prefix
from repro.routing.attributes import BgpAttribute


@dataclass(frozen=True)
class CommunityList:
    """A named list of community values (all entries are permits)."""

    name: str
    communities: Tuple[str, ...] = ()

    def matches(self, attribute: BgpAttribute) -> bool:
        """True if the announcement carries any listed community."""
        return any(community in attribute.communities for community in self.communities)


@dataclass(frozen=True)
class PrefixListEntry:
    """One ``ip prefix-list`` line.

    Matches destination prefixes covered by ``prefix`` whose length is
    within ``[ge, le]``, as on real routers: with neither bound the match
    is exact, ``ge`` alone reaches up to /32 and ``le`` alone starts at
    the entry's own length.
    """

    prefix: Prefix
    action: str = "permit"
    ge: Optional[int] = None
    le: Optional[int] = None

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise ValueError(f"invalid prefix-list action {self.action!r}")

    def matches(self, destination: Prefix) -> bool:
        low = self.ge if self.ge is not None else self.prefix.length
        if self.le is not None:
            high = self.le
        else:
            high = 32 if self.ge is not None else self.prefix.length
        if not self.prefix.contains(destination):
            return False
        return low <= destination.length <= high


@dataclass(frozen=True)
class PrefixList:
    """A named, ordered list of prefix-list entries (first match wins)."""

    name: str
    entries: Tuple[PrefixListEntry, ...] = ()

    def permits(self, destination: Prefix) -> bool:
        """True if the first matching entry permits ``destination``.

        A destination matching no entry is denied (implicit deny).
        """
        for entry in self.entries:
            if entry.matches(destination):
                return entry.action == "permit"
        return False


@dataclass(frozen=True)
class RouteMapClause:
    """One numbered clause of a route map."""

    sequence: int
    action: str = "permit"
    #: Match if the route carries a community in *any* of these lists.
    match_community_lists: Tuple[str, ...] = ()
    #: Match if the destination prefix is permitted by *any* of these lists.
    match_prefix_lists: Tuple[str, ...] = ()
    set_local_pref: Optional[int] = None
    set_communities: Tuple[str, ...] = ()
    delete_communities: Tuple[str, ...] = ()
    prepend_as: int = 0

    def __post_init__(self) -> None:
        if self.action not in ("permit", "deny"):
            raise ValueError(f"invalid route-map action {self.action!r}")
        if self.prepend_as < 0:
            raise ValueError("prepend count cannot be negative")

    def matches(
        self,
        attribute: BgpAttribute,
        destination: Prefix,
        community_lists: Dict[str, CommunityList],
        prefix_lists: Dict[str, PrefixList],
    ) -> bool:
        """Whether every match condition of this clause holds."""
        if self.match_community_lists:
            if not any(
                community_lists[name].matches(attribute)
                for name in self.match_community_lists
                if name in community_lists
            ):
                return False
        if self.match_prefix_lists:
            if not any(
                prefix_lists[name].permits(destination)
                for name in self.match_prefix_lists
                if name in prefix_lists
            ):
                return False
        return True

    def apply_actions(self, attribute: BgpAttribute, asn: str) -> BgpAttribute:
        """Apply the clause's set/prepend actions to a permitted route."""
        result = attribute
        if self.set_local_pref is not None:
            result = result.with_local_pref(self.set_local_pref)
        for community in self.set_communities:
            result = result.with_community(community)
        for community in self.delete_communities:
            result = result.without_community(community)
        for _ in range(self.prepend_as):
            result = result.prepended(asn)
        return result


@dataclass(frozen=True)
class RouteMap:
    """A named, ordered collection of clauses."""

    name: str
    clauses: Tuple[RouteMapClause, ...] = ()

    def __post_init__(self) -> None:
        ordered = tuple(sorted(self.clauses, key=lambda clause: clause.sequence))
        object.__setattr__(self, "clauses", ordered)

    def __getstate__(self):
        return {"name": self.name, "clauses": self.clauses}

    @cached_property
    def constant(self) -> Optional[str]:
        """``"deny"`` or ``"permit"`` when the map does the same to every
        announcement without looking at it: its first clause has no match
        condition (so always matches, and the map *is* that clause) and
        denies, or permits and rewrites nothing.  Decided once per map,
        never pickled."""
        first = self.clauses[0] if self.clauses else None
        if first is None or first.match_community_lists or first.match_prefix_lists:
            return None
        rewrites = first.set_communities or first.delete_communities or first.prepend_as
        if first.action == "permit" and (rewrites or first.set_local_pref is not None):
            return None
        return first.action

    def evaluate(
        self,
        attribute: BgpAttribute,
        destination: Prefix,
        community_lists: Dict[str, CommunityList],
        prefix_lists: Dict[str, PrefixList],
        asn: str,
    ) -> Optional[BgpAttribute]:
        """Run the route map; ``None`` means the route is denied."""
        for clause in self.clauses:
            if clause.matches(attribute, destination, community_lists, prefix_lists):
                if clause.action == "deny":
                    return None
                return clause.apply_actions(attribute, asn)
        return None

    def local_pref_values(self) -> FrozenSet[int]:
        """Local-preference values this route map can assign."""
        return frozenset(
            clause.set_local_pref
            for clause in self.clauses
            if clause.action == "permit" and clause.set_local_pref is not None
        )

    def referenced_community_lists(self) -> FrozenSet[str]:
        return frozenset(
            name for clause in self.clauses for name in clause.match_community_lists
        )

    def referenced_prefix_lists(self) -> FrozenSet[str]:
        return frozenset(
            name for clause in self.clauses for name in clause.match_prefix_lists
        )

    def matched_communities(self, community_lists: Dict[str, CommunityList]) -> FrozenSet[str]:
        """All community values this route map can *match on* (not set)."""
        values = set()
        for name in self.referenced_community_lists():
            if name in community_lists:
                values.update(community_lists[name].communities)
        return frozenset(values)

    def set_community_values(self) -> FrozenSet[str]:
        """All community values this route map can attach."""
        return frozenset(
            community for clause in self.clauses for community in clause.set_communities
        )


#: A route map that accepts everything unchanged (handy default).
PERMIT_ALL = RouteMap(name="PERMIT-ALL", clauses=(RouteMapClause(sequence=10, action="permit"),))

#: A route map that denies everything.
DENY_ALL = RouteMap(name="DENY-ALL", clauses=(RouteMapClause(sequence=10, action="deny"),))
