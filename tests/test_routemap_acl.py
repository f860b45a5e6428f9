"""Unit tests for route maps, prefix lists, community lists and ACLs."""

import pytest

from repro.config import (
    Acl,
    AclLine,
    CommunityList,
    PERMIT_ALL_ACL,
    Prefix,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.config.routemap import DENY_ALL, PERMIT_ALL
from repro.routing import BgpAttribute

DEST = Prefix.parse("10.0.1.0/24")


class TestCommunityList:
    def test_matches_any_listed_community(self):
        clist = CommunityList(name="dept", communities=("65001:1", "65001:2"))
        assert clist.matches(BgpAttribute(communities=frozenset({"65001:2"})))
        assert not clist.matches(BgpAttribute(communities=frozenset({"65001:3"})))


class TestPrefixList:
    def test_exact_match_by_default(self):
        plist = PrefixList(
            name="own", entries=(PrefixListEntry(prefix=Prefix.parse("10.0.1.0/24")),)
        )
        assert plist.permits(DEST)
        assert not plist.permits(Prefix.parse("10.0.1.0/25"))

    def test_le_ge_bounds(self):
        entry = PrefixListEntry(prefix=Prefix.parse("10.0.0.0/8"), ge=16, le=24)
        plist = PrefixList(name="range", entries=(entry,))
        assert plist.permits(Prefix.parse("10.1.0.0/16"))
        assert plist.permits(DEST)
        assert not plist.permits(Prefix.parse("10.0.0.0/8"))
        assert not plist.permits(Prefix.parse("10.0.1.128/25"))

    @pytest.mark.parametrize(
        "ge, le, lengths",
        [
            (None, None, {16}),  # neither: exact
            (24, None, set(range(24, 33))),  # ge alone: up to /32
            (None, 24, set(range(16, 25))),  # le alone: from the entry's length
            (20, 24, set(range(20, 25))),  # both
        ],
    )
    def test_length_range(self, ge, le, lengths):
        entry = PrefixListEntry(prefix=Prefix.parse("10.1.0.0/16"), ge=ge, le=le)
        matched = {n for n in range(33) if entry.matches(Prefix.parse(f"10.1.0.0/{n}"))}
        assert matched == lengths
        assert not entry.matches(Prefix.parse("10.2.0.0/24"))

    def test_first_match_wins_and_implicit_deny(self):
        plist = PrefixList(
            name="mixed",
            entries=(
                PrefixListEntry(prefix=Prefix.parse("10.0.1.0/24"), action="deny"),
                PrefixListEntry(prefix=Prefix.parse("10.0.0.0/8"), action="permit", ge=8, le=32),
            ),
        )
        assert not plist.permits(DEST)
        assert plist.permits(Prefix.parse("10.0.2.0/24"))
        assert not plist.permits(Prefix.parse("172.16.0.0/16"))

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            PrefixListEntry(prefix=DEST, action="allow")


class TestRouteMap:
    def figure10_route_map(self):
        """The route map of Figure 10."""
        return (
            RouteMap(
                name="M",
                clauses=(
                    RouteMapClause(
                        sequence=10,
                        action="permit",
                        match_community_lists=("dept",),
                        set_communities=("65001:3",),
                        set_local_pref=350,
                    ),
                ),
            ),
            {"dept": CommunityList(name="dept", communities=("65001:1", "65001:2"))},
        )

    def test_figure10_semantics(self):
        route_map, clists = self.figure10_route_map()
        tagged = BgpAttribute(communities=frozenset({"65001:1"}))
        result = route_map.evaluate(tagged, DEST, clists, {}, asn="r1")
        assert result.local_pref == 350
        assert result.has_community("65001:3")
        untagged = BgpAttribute()
        assert route_map.evaluate(untagged, DEST, clists, {}, asn="r1") is None

    def test_clauses_sorted_by_sequence(self):
        route_map = RouteMap(
            name="M",
            clauses=(
                RouteMapClause(sequence=20, action="deny"),
                RouteMapClause(sequence=10, action="permit"),
            ),
        )
        assert [clause.sequence for clause in route_map.clauses] == [10, 20]
        assert route_map.evaluate(BgpAttribute(), DEST, {}, {}, asn="r1") is not None

    def test_implicit_deny_when_no_clause_matches(self):
        route_map = RouteMap(
            name="M",
            clauses=(
                RouteMapClause(
                    sequence=10, action="permit", match_community_lists=("missing",)
                ),
            ),
        )
        assert route_map.evaluate(BgpAttribute(), DEST, {}, {}, asn="r1") is None

    def test_prefix_list_match(self):
        route_map = RouteMap(
            name="M",
            clauses=(
                RouteMapClause(
                    sequence=10, action="permit", match_prefix_lists=("own",)
                ),
            ),
        )
        plists = {
            "own": PrefixList(
                name="own", entries=(PrefixListEntry(prefix=DEST),)
            )
        }
        assert route_map.evaluate(BgpAttribute(), DEST, {}, plists, asn="r1") is not None
        assert (
            route_map.evaluate(BgpAttribute(), Prefix.parse("10.0.2.0/24"), {}, plists, asn="r1")
            is None
        )

    def test_delete_community_and_prepend(self):
        route_map = RouteMap(
            name="M",
            clauses=(
                RouteMapClause(
                    sequence=10,
                    action="permit",
                    delete_communities=("old",),
                    prepend_as=2,
                ),
            ),
        )
        attr = BgpAttribute(communities=frozenset({"old", "keep"}))
        result = route_map.evaluate(attr, DEST, {}, {}, asn="r9")
        assert result.communities == frozenset({"keep"})
        assert result.as_path == ("r9", "r9")

    def test_local_pref_values_and_references(self):
        route_map, clists = self.figure10_route_map()
        assert route_map.local_pref_values() == frozenset({350})
        assert route_map.referenced_community_lists() == frozenset({"dept"})
        assert route_map.matched_communities(clists) == frozenset({"65001:1", "65001:2"})
        assert route_map.set_community_values() == frozenset({"65001:3"})

    def test_permit_all_and_deny_all(self):
        assert PERMIT_ALL.evaluate(BgpAttribute(), DEST, {}, {}, asn="x") is not None
        assert DENY_ALL.evaluate(BgpAttribute(), DEST, {}, {}, asn="x") is None

    def test_invalid_action_rejected(self):
        with pytest.raises(ValueError):
            RouteMapClause(sequence=10, action="accept")
        with pytest.raises(ValueError):
            RouteMapClause(sequence=10, prepend_as=-1)


class TestAcl:
    def test_first_match_wins(self):
        acl = Acl(
            name="A",
            lines=(
                AclLine(action="deny", prefix=Prefix.parse("10.0.0.0/8")),
                AclLine(action="permit", prefix=Prefix.parse("0.0.0.0/0")),
            ),
            default_action="permit",
        )
        assert not acl.permits(DEST)
        assert acl.permits(Prefix.parse("192.168.0.0/16"))

    def test_implicit_deny_default(self):
        acl = Acl(name="A", lines=())
        assert not acl.permits(DEST)
        assert PERMIT_ALL_ACL.permits(DEST)

    def test_invalid_actions_rejected(self):
        with pytest.raises(ValueError):
            AclLine(action="drop", prefix=DEST)
        with pytest.raises(ValueError):
            Acl(name="A", default_action="drop")
