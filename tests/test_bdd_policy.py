"""Unit tests for the policy-to-BDD encoder (§5.1, Figure 10)."""

import pytest

from repro.abstraction.bonsai import Bonsai
from repro.bdd import PolicyBddEncoder
from repro.bdd.policy import DEFAULT_BDD_CACHE_LIMIT
from repro.config import Prefix, parse_network
from repro.config.transfer import compile_edges
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology, default_size

#: Two leaves with semantically identical (but differently written)
#: policies, one leaf with a genuinely different policy, and a hub.
NETWORK_TEXT = """
device hub
  bgp-neighbor leaf1 import PREF
  bgp-neighbor leaf2 import PREF
  bgp-neighbor leaf3 import PREF
  community-list dept 65001:1 65001:2
  route-map PREF 10 permit
    match community dept
    set community 65001:3
    set local-preference 350
  route-map PREF 20 permit

device leaf1
  network 10.0.1.0/24
  bgp-neighbor hub export OUT
  route-map OUT 10 permit
    match prefix-list SITE
  prefix-list SITE permit 10.0.0.0/8 ge 8 le 32

device leaf2
  network 10.0.2.0/24
  bgp-neighbor hub export OUT2
  route-map OUT2 5 permit
    match prefix-list SITE2
  prefix-list SITE2 permit 10.0.0.0/8 ge 8 le 32

device leaf3
  network 10.0.3.0/24
  bgp-neighbor hub export OUT3
  route-map OUT3 10 permit
    match prefix-list OWN3
  prefix-list OWN3 permit 10.0.3.0/24

link hub leaf1
link hub leaf2
link hub leaf3
"""

DEST1 = Prefix.parse("10.0.1.0/24")
DEST3 = Prefix.parse("10.0.3.0/24")


@pytest.fixture
def network():
    return parse_network(NETWORK_TEXT)


@pytest.fixture
def encoder(network):
    return PolicyBddEncoder(network)


def test_universe_discovery(encoder):
    stats_before = encoder.stats()
    assert stats_before["communities"] == 2  # 65001:1 and 65001:2 are matched
    assert stats_before["local_pref_values"] == 2  # unchanged + 350


def test_identical_policies_share_bdd(network, encoder):
    compiled = compile_edges(network, DEST1)
    bdd1 = encoder.encode_edge(compiled[("hub", "leaf1")])
    bdd2 = encoder.encode_edge(compiled[("hub", "leaf2")])
    assert bdd1 == bdd2


def test_different_policies_get_different_bdds(network, encoder):
    compiled = compile_edges(network, DEST1)
    bdd_same = encoder.encode_edge(compiled[("hub", "leaf1")])
    bdd_diff = encoder.encode_edge(compiled[("hub", "leaf3")])
    assert bdd_same != bdd_diff


def test_specialization_collapses_prefix_differences(network, encoder):
    """leaf1 and leaf3 export maps differ, but for leaf3's own prefix both
    permit, so the specialized BDDs coincide; for leaf1's prefix they do not."""
    compiled = compile_edges(network, DEST1)
    generic1 = encoder.encode_edge(compiled[("hub", "leaf1")])
    generic3 = encoder.encode_edge(compiled[("hub", "leaf3")])
    assert generic1 != generic3
    specialized_own = encoder.specialize(generic3, DEST3)
    specialized_site = encoder.specialize(generic1, DEST3)
    assert specialized_own == specialized_site
    assert encoder.specialize(generic3, DEST1) != encoder.specialize(generic1, DEST1)


def test_specialized_policy_keys_group_edges(network, encoder):
    keys = encoder.specialized_policy_keys(DEST1)
    assert keys[("hub", "leaf1")] == keys[("hub", "leaf2")]
    assert keys[("hub", "leaf1")] != keys[("hub", "leaf3")]


def test_no_bgp_session_encodes_distinctly(network, encoder):
    network.devices["leaf3"].bgp_neighbors.clear()
    compiled = compile_edges(network, DEST1)
    bdd = encoder.encode_edge(compiled[("leaf3", "hub")])
    other = encoder.encode_edge(compiled[("leaf1", "hub")])
    assert bdd != other


def test_acl_participates_in_policy(network):
    text = NETWORK_TEXT + """
device hub
  acl BLOCK deny 10.0.1.0/24 default permit
  interface-acl leaf1 BLOCK
"""
    blocked = parse_network(text)
    encoder = PolicyBddEncoder(blocked)
    keys = encoder.specialized_policy_keys(DEST1)
    assert keys[("hub", "leaf1")] != keys[("hub", "leaf2")]
    # For an unrelated destination the ACL permits, so the keys match again.
    keys_other = encoder.specialized_policy_keys(Prefix.parse("10.0.2.0/24"))
    assert keys_other[("hub", "leaf1")] == keys_other[("hub", "leaf2")]


def test_encode_all_edges_covers_graph(network, encoder):
    bdds = encoder.encode_all_edges(destination=DEST1)
    assert set(bdds) == set(network.graph.edges)


def test_unique_role_count(network, encoder):
    # hub, leaf1/leaf2 (same role), leaf3 (distinct role) => 3 roles.
    assert encoder.unique_role_count(DEST1) == 3


def test_figure10_local_pref_encoding(network, encoder):
    """The Figure 10 policy maps tagged announcements to lp 350 and
    attaches 65001:3; untagged announcements fall through to clause 20."""
    compiled = compile_edges(network, DEST1)
    bdd = encoder.specialize(encoder.encode_edge(compiled[("hub", "leaf1")]), DEST1)
    manager = encoder.manager
    lp350 = encoder._lp_vars[350]
    c1_in = encoder._community_in["65001:1"]
    c3 = "65001:3"
    # Specialized to leaf1's own prefix nothing is dropped, and an
    # announcement tagged with 65001:1 must come out with lp' = 350.
    tagged_and_not_350 = manager.apply_and(
        bdd, manager.apply_and(manager.var(c1_in), manager.nvar(lp350))
    )
    assert tagged_and_not_350 == 0
    # 65001:3 is attached but never matched on anywhere, so the encoder does
    # not track it at all -- that is the unused-tag abstraction of §8.
    assert c3 not in encoder._community_out


class TestSpecializationCache:
    """The LRU cache reuses cofactors across equivalence classes."""

    def test_repeated_destinations_hit_the_cache(self, network, counter_delta):
        encoder = PolicyBddEncoder(network)
        compiled = compile_edges(network, Prefix.parse("10.0.1.0/24"))
        with counter_delta("bdd.specialize_cache.") as first_counts:
            first = encoder.specialized_policy_keys(Prefix.parse("10.0.1.0/24"), compiled)
        assert first_counts["bdd.specialize_cache.misses"] > 0
        # A destination with the same restriction assignment reuses every
        # cofactor; keys must be identical BDD ids.
        with counter_delta("bdd.specialize_cache.") as again_counts:
            again = encoder.specialized_policy_keys(Prefix.parse("10.0.1.0/24"), compiled)
        assert again == first
        assert again_counts["bdd.specialize_cache.hits"] >= len(compiled)

    def test_cache_respects_limit(self, network):
        encoder = PolicyBddEncoder(network, specialize_cache_limit=2)
        for third_octet in range(8):
            encoder.specialized_policy_keys(Prefix.parse(f"10.0.{third_octet}.0/24"))
        assert len(encoder._specialize_cache) <= 2

    def test_cache_can_be_disabled(self, network, counter_delta):
        encoder = PolicyBddEncoder(network, specialize_cache_limit=0)
        with counter_delta("bdd.specialize_cache.") as counts:
            keys = encoder.specialized_policy_keys(Prefix.parse("10.0.1.0/24"))
        assert keys
        assert len(encoder._specialize_cache) == 0 and counts["bdd.specialize_cache.hits"] == 0

    def test_cached_and_uncached_results_agree(self, network):
        cached = PolicyBddEncoder(network)
        uncached = PolicyBddEncoder(network, specialize_cache_limit=0)
        for third_octet in (1, 2, 1, 3, 1):
            destination = Prefix.parse(f"10.0.{third_octet}.0/24")
            compiled = compile_edges(network, destination)
            a = cached.specialized_policy_keys(destination, compiled)
            b = uncached.specialized_policy_keys(destination, compiled)
            # Same manager state evolution => identical BDD identities.
            assert a == b


class TestManagerCacheLimit:
    """``bdd_cache_limit`` bounds the manager's ite cache without changing
    any partition the encoder's keys decide.  A limit of 4 is below what
    every family's encoding fills, so each run clears the cache."""

    def test_limit_reaches_the_manager(self, network):
        assert PolicyBddEncoder(network).manager.cache_limit == DEFAULT_BDD_CACHE_LIMIT
        assert PolicyBddEncoder(network, bdd_cache_limit=64).manager.cache_limit == 64

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_bounded_cache_gives_the_same_partitions(self, family):
        network = build_topology(family, default_size(family))
        groups = {}
        for limit in (None, 4):
            encoder = PolicyBddEncoder(network, bdd_cache_limit=limit)
            encoder.encode_all_edges()
            bonsai = Bonsai(network, encoder=encoder)
            groups[limit] = [
                frozenset(bonsai.compress(ec, build_network=False).abstraction.groups())
                for ec in bonsai.equivalence_classes()[:4]
            ]
            if limit is not None:
                assert len(encoder.manager._ite_cache) <= limit
        assert groups[None] == groups[4]
