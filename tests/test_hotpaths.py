"""Tests for the hot-path overhaul (PR 3).

Covers the four optimized paths against their reference oracles -- the
worklist SRP solver vs the synchronous sweep, the dirty-group refinement
worklist vs the full rescan -- plus the iterative BDD core's deep-chain
regression, the convergence-failure guarantees, the network-level
memoisation, and the cross-class abstraction reuse.
"""

from __future__ import annotations

import random
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import routable_equivalence_classes
from repro.abstraction.refinement import ClassFamily, find_abstraction_partition
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.config.acl import Acl, AclLine
from repro.config.device import StaticRouteConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import PrefixList, PrefixListEntry, RouteMap, RouteMapClause
from repro.config.transfer import build_srp_from_network
from repro.netgen.base import make_bgp_device, uniform_bgp_network
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology, default_size
from repro.netgen.fattree import fattree_network
from repro.pipeline.report import EcRecord
from repro.srp.instance import SRP
from repro.analysis.dataplane import compute_forwarding_table, forwarding_table_from_solution
from repro.routing import RipAttribute
from repro.srp.solution import Solution
from repro.srp.solver import ConvergenceError, solve, solve_sweep
from repro.topology import ring_topology
from repro.topology.graph import Graph

from test_property_based import random_connected_graph
from refinement_reference import find_abstraction_partition_reference
from test_refinement import bare_srp, refinement_problems


# ----------------------------------------------------------------------
# Strategies (random perturbed eBGP networks, as in test_property_based)
# ----------------------------------------------------------------------
_DENY_IN = RouteMap(name="DENY-IN", clauses=(RouteMapClause(sequence=10, action="deny"),))
_PREF_IN = RouteMap(
    name="PREF-IN",
    clauses=(RouteMapClause(sequence=10, action="permit", set_local_pref=200),),
)


@st.composite
def perturbed_networks(draw):
    graph, nodes = random_connected_graph(draw, max_extra_edges=6)
    network = uniform_bgp_network(graph, name="hotpath-hyp", originators=[nodes[0]])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        device = network.devices[nodes[draw(st.integers(0, len(nodes) - 1))]]
        neighbours = sorted(device.bgp_neighbors)
        if not neighbours:
            continue
        peer = neighbours[draw(st.integers(0, len(neighbours) - 1))]
        route_map = _DENY_IN if draw(st.booleans()) else _PREF_IN
        device.route_maps[route_map.name] = route_map
        device.bgp_neighbors[peer].import_policy = route_map.name
    return network


def _srps_of(network):
    return [
        build_srp_from_network(network, ec.prefix, set(ec.origins))
        for ec in routable_equivalence_classes(network)
    ]


# ----------------------------------------------------------------------
# Worklist solver == sweep oracle
# ----------------------------------------------------------------------
class TestWorklistSolverEquivalence:
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_matches_sweep_on_every_netgen_family(self, family):
        network = build_topology(family, default_size(family))
        for srp in _srps_of(network):
            assert solve(srp).labeling == solve_sweep(srp).labeling

    @settings(max_examples=20, deadline=None)
    @given(perturbed_networks())
    def test_matches_sweep_on_random_perturbed_networks(self, network):
        for srp in _srps_of(network):
            # Random local-pref perturbations can build genuine BGP
            # dispute gadgets that oscillate under synchronous updates;
            # the worklist must then raise exactly when the sweep does.
            try:
                reference = solve_sweep(srp)
            except ConvergenceError:
                with pytest.raises(ConvergenceError):
                    solve(srp)
                continue
            fast = solve(srp)
            assert fast.labeling == reference.labeling
            # Forwarding extraction (via the solver's transfer memo) must
            # also coincide with the oracle's.
            for node in srp.graph.nodes:
                assert sorted(map(str, fast.next_hops(node))) == sorted(
                    map(str, reference.next_hops(node))
                )

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_hands_over_the_forwarding_its_labeling_implies(self, family):
        """``solution.forwarding`` (read off the converged offer tables)
        is what a hand-built solution derives from the same labeling
        through the live transfer; wan has static routes off the origins."""
        network = build_topology(family, default_size(family))
        for srp in _srps_of(network):
            solution = solve(srp)
            assert "forwarding" in vars(solution)  # handed over, not derived
            assert solution.forwarding == Solution(srp, solution.labeling).forwarding

    def test_a_bare_closure_transfer_gets_the_full_first_round(self, figure1_srp):
        calls = []
        transfer = figure1_srp.transfer
        figure1_srp.transfer = lambda edge, label: calls.append(label) or transfer(edge, label)
        solution = solve(figure1_srp)
        reference = solve_sweep(figure1_srp)
        assert solution.labeling == reference.labeling
        assert solution.forwarding == reference.forwarding
        # Round one calls it on all 6 out-edges of a, b1 and b2: the two
        # into d carry its route, the other four no route.
        assert calls[:6].count(None) == 4 and calls[:6].count(RipAttribute(0)) == 2

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_only_declared_edges_offer_a_route_from_no_route(self, family):
        """The contract the first round rests on, on the concrete and the
        compressed network of every class: ``transfer(edge, None)`` is a
        route only over edges ``offers_without_route`` names."""
        network = build_topology(family, default_size(family))
        bonsai = Bonsai(network)
        declared = 0
        for ec in bonsai.equivalence_classes():
            abstract = bonsai.compress(ec, build_network=True).abstract_network
            for srp in [bonsai.concrete_srp(ec), *_srps_of(abstract)]:
                for edge in srp.graph.edges:
                    if srp.transfer.offers_without_route(edge):
                        declared += 1
                    else:
                        assert srp.transfer(edge, None) is None, (family, ec.prefix, edge)
        assert (declared > 0) == (family == "wan")

    def test_scratch_solve_calls_no_transfer_on_a_missing_route(self):
        network = fattree_network(4)
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        labels, prefers = [], []
        transfer, prefer = srp.transfer, srp.prefer

        class Counted:
            offers_without_route = transfer.offers_without_route
            compiled = transfer.compiled

            def __call__(self, edge, label):
                labels.append(label)
                return transfer(edge, label)

        srp.transfer = Counted()
        srp.prefer = lambda a, b: prefers.append(1) or prefer(a, b)
        solution = solve(srp)
        assert labels and None not in labels
        assert all(label is not None for _, label in solution.transfer_cache)
        del labels[:], prefers[:]
        table = forwarding_table_from_solution(solution, ec)
        assert not labels and not prefers
        assert table == compute_forwarding_table(network, ec)

    def test_converges_in_the_same_round_as_the_sweep(self):
        # d - a - b line: labels settle in 2 rounds, round 3 confirms.
        graph = Graph()
        graph.add_undirected_edge("d", "a")
        graph.add_undirected_edge("a", "b")
        network = uniform_bgp_network(graph, name="line", originators=["d"])
        srp = build_srp_from_network(network, Prefix.parse("10.0.0.0/24"), {"d"})
        solve(srp, max_rounds=3)
        solve_sweep(srp, max_rounds=3)
        with pytest.raises(ConvergenceError):
            solve(srp, max_rounds=2)
        with pytest.raises(ConvergenceError):
            solve_sweep(srp, max_rounds=2)


class TestConvergenceFailureIsLoud:
    def _oscillator(self) -> SRP:
        """The classic synchronous flip-flop: x and y invert each other.

        Both hear a constant baseline 10 from the destination.  When a
        node's neighbour holds the baseline it is offered the better 1;
        once the neighbour holds 1 the offer disappears and the neighbour
        falls back to 10 -- so under synchronous updates both nodes flip
        between 1 and 10 forever.
        """
        graph = Graph()
        graph.add_undirected_edge("d", "x")
        graph.add_undirected_edge("x", "y")
        graph.add_undirected_edge("y", "d")

        def transfer(edge, attr):
            _, v = edge
            if v == "d":
                return 10
            if attr == 10:
                return 1
            return None

        def prefer(a, b):
            return a < b

        return SRP(graph=graph, destination="d", initial=0, prefer=prefer, transfer=transfer)

    def test_solver_raises_instead_of_returning_unconverged(self):
        srp = self._oscillator()
        with pytest.raises(ConvergenceError):
            solve(srp, max_rounds=50)
        with pytest.raises(ConvergenceError):
            solve_sweep(srp, max_rounds=50)

    def test_max_rounds_exhaustion_names_the_budget(self):
        srp = self._oscillator()
        with pytest.raises(ConvergenceError, match="50 rounds"):
            solve(srp, max_rounds=50)


# ----------------------------------------------------------------------
# Dirty-group refinement == full-rescan oracle
# ----------------------------------------------------------------------
class TestDirtyGroupRefinementEquivalence:
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_matches_reference_on_every_netgen_family(self, family):
        network = build_topology(family, default_size(family))
        for srp in _srps_of(network):
            fast, _ = find_abstraction_partition(srp)
            reference, _ = find_abstraction_partition_reference(srp)
            assert set(fast.partitions()) == set(reference.partitions())

    @settings(max_examples=15, deadline=None)
    @given(perturbed_networks())
    def test_matches_reference_on_random_perturbed_networks(self, network):
        for srp in _srps_of(network):
            fast, _ = find_abstraction_partition(srp)
            reference, _ = find_abstraction_partition_reference(srp)
            assert set(fast.partitions()) == set(reference.partitions())


# ----------------------------------------------------------------------
# Iterative BDD core: deep chains cannot overflow the recursion limit
# ----------------------------------------------------------------------
class TestIterativeBddDeepChains:
    DEPTH = 1500

    def test_deep_chain_ops_run_without_recursion(self):
        """A policy chain ~1500 variables deep: the old bounded-depth
        recursive ``ite``/``restrict`` exceeded Python's default recursion
        limit (1000) on every one of these operations."""
        manager = BddManager(self.DEPTH)
        chain = TRUE
        # Reverse order keeps construction O(n) while the resulting BDD is
        # a single chain DEPTH nodes deep.
        for var in range(self.DEPTH - 1, -1, -1):
            chain = manager.ite(manager.var(var), chain, FALSE)
        assert manager.size(chain) == self.DEPTH

        negated = manager.apply_not(chain)  # walks the full chain depth
        assert manager.evaluate(negated, {i: True for i in range(self.DEPTH)}) is False

        restricted = manager.restrict(chain, {0: True, self.DEPTH // 2: True})
        assert manager.size(restricted) == self.DEPTH - 2
        assert manager.evaluate(chain, {i: True for i in range(self.DEPTH)}) is True

    def test_deep_route_map_chain_encodes_under_a_tight_recursion_limit(self):
        """A route map with hundreds of distinct prefix-list matches (the
        deep ACL/route-map chain shape) encodes and specializes fine even
        when Python's recursion limit would have stopped the old
        recursive core."""
        clauses = []
        prefix_lists = {}
        depth = 220
        for i in range(depth):
            name = f"PL{i}"
            prefix_lists[name] = PrefixList(
                name=name,
                entries=(
                    PrefixListEntry(
                        prefix=Prefix.parse(f"10.{i % 250}.{i // 250}.0/24"),
                        action="permit",
                    ),
                ),
            )
            clauses.append(
                RouteMapClause(
                    sequence=10 * (i + 1),
                    action="permit" if i % 2 else "deny",
                    match_prefix_lists=(name,),
                )
            )
        chain_map = RouteMap(name="CHAIN", clauses=tuple(clauses))

        graph = Graph()
        graph.add_undirected_edge("a", "b")
        devices = {
            name: make_bgp_device(name=name, neighbours=graph.successors(name))
            for name in graph.nodes
        }
        devices["a"].originated_prefixes.append(Prefix.parse("10.0.0.0/24"))
        devices["b"].route_maps["CHAIN"] = chain_map
        devices["b"].prefix_lists.update(prefix_lists)
        devices["b"].bgp_neighbors["a"].import_policy = "CHAIN"
        network = Network(graph=graph, devices=devices, name="deep-chain")

        bonsai = Bonsai(network)
        limit = sys.getrecursionlimit()
        # Leave only a couple hundred frames of headroom: far below the
        # ~220-variable chain the encoder walks, so the old recursive core
        # would raise RecursionError here.
        sys.setrecursionlimit(300)
        try:
            keys = bonsai.policy_keys(Prefix.parse("10.0.0.0/24"))
        finally:
            sys.setrecursionlimit(limit)
        assert keys  # encoded and specialized without blowing the stack
        destination = Prefix.parse("10.0.0.0/24")
        (ec,) = [ec for ec in bonsai.equivalence_classes() if ec.prefix == destination]
        result = bonsai.compress(ec, build_network=False)
        assert result.abstract_nodes >= 1


# ----------------------------------------------------------------------
# Hand-expanded attribute copies must preserve every field
# ----------------------------------------------------------------------
class TestAttributeCopiesRoundTripAllFields:
    def test_prepended_and_via_ibgp_preserve_unrelated_fields(self):
        """``prepended``/``via_ibgp`` construct copies explicitly (the
        ``dataclasses.replace`` overhead was hot); this guards the
        invariant that a future ``BgpAttribute`` field cannot be silently
        reset to its default by either copy."""
        import dataclasses

        from repro.routing.attributes import BgpAttribute

        non_defaults = {
            "local_pref": 555,
            "communities": frozenset({"65000:1"}),
            "as_path": ("x", "y"),
            "ibgp_learned": True,
        }
        assert set(non_defaults) == {
            f.name for f in dataclasses.fields(BgpAttribute)
        }, "new BgpAttribute field: extend this test and the explicit copies"
        attr = BgpAttribute(**non_defaults)

        prepended = attr.prepended("z")
        assert prepended.as_path == ("z", "x", "y")
        assert prepended.ibgp_learned is False
        for name in ("local_pref", "communities"):
            assert getattr(prepended, name) == non_defaults[name]

        via = attr.via_ibgp()
        assert via.ibgp_learned is True
        for name in ("local_pref", "communities", "as_path"):
            assert getattr(via, name) == non_defaults[name]


# ----------------------------------------------------------------------
# Network-level memoisation
# ----------------------------------------------------------------------
class TestNetworkMemoisation:
    def _network(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        devices = {
            name: make_bgp_device(name=name, neighbours=graph.successors(name))
            for name in graph.nodes
        }
        devices["a"].originated_prefixes.append(Prefix.parse("10.1.0.0/24"))
        return Network(graph=graph, devices=devices, name="memo")

    def test_destination_classes_are_cached_and_fresh_copies(self):
        network = self._network()
        first = network.destination_equivalence_classes()
        second = network.destination_equivalence_classes()
        assert first == second
        # Mutating a returned origin set must not corrupt the cache.
        second[0][1].add("zzz")
        assert network.destination_equivalence_classes() == first

    def test_destination_class_cache_invalidated_on_mutation(self):
        network = self._network()
        before = network.destination_equivalence_classes()
        network.devices["b"].originated_prefixes.append(Prefix.parse("10.2.0.0/24"))
        after = network.destination_equivalence_classes()
        assert len(after) > len(before)
        prefixes = {str(prefix) for prefix, _ in after}
        assert "10.2.0.0/24" in prefixes

    def test_local_pref_memo_invalidated_on_route_map_change(self):
        network = self._network()
        srp = build_srp_from_network(network, Prefix.parse("10.1.0.0/24"), {"a"})
        assert srp.prefs("b") == (100,)
        # Attaching a local-pref-setting import policy must invalidate the
        # memoised per-device values (both the map inventory and the
        # session attachments are fingerprinted).
        network.devices["b"].route_maps["PREF-IN"] = _PREF_IN
        network.devices["b"].bgp_neighbors["a"].import_policy = "PREF-IN"
        srp = build_srp_from_network(network, Prefix.parse("10.1.0.0/24"), {"a"})
        assert 200 in srp.prefs("b")


# ----------------------------------------------------------------------
# Cross-class abstraction reuse
# ----------------------------------------------------------------------
#: Registry prefix of the cross-class refinement memo's counters.
REFINEMENT_MEMO = "abstraction.refinement_cache."
FAMILIES = "abstraction.class_families"


def _hits_and_misses(memo):
    return memo[REFINEMENT_MEMO + "hits"], memo[REFINEMENT_MEMO + "misses"]


class TestCrossClassAbstractionReuse:
    def _two_prefix_network(self):
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("b", "c")
        devices = {
            name: make_bgp_device(name=name, neighbours=graph.successors(name))
            for name in graph.nodes
        }
        devices["a"].originated_prefixes.extend(
            [Prefix.parse("10.1.0.0/24"), Prefix.parse("10.2.0.0/24")]
        )
        return Network(graph=graph, devices=devices, name="two-prefix")

    def test_identical_signatures_share_one_refinement(self, counter_delta):
        bonsai = Bonsai(self._two_prefix_network())
        with counter_delta(REFINEMENT_MEMO, FAMILIES) as memo:
            results = [
                bonsai.compress(ec, build_network=False)
                for ec in bonsai.equivalence_classes()
            ]
        assert len(results) == 2
        assert _hits_and_misses(memo) == (1, 1)
        # One family (one interned key map): the second class refines
        # from its inputs and base partition to the identical partition.
        assert memo[FAMILIES] == 1
        first, second = (bonsai.policy_keys(ec.prefix) for ec in bonsai.equivalence_classes())
        assert first is second and isinstance(first, ClassFamily)
        assert set(results[0].refinement.partition.partitions()) == set(
            results[1].refinement.partition.partitions()
        )

    def test_different_policies_do_not_share(self, counter_delta):
        network = self._two_prefix_network()
        # Deny announcements of 10.2/24 on one session: the two classes now
        # specialize to different keys and must not share an abstraction.
        deny_map = RouteMap(
            name="DENY-10-2",
            clauses=(
                RouteMapClause(
                    sequence=10, action="deny", match_prefix_lists=("PL-10-2",)
                ),
                RouteMapClause(sequence=20, action="permit"),
            ),
        )
        device = network.devices["c"]
        device.prefix_lists["PL-10-2"] = PrefixList(
            name="PL-10-2",
            entries=(
                PrefixListEntry(prefix=Prefix.parse("10.2.0.0/24"), action="permit"),
            ),
        )
        device.route_maps["DENY-10-2"] = deny_map
        device.bgp_neighbors["b"].import_policy = "DENY-10-2"
        bonsai = Bonsai(network)
        with counter_delta(REFINEMENT_MEMO, FAMILIES) as memo:
            results = [
                bonsai.compress(ec, build_network=False) for ec in bonsai.equivalence_classes()
            ]
        assert _hits_and_misses(memo) == (0, 2)
        assert memo[FAMILIES] == 2
        assert results[0].refinement is not results[1].refinement
        first, second = (bonsai.policy_keys(ec.prefix) for ec in bonsai.equivalence_classes())
        assert first is not second and first != second

    def test_pipeline_results_with_reuse_stay_bit_identical(self):
        network = self._two_prefix_network()
        bonsai = Bonsai(network)
        results = bonsai.compress_all()
        fresh = [
            Bonsai(network).compress(ec, build_network=False)
            for ec in bonsai.equivalence_classes()
        ]
        # The same groups; a class refined from its family's base
        # partition may number them differently, which no record shows.
        for shared, independent in zip(results, fresh):
            assert set(shared.refinement.partition.partitions()) == set(
                independent.refinement.partition.partitions()
            )
        assert _canonical(results) == _canonical(fresh)


# ----------------------------------------------------------------------
# Class families: shared inputs, base partition, incremental refinement
# ----------------------------------------------------------------------
def _reference_groups(bonsai, result):
    """The class's partition by the full-rescan oracle, from scratch."""
    srp = result.concrete_srp
    keys = dict(bonsai.policy_keys(result.equivalence_class.prefix))
    keys.update({edge: srp.policy_key(edge) for edge in srp.transfer.virtual_edges})
    reference, _ = find_abstraction_partition_reference(srp, keys)
    return set(reference.partitions())


def _canonical(results):
    return sorted(EcRecord.from_result(result).canonical() for result in results)


def _two_site_network():
    """A 6-ring where r0 and r3 each originate a /24 of their own and
    both originate a third (a two-origin anycast class)."""
    graph, _ = ring_topology(6)
    network = uniform_bgp_network(graph, name="two-site", originators=["r0", "r3"])
    for origin in ("r0", "r3"):
        network.devices[origin].originated_prefixes.append(Prefix.parse("10.0.9.0/24"))
    return network


FAMILY_NETWORKS = {
    **{family: (lambda family=family: build_topology(family)) for family in TOPOLOGY_FAMILIES},
    "prefer_bottom": lambda: fattree_network(4, policy="prefer_bottom"),
    "anycast": _two_site_network,
}


class TestClassFamilyRefinement:
    @pytest.mark.parametrize("name", sorted(FAMILY_NETWORKS))
    def test_sweep_matches_reference_and_is_order_independent(self, name, counter_delta):
        """One ``Bonsai`` over all classes (later classes of a family start
        from its base partition) equals the oracle class by class, and
        the records do not depend on which class a family met first."""
        network = FAMILY_NETWORKS[name]()
        bonsai = Bonsai(network)
        classes = bonsai.equivalence_classes()
        with counter_delta(REFINEMENT_MEMO, FAMILIES) as memo:
            results = [bonsai.compress(ec, build_network=False) for ec in classes]
        for result in results:
            groups = set(result.refinement.partition.partitions())
            assert groups == _reference_groups(bonsai, result), result.equivalence_class
        hits, misses = _hits_and_misses(memo)
        assert hits + misses == len(classes)
        assert misses >= memo[FAMILIES] >= 1

        serial = _canonical(results)
        shuffled = list(classes)
        random.Random(name).shuffle(shuffled)
        for order in (classes[::-1], shuffled):
            other = Bonsai(network)
            assert _canonical(other.compress(ec, build_network=False) for ec in order) == serial
        alone = [Bonsai(network).compress(ec, build_network=False) for ec in classes]
        assert _canonical(alone) == serial

    def test_fattree_is_one_family_refined_from_its_base(self, counter_delta):
        bonsai = Bonsai(build_topology("fattree"))
        classes = bonsai.equivalence_classes()
        with counter_delta(REFINEMENT_MEMO, FAMILIES) as memo:
            for ec in classes:
                bonsai.compress(ec, build_network=False)
        assert memo[FAMILIES] == 1
        assert _hits_and_misses(memo) == (len(classes) - 1, 1)
        family = bonsai.policy_keys(classes[0].prefix)
        assert family.refinements == len(classes)
        assert family.base is not None

    def test_several_local_prefs_never_build_a_base(self):
        """``prefer_bottom`` assigns two local-preference values, so the
        ∀∀/∀∃ choice depends on group membership and a destination-free
        fixed point need not be coarser than a class's: every class
        starts from the trivial partition (the family still shares its
        key map and static inputs)."""
        bonsai = Bonsai(fattree_network(4, policy="prefer_bottom"))
        classes = bonsai.equivalence_classes()
        for ec in classes:
            bonsai.compress(ec, build_network=False)
        family = bonsai.policy_keys(classes[0].prefix)
        assert family.refinements > 1
        assert not family.single_pref and family.base is None

    def test_one_class_on_a_fresh_bonsai_builds_no_base(self):
        """``delta`` recompression compresses a few classes on a fresh
        ``Bonsai`` per step: a family seen once must not pay for a base."""
        bonsai = Bonsai(build_topology("fattree"))
        ec = bonsai.equivalence_classes()[0]
        bonsai.compress(ec, build_network=False)
        family = bonsai.policy_keys(ec.prefix)
        assert family.refinements == 1 and family.base is None

    def test_anycast_class_does_not_write_into_the_shared_key_map(self):
        network = _two_site_network()
        bonsai = Bonsai(network)
        classes = sorted(bonsai.equivalence_classes(), key=lambda ec: len(ec.origins))
        assert [len(ec.origins) for ec in classes] == [1, 1, 2]
        anycast = classes[-1]
        family = bonsai.policy_keys(anycast.prefix)
        before = dict(family)
        result = bonsai.compress(anycast, build_network=False)
        assert result.concrete_srp.transfer.virtual_edges
        assert dict(family) == before
        assert set(family) == set(network.graph.edges)
        # The single-origin classes of the same family still refine right.
        for ec in classes[:-1]:
            assert bonsai.policy_keys(ec.prefix) is family
            single = bonsai.compress(ec, build_network=False)
            groups = set(single.refinement.partition.partitions())
            assert groups == _reference_groups(bonsai, single)

    @pytest.mark.parametrize("kind", ["static", "acl"])
    def test_static_route_or_acl_puts_a_class_in_a_family_of_its_own(self, kind):
        """Two classes that differ only by one static route (respectively
        one interface ACL denying one of them) do not share a key map."""
        network = _two_site_network()
        plain = Bonsai(network)
        assert len({id(plain.policy_keys(ec.prefix)) for ec in plain.equivalence_classes()}) == 1
        singled_out = Prefix.parse("10.0.1.0/24")  # originated at r3 only
        device = network.devices["r1"]
        if kind == "static":
            device.static_routes.append(StaticRouteConfig(prefix=singled_out, next_hop="r2"))
        else:
            device.acls["NO-SITE-1"] = Acl(
                name="NO-SITE-1",
                lines=(AclLine(action="deny", prefix=singled_out),),
                default_action="permit",
            )
            device.interface_acls["r2"] = "NO-SITE-1"
        bonsai = Bonsai(network)
        classes = bonsai.equivalence_classes()
        results = {ec.prefix: bonsai.compress(ec, build_network=False) for ec in classes}
        families = {prefix: bonsai.policy_keys(prefix) for prefix in results}
        others = [family for prefix, family in families.items() if prefix != singled_out]
        assert all(family is others[0] for family in others)
        assert families[singled_out] is not others[0]
        assert families[singled_out] != others[0]
        for result in results.values():
            groups = set(result.refinement.partition.partitions())
            assert groups == _reference_groups(bonsai, result)

    @settings(max_examples=100, deadline=None)
    @given(refinement_problems(), st.randoms(use_true_random=False))
    def test_family_refinement_matches_reference_on_random_problems(self, problem, rng):
        """Random digraphs x edge keys x local-preference sets: every
        destination refined through one shared family, in random order,
        equals the oracle run from scratch on a plain key dict."""
        graph, keys, prefs = problem
        family = ClassFamily(keys)
        destinations = list(graph.nodes)
        rng.shuffle(destinations)
        for destination in destinations:
            srp = bare_srp(graph, destination, prefs)
            fast, _ = find_abstraction_partition(srp, family)
            reference, _ = find_abstraction_partition_reference(srp, dict(keys))
            assert set(fast.partitions()) == set(reference.partitions())
        assert family.refinements == len(destinations)
        assert dict(family) == keys
