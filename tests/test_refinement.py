"""Unit tests for the abstraction-refinement algorithm (Algorithm 1)."""

from hypothesis import given, settings, strategies as st

from repro.abstraction import (
    check_bgp_effective,
    check_effective,
    compute_abstraction,
    find_abstraction_partition,
    split_into_bgp_cases,
)
from repro.routing import SetLocalPref, build_bgp_srp, build_rip_srp, build_ospf_srp
from repro.srp.instance import SRP
from repro.topology import Graph, full_mesh_topology, ring_topology

from refinement_reference import split_transfer_violations
from topologies import chain_topology


@st.composite
def refinement_problems(draw):
    """``(graph, keys, node_prefs)``: a random simple digraph, per-edge
    policy keys from a small alphabet and per-node local-preference
    sets, single-valued on about half the draws."""
    nodes = [f"n{i}" for i in range(draw(st.integers(2, 8)))]
    graph = Graph(nodes)
    pairs = [(u, v) for u in nodes for v in nodes if u != v]
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, max_size=24)):
        graph.add_edge(u, v)
    keys = {edge: ("policy", draw(st.integers(0, 2))) for edge in sorted(graph.edges)}
    several = draw(st.booleans())
    prefs = {
        node: (100, 200) if several and draw(st.booleans()) else (100,) for node in nodes
    }
    return graph, keys, prefs


def bare_srp(graph, destination, node_prefs):
    """An SRP carrying only what refinement reads."""
    return SRP(
        graph=graph,
        destination=destination,
        initial=0,
        prefer=lambda a, b: a < b,
        transfer=lambda edge, attribute: attribute,
        node_prefs=node_prefs,
    )


class TestRipRefinement:
    def test_figure1_compresses_to_three_nodes(self, figure1_srp):
        result = compute_abstraction(figure1_srp)
        assert result.num_abstract_nodes == 3
        assert result.num_abstract_edges == 2
        groups = {frozenset(g) for g in result.abstraction.groups()}
        assert frozenset({"b1", "b2"}) in groups

    def test_resulting_abstraction_is_effective(self, figure1_srp):
        result = compute_abstraction(figure1_srp)
        assert check_effective(figure1_srp, result.abstraction).is_effective

    def test_chain_cannot_compress(self):
        """A chain has no symmetry: every node is a different distance from
        the destination, so the abstraction keeps every node separate."""
        graph, _ = chain_topology(5)
        srp = build_rip_srp(graph, "r0")
        result = compute_abstraction(srp)
        assert result.num_abstract_nodes == 5

    def test_ring_compresses_to_about_half(self):
        graph, _ = ring_topology(10)
        srp = build_rip_srp(graph, "r0")
        result = compute_abstraction(srp)
        assert result.num_abstract_nodes == 6
        assert check_effective(srp, result.abstraction).is_effective

    def test_full_mesh_compresses_to_two_nodes(self):
        graph, _ = full_mesh_topology(8)
        srp = build_rip_srp(graph, "r0")
        result = compute_abstraction(srp)
        assert result.num_abstract_nodes == 2
        assert result.num_abstract_edges == 1


class TestOspfRefinement:
    def test_cost_differences_prevent_merging(self):
        graph = Graph()
        for node in ("b1", "b2"):
            graph.add_undirected_edge("a", node)
            graph.add_undirected_edge(node, "d")
        equal = build_ospf_srp(graph, "d")
        unequal = build_ospf_srp(graph, "d", link_costs={("b1", "d"): 10})
        assert compute_abstraction(equal).num_abstract_nodes == 3
        assert compute_abstraction(unequal).num_abstract_nodes == 4


class TestBgpRefinement:
    def test_figure3_refinement_steps(self, figure2_srp):
        partition, iterations = find_abstraction_partition(figure2_srp)
        # Destination, a, and the b-group: three groups before case splitting.
        assert partition.num_groups() == 3
        assert iterations >= 2
        groups = {frozenset(partition.members(g)) for g in partition.groups()}
        assert frozenset({"b1", "b2", "b3"}) in groups
        assert frozenset({"a"}) in groups
        assert frozenset({"d"}) in groups

    def test_bgp_case_split_uses_pref_count(self, figure2_srp):
        partition, _ = find_abstraction_partition(figure2_srp)
        splits = split_into_bgp_cases(figure2_srp, partition)
        assert len(splits) == 1
        copies = next(iter(splits.values()))
        assert len(copies) == 2  # |prefs| = {100, 200}

    def test_figure3_final_abstraction_size(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        assert result.num_abstract_nodes == 4
        assert result.num_abstract_edges == 4
        assert result.split_counts and list(result.split_counts.values()) == [2]

    def test_disabling_case_split_gives_naive_abstraction(self, figure2_srp):
        result = compute_abstraction(figure2_srp, bgp_case_split=False)
        assert result.num_abstract_nodes == 3

    def test_no_split_without_policy(self):
        """Shortest-path BGP uses only the default local preference, so no
        case splitting is needed even with loop prevention (Theorem 4.4)."""
        graph = Graph()
        for b in ("b1", "b2", "b3"):
            graph.add_undirected_edge("a", b)
            graph.add_undirected_edge(b, "d")
        srp = build_bgp_srp(graph, "d")
        result = compute_abstraction(srp)
        assert result.split_counts == {}
        assert result.num_abstract_nodes == 3

    def test_bgp_effective_conditions_hold(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        report = check_bgp_effective(figure2_srp, result.abstraction)
        assert report.is_effective

    def test_policy_differences_split_nodes(self):
        graph = Graph()
        for b in ("b1", "b2", "b3"):
            graph.add_undirected_edge("a", b)
            graph.add_undirected_edge(b, "d")
        # Only b1 prefers routes from a; b2/b3 are plain.
        imports = {("b1", "a"): SetLocalPref(200)}
        srp = build_bgp_srp(graph, "d", import_policies=imports)
        result = compute_abstraction(srp)
        groups = {frozenset(g) for g in result.abstraction.groups()}
        assert frozenset({"b2", "b3"}) in groups
        assert frozenset({"b1"}) in groups

    def test_iterations_and_timing_reported(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        assert result.iterations >= 1
        assert result.elapsed_seconds >= 0.0


class TestCustomPolicyKeys:
    def test_explicit_keys_override_srp_policies(self, figure1_srp):
        keys = {edge: ("same",) for edge in figure1_srp.graph.edges}
        keys[("b1", "d")] = ("different",)
        result = compute_abstraction(figure1_srp, policy_keys=keys)
        groups = {frozenset(g) for g in result.abstraction.groups()}
        assert frozenset({"b1"}) in groups
        assert frozenset({"b2"}) in groups


class TestRefinementCoverage:
    """Corner cases of the refinement module itself."""

    def test_max_iterations_stops_early_with_coarser_partition(self):
        graph, _ = chain_topology(6)
        srp = build_rip_srp(graph, "r0")
        full, full_iterations = find_abstraction_partition(srp)
        capped, iterations = find_abstraction_partition(srp, max_iterations=1)
        assert iterations == 1
        assert full_iterations > 1
        # One pass cannot finish separating a chain; the partition is a
        # coarsening of the fixed point.
        assert capped.num_groups() < full.num_groups()
        assert full.num_groups() == 6

    def test_compute_abstraction_forwards_max_iterations(self):
        graph, _ = chain_topology(6)
        srp = build_rip_srp(graph, "r0")
        capped = compute_abstraction(srp, max_iterations=1)
        full = compute_abstraction(srp)
        assert capped.iterations == 1
        assert capped.num_abstract_nodes < full.num_abstract_nodes

    @settings(max_examples=150, deadline=None)
    @given(refinement_problems(), st.data())
    def test_transfer_violation_pass_is_noop_at_signature_fixed_point(self, problem, data):
        """At the signature fixed point the explicit transfer-equivalence
        check cannot find further splits: ``Graph`` has no parallel edges
        and the (policy, target) pair sets a group agrees on determine
        its per-target policy sets.  That is why the shipped loop does
        not run the pass; the reference oracle still does."""
        graph, keys, prefs = problem
        srp = bare_srp(graph, data.draw(st.sampled_from(graph.nodes)), prefs)
        partition, _ = find_abstraction_partition(srp, keys)
        before = set(partition.partitions())
        assert split_transfer_violations(graph, keys, partition) == []
        assert set(partition.partitions()) == before

    def test_destination_group_is_never_case_split(self, figure2_srp):
        partition, _ = find_abstraction_partition(figure2_srp)
        splits = split_into_bgp_cases(figure2_srp, partition)
        destination_name = partition.canonical_names()["d"]
        assert destination_name not in splits

    def test_split_copy_names_derive_from_base(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        for base, copies in result.abstraction.split_groups.items():
            assert len(copies) == result.split_counts[base]
            assert all(copy.startswith(f"{base}_case") for copy in copies)
            # Copies share the base group's concrete members.
            for copy in copies:
                assert result.abstraction.concrete_nodes(copy) == (
                    result.abstraction.concrete_nodes(base)
                )

    def test_result_sizes_match_materialised_abstraction(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        assert result.num_abstract_nodes == result.abstraction.num_abstract_nodes()
        assert result.num_abstract_edges == result.abstraction.num_abstract_edges()
        assert result.elapsed_seconds >= 0.0
