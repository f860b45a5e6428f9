"""Unit and integration tests for abstract SRPs and CP-equivalence (§4.2)."""

import pytest

from repro.abstraction import (
    build_abstract_srp,
    check_bgp_solution_equivalence,
    check_cp_equivalence,
    check_solution_equivalence,
    compute_abstraction,
)
from repro.routing import (
    RipAttribute,
    build_bgp_srp,
    build_ospf_srp,
    build_rip_srp,
    build_static_srp,
)
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.pipeline.encoded import EncodedNetwork
from repro.abstraction.equivalence import _h
from repro.routing.bgp import PrependAs
from repro.srp import Solution, solve
from repro.topology import Graph, full_mesh_topology, ring_topology


class TestBuildAbstractSrp:
    def test_rip_abstract_srp_solves_to_same_hops(self, figure1_srp):
        result = compute_abstraction(figure1_srp)
        abstract = build_abstract_srp(figure1_srp, result.abstraction)
        solution = solve(abstract)
        dest = result.abstraction.f("d")
        a_node = result.abstraction.f("a")
        assert solution.labeling[dest] == RipAttribute(0)
        assert solution.labeling[a_node] == RipAttribute(2)

    def test_bgp_abstract_srp_has_loop_prevention_on_abstract_names(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        abstract = build_abstract_srp(figure2_srp, result.abstraction)
        solution = solve(abstract)
        assert solution.is_stable()
        # One of the split copies routes down, the other goes through a.
        copies = [n for n in abstract.graph.nodes if "case" in str(n)]
        assert len(copies) == 2
        next_hops = {frozenset(solution.next_hops(copy)) for copy in copies}
        assert len(next_hops) == 2

    def test_generic_delegation_for_ospf(self):
        graph, _ = ring_topology(6)
        srp = build_ospf_srp(graph, "r0")
        result = compute_abstraction(srp)
        abstract = build_abstract_srp(srp, result.abstraction)
        solution = solve(abstract)
        assert solution.is_stable()


class TestCpEquivalenceRip:
    def test_figure1(self, figure1_srp):
        result = compute_abstraction(figure1_srp)
        report = check_cp_equivalence(figure1_srp, result.abstraction, strict_labels=True)
        assert report.cp_equivalent, report.violations

    def test_ring(self):
        graph, _ = ring_topology(9)
        srp = build_rip_srp(graph, "r0")
        result = compute_abstraction(srp)
        report = check_cp_equivalence(srp, result.abstraction, strict_labels=True)
        assert report.cp_equivalent, report.violations

    def test_full_mesh(self):
        graph, _ = full_mesh_topology(6)
        srp = build_rip_srp(graph, "r0")
        result = compute_abstraction(srp)
        report = check_cp_equivalence(srp, result.abstraction, strict_labels=True)
        assert report.cp_equivalent, report.violations

    def test_broken_abstraction_detected(self, figure1_srp):
        """Forcing b1 and d into one abstract node breaks label equivalence."""
        from repro.abstraction import NetworkAbstraction

        bad = NetworkAbstraction.from_node_map(
            figure1_srp.graph,
            {"a": "A", "b1": "D", "b2": "B", "d": "D"},
            protocol=figure1_srp.protocol,
        )
        report = check_cp_equivalence(figure1_srp, bad)
        assert not report.cp_equivalent


class TestCpEquivalenceBgp:
    def test_figure2_gadget(self, figure2_srp):
        result = compute_abstraction(figure2_srp)
        report = check_cp_equivalence(figure2_srp, result.abstraction)
        assert report.cp_equivalent, report.violations

    def test_naive_abstraction_without_split_fails(self, figure2_srp):
        """Figure 2(b): collapsing all three b routers into one node cannot
        represent the solution (it would need a forwarding loop)."""
        result = compute_abstraction(figure2_srp, bgp_case_split=False)
        report = check_cp_equivalence(figure2_srp, result.abstraction)
        assert not report.cp_equivalent

    def test_plain_shortest_path_bgp(self):
        graph, _ = full_mesh_topology(5)
        srp = build_bgp_srp(graph, "r0")
        result = compute_abstraction(srp)
        report = check_cp_equivalence(srp, result.abstraction)
        assert report.cp_equivalent, report.violations

    def test_every_concrete_solution_matches_some_refinement(self, figure2_srp):
        """Theorem 4.5: for each concrete solution there is an assignment of
        concrete nodes to split copies relating the two networks."""
        from repro.srp import enumerate_solutions

        result = compute_abstraction(figure2_srp)
        abstract = build_abstract_srp(figure2_srp, result.abstraction)
        abstract_solution = solve(abstract)
        for concrete_solution in enumerate_solutions(figure2_srp):
            report = check_bgp_solution_equivalence(
                concrete_solution, abstract_solution, result.abstraction
            )
            assert report.cp_equivalent, report.violations


class TestCpEquivalenceStatic:
    def test_static_routes_fwd_equivalent(self):
        graph = Graph()
        for b in ("b1", "b2"):
            graph.add_undirected_edge("a", b)
            graph.add_undirected_edge(b, "d")
        srp = build_static_srp(
            graph, "d", static_edges=[("a", "b1"), ("a", "b2"), ("b1", "d"), ("b2", "d")]
        )
        result = compute_abstraction(srp)
        assert result.num_abstract_nodes == 3
        report = check_cp_equivalence(srp, result.abstraction)
        assert report.fwd_equivalent, report.violations


class TestSolutionEquivalenceChecker:
    def test_mismatched_labels_reported(self, figure1_srp):
        result = compute_abstraction(figure1_srp)
        abstract = build_abstract_srp(figure1_srp, result.abstraction)
        concrete_solution = solve(figure1_srp)
        broken = Solution(srp=abstract, labeling=dict(solve(abstract).labeling))
        a_node = result.abstraction.f("a")
        broken.labeling[a_node] = RipAttribute(9)
        report = check_solution_equivalence(concrete_solution, broken, result.abstraction)
        assert not report.label_equivalent
        assert report.violations


# ----------------------------------------------------------------------
# The theorem on every generated family, and labels h cannot map
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_every_class_of_every_family_is_cp_equivalent(family):
    """``check_cp_equivalence`` is the repo's executable form of the
    paper's theorem; it must run (not raise) and hold on every class.
    WAN cores share AS 65000, which is in every AS path and is no node."""
    artifact = EncodedNetwork.build(build_topology(family))
    bonsai = artifact.make_bonsai()
    assert artifact.classes
    for equivalence_class in artifact.classes:
        result = bonsai.compress(equivalence_class, build_network=False)
        report = check_cp_equivalence(result.concrete_srp, result.abstraction)
        assert report.cp_equivalent, (str(equivalence_class.prefix), report.violations[:2])


class TestAsPathElementsThatAreNotNodes:
    def test_shared_as_maps_to_the_groups_of_the_devices_that_carry_it(self):
        artifact = EncodedNetwork.build(build_topology("wan"))
        result = artifact.make_bonsai().compress(artifact.classes[0], build_network=False)
        srp, abstraction = result.concrete_srp, result.abstraction
        cores = [n for n, d in artifact.network.devices.items() if d.asn == "65000"]
        assert len(cores) > 1 and "65000" not in abstraction.node_map
        label = next(
            label for label in solve(srp).labeling.values()
            if label is not None and label.bgp is not None and "65000" in label.bgp.as_path
        )
        mapped = _h(srp, abstraction, label).bgp.as_path
        assert len(mapped) == len(label.bgp.as_path)
        assert "|".join(sorted({abstraction.f(core) for core in cores})) in mapped

    def test_unmappable_label_is_a_reported_violation_not_an_exception(self):
        """An AS nobody carries, prepended by policy: the check must fail
        with the class, the label and the reason -- never raise, never pass."""
        graph, _ = ring_topology(4)
        nodes = sorted(graph.nodes)
        srp = build_bgp_srp(
            graph, nodes[0],
            export_policies={edge: PrependAs("64999") for edge in graph.edges},
        )
        report = check_cp_equivalence(srp, compute_abstraction(srp).abstraction)
        assert not report.cp_equivalent and not report.label_equivalent
        (violation,) = report.violations
        assert violation.startswith(f"class {nodes[0]}: cannot map label Bgp")
        assert "'64999' names neither a node nor a device's AS" in violation
