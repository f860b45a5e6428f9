"""Unit tests for SRP instances, solutions, solvers and well-formedness (§3)."""

import pytest

from repro.routing import RipAttribute, SetLocalPref, build_bgp_srp, build_rip_srp
from repro.srp import (
    SRP,
    SRPError,
    Solution,
    assert_well_formed,
    check_well_formed,
    enumerate_solutions,
    has_stable_solution,
    solve,
    solve_with_activation_order,
)
from repro.srp.solver import ConvergenceError
from repro.topology import Graph

from topologies import chain_topology


class TestInstance:
    def test_destination_must_exist(self):
        graph, _ = chain_topology(2)
        with pytest.raises(SRPError):
            SRP(
                graph=graph,
                destination="missing",
                initial=RipAttribute(0),
                prefer=lambda a, b: a.hops < b.hops,
                transfer=lambda e, a: a,
            )

    def test_choices_filters_dropped_routes(self, figure1_srp):
        labeling = {"d": RipAttribute(0), "b1": RipAttribute(1), "b2": None, "a": None}
        choices = figure1_srp.choices("a", labeling)
        assert (("a", "b1"), RipAttribute(2)) in choices
        assert all(edge != ("a", "b2") for edge, _ in choices)

    def test_equally_preferred(self, figure1_srp):
        assert figure1_srp.equally_preferred(RipAttribute(2), RipAttribute(2))
        assert not figure1_srp.equally_preferred(RipAttribute(1), RipAttribute(2))

    def test_default_policy_key_and_prefs(self):
        graph, _ = chain_topology(2)
        srp = SRP(
            graph=graph,
            destination="r0",
            initial=RipAttribute(0),
            prefer=lambda a, b: a.hops < b.hops,
            transfer=lambda e, a: None if a is None else a.incremented(),
        )
        assert srp.policy_key(("r1", "r0")) == ("default",)
        assert srp.prefs("r1") == (0,)


class TestSolution:
    def test_figure1_solution(self, figure1_srp):
        solution = solve(figure1_srp)
        assert solution.labeling == {
            "d": RipAttribute(0),
            "b1": RipAttribute(1),
            "b2": RipAttribute(1),
            "a": RipAttribute(2),
        }
        assert solution.next_hops("a") == {"b1", "b2"}
        assert solution.next_hops("d") == set()
        assert solution.is_stable()

    def test_forwarding_paths_reach_destination(self, figure1_srp):
        solution = solve(figure1_srp)
        assert {node: set(edges) for node, edges in solution.forwarding.items()} == {
            "a": {("a", "b1"), ("a", "b2")},
            "b1": {("b1", "d")},
            "b2": {("b2", "d")},
        }

    def test_violations_detected_for_bad_labeling(self, figure1_srp):
        bad = Solution(
            srp=figure1_srp,
            labeling={"d": RipAttribute(0), "b1": RipAttribute(5), "b2": RipAttribute(1), "a": RipAttribute(2)},
        )
        assert not bad.is_stable()
        assert any("b1" in violation for violation in bad.violations())

    def test_violation_for_wrong_destination_label(self, figure1_srp):
        bad = Solution(srp=figure1_srp, labeling={"d": RipAttribute(3)})
        assert any("destination" in v for v in bad.violations())

    def test_hand_built_solution_derives_the_solver_forwarding(self, figure1_srp):
        solved = solve(figure1_srp)
        by_hand = Solution(srp=figure1_srp, labeling=dict(solved.labeling))
        assert {n: set(e) for n, e in by_hand.forwarding.items()} == {
            n: set(e) for n, e in solved.forwarding.items()
        }
        assert by_hand.is_stable()

    def test_unreachable_node_has_no_route_and_no_next_hops(self, figure1_graph):
        figure1_graph.add_undirected_edge("x", "y")
        solution = solve(build_rip_srp(figure1_graph, "d"))
        assert solution.labeling["x"] is None and solution.labeling["y"] is None
        assert solution.forwarding["x"] == ()
        assert solution.next_hops("y") == set()
        assert solution.is_stable()

    def test_route_without_offers_is_a_violation(self, figure1_graph):
        figure1_graph.add_node("x")
        srp = build_rip_srp(figure1_graph, "d")
        labeling = dict(solve(srp).labeling, x=RipAttribute(1))
        assert Solution(srp=srp, labeling=labeling).violations() == [
            "'x' has no offers but is labelled RipAttribute(hops=1)"
        ]

    def test_missing_route_with_offers_is_a_violation(self, figure1_srp):
        labeling = dict(solve(figure1_srp).labeling, a=None)
        violations = Solution(srp=figure1_srp, labeling=labeling).violations()
        assert len(violations) == 1 and violations[0].startswith("'a' has offers")

    def test_non_minimal_label_is_a_violation(self, figure1_srp):
        # b1 is offered hops 1 by d and hops 3 back from a; taking 3 is not minimal.
        labeling = dict(solve(figure1_srp).labeling, b1=RipAttribute(3))
        violations = Solution(srp=figure1_srp, labeling=labeling).violations()
        assert any(v.startswith("'b1'") and "not minimal" in v for v in violations)


class TestSolver:
    def test_synchronous_and_asynchronous_agree_on_rip(self, figure1_srp):
        sync = solve(figure1_srp)
        async_ = solve_with_activation_order(figure1_srp, seed=3)
        assert sync.labeling == async_.labeling

    def test_activation_order_changes_bgp_outcome(self, figure2_srp):
        solutions = enumerate_solutions(figure2_srp)
        # The gadget has three stable solutions: each b router can be the
        # one forced downhill.
        down_routers = set()
        for solution in solutions:
            down = [b for b in ("b1", "b2", "b3") if solution.next_hops(b) == {"d"}]
            assert len(down) == 1
            down_routers.add(down[0])
        assert down_routers == {"b1", "b2", "b3"}

    def test_all_enumerated_solutions_are_stable(self, figure2_srp):
        for solution in enumerate_solutions(figure2_srp):
            assert solution.is_stable()

    def test_explicit_activation_order_is_deterministic(self, figure2_srp):
        order = ["b2", "b3", "a", "b1"]
        first = solve_with_activation_order(figure2_srp, order=order)
        second = solve_with_activation_order(figure2_srp, order=order)
        assert first.labeling == second.labeling

    def test_has_stable_solution(self, figure1_srp):
        assert has_stable_solution(figure1_srp)

    def test_non_convergent_srp_raises(self):
        """A two-node mutual-dependence gadget with no stable solution."""
        graph = Graph()
        graph.add_undirected_edge("a", "b")
        graph.add_undirected_edge("a", "d")
        graph.add_undirected_edge("b", "d")
        # a and b each prefer the route through the other over the direct
        # route (the classic BAD GADGET restricted to two nodes oscillates
        # under synchronous updates).
        imports = {("a", "b"): SetLocalPref(200), ("b", "a"): SetLocalPref(200)}
        srp = build_bgp_srp(graph, "d", import_policies=imports)
        try:
            solution = solve(srp, max_rounds=50)
            # If it converges, the solution must at least be stable.
            assert solution.is_stable()
        except ConvergenceError:
            pass


class TestWellFormedness:
    def test_rip_srp_is_well_formed(self, figure1_srp):
        report = check_well_formed(figure1_srp)
        assert report.is_well_formed
        assert_well_formed(figure1_srp)

    def test_self_loop_detected(self):
        graph = Graph()
        graph.add_undirected_edge("a", "d")
        graph.add_edge("a", "a")
        srp = build_rip_srp(graph, "d")
        report = check_well_formed(srp)
        assert not report.self_loop_free
        with pytest.raises(ValueError):
            assert_well_formed(srp)

    def test_spontaneous_transfer_detected(self):
        graph, _ = chain_topology(2)
        srp = SRP(
            graph=graph,
            destination="r0",
            initial=RipAttribute(0),
            prefer=lambda a, b: a.hops < b.hops,
            transfer=lambda e, a: RipAttribute(1),
        )
        report = check_well_formed(srp)
        assert not report.non_spontaneous
        relaxed = check_well_formed(srp, require_non_spontaneous=False)
        assert relaxed.is_well_formed
