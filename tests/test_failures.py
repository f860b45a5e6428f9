"""Tests for the failure-scenario analysis subsystem (`repro.failures`)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.abstraction.ec import routable_equivalence_classes
from repro.config.transfer import build_srp_from_network
from repro.failures import (
    FailureReport,
    FailureScenario,
    FailureSweep,
    ScenarioError,
    abstract_scenario_for,
    canonical_link,
    enumerate_link_failures,
    incremental_resolve,
    link_scenario,
    node_scenario,
    points_of_interest,
    sample_link_failures,
    scenarios_for,
    sweep_network,
    undirected_links,
)
from repro.failures.incremental import BaselineIndex, tainted_nodes
from repro.netgen.base import uniform_bgp_network
from repro.netgen.families import (
    TOPOLOGY_FAMILIES,
    build_topology,
    default_failure_sample,
    default_size,
)
from repro.pipeline.cli import main as pipeline_main
from repro.srp.solver import solve
from repro.topology.builders import chain_topology


def chain_network(length: int = 5):
    graph, _ = chain_topology(length)
    return uniform_bgp_network(
        graph, f"chain-{length}", originators=[f"r{length - 1}"]
    )


# ----------------------------------------------------------------------
# Scenario model
# ----------------------------------------------------------------------
class TestFailureScenario:
    def test_links_are_canonicalised(self):
        assert FailureScenario(links=frozenset({("b", "a")})) == FailureScenario(
            links=frozenset({("a", "b")})
        )
        assert canonical_link("z", "a") == ("a", "z")

    def test_name_and_describe_are_deterministic(self):
        scenario = FailureScenario(
            links=frozenset({("b", "a")}), nodes=frozenset({"c"})
        )
        assert scenario.name == "link:a|b+node:c"
        assert FailureScenario().describe() == "baseline"

    def test_wire_form_roundtrip(self):
        scenario = FailureScenario(
            links=frozenset({("a", "b"), ("c", "d")}), nodes=frozenset({"x"})
        )
        assert FailureScenario.from_dict(scenario.to_dict()) == scenario

    def test_validation_rejects_unknown_elements(self):
        network = build_topology("ring", 4)
        link_scenario("r0", "r1").assert_valid(network)
        with pytest.raises(ScenarioError):
            link_scenario("r0", "r2").assert_valid(network)  # not adjacent
        with pytest.raises(ScenarioError):
            node_scenario("nope").assert_valid(network)

    def test_apply_does_not_mutate_the_original(self):
        network = build_topology("ring", 5)
        edges_before = sorted(network.graph.edges)
        version_before = network.graph.version
        failed = link_scenario("r0", "r1").apply(network)
        assert sorted(network.graph.edges) == edges_before
        assert network.graph.version == version_before
        assert not failed.graph.has_edge("r0", "r1")
        assert not failed.graph.has_edge("r1", "r0")
        # The view shares device configurations (links fail, configs don't).
        assert failed.devices["r2"] is network.devices["r2"]

    def test_apply_node_failure_removes_device_and_incident_links(self):
        network = build_topology("ring", 5)
        failed = node_scenario("r2").apply(network)
        assert not failed.graph.has_node("r2")
        assert "r2" not in failed.devices
        assert "r2" not in failed.graph.successors("r1")
        assert network.graph.has_node("r2")

    def test_directed_edges_cover_both_orientations_and_node_incidence(self):
        network = build_topology("ring", 4)
        removed = node_scenario("r0").directed_edges(network.graph)
        assert ("r0", "r1") in removed and ("r1", "r0") in removed
        assert ("r3", "r0") in removed and ("r0", "r3") in removed


class TestEnumerators:
    def test_k1_enumerates_every_link_once(self):
        network = build_topology("ring", 6)
        scenarios = enumerate_link_failures(network, k=1)
        assert len(scenarios) == len(undirected_links(network)) == 6
        assert len({s.name for s in scenarios}) == 6

    def test_k2_counts_and_ordering(self):
        network = build_topology("ring", 5)
        scenarios = enumerate_link_failures(network, k=2)
        # C(5,1) + C(5,2) = 15, sizes ascending.
        assert len(scenarios) == 15
        assert [s.size for s in scenarios] == [1] * 5 + [2] * 10

    def test_include_nodes_adds_node_scenarios(self):
        network = build_topology("ring", 4)
        scenarios = enumerate_link_failures(network, k=1, include_nodes=True)
        kinds = {(bool(s.links), bool(s.nodes)) for s in scenarios}
        assert len(scenarios) == 8 and kinds == {(True, False), (False, True)}

    def test_sampling_is_deterministic_and_within_budget(self):
        network = build_topology("mesh", 6)
        a = sample_link_failures(network, k=2, count=10, seed=7)
        b = sample_link_failures(network, k=2, count=10, seed=7)
        c = sample_link_failures(network, k=2, count=10, seed=8)
        assert [s.name for s in a] == [s.name for s in b]
        assert [s.name for s in a] != [s.name for s in c]
        assert len(a) == 10 and len({s.name for s in a}) == 10
        assert all(1 <= s.size <= 2 for s in a)

    def test_small_spaces_fall_back_to_exhaustive(self):
        network = build_topology("ring", 4)
        assert sample_link_failures(network, k=1, count=100) == enumerate_link_failures(
            network, k=1
        )

    def test_points_of_interest_are_valid_and_named(self):
        network = build_topology("fattree", 4)
        interest = points_of_interest(network)
        assert "hub-node" in interest and "busiest-link" in interest
        for name, scenario in interest.items():
            assert scenario.validate(network) == []
            assert scenario.name

    def test_scenarios_for_prepends_named_and_dedups(self):
        network = build_topology("ring", 4)
        named = [link_scenario("r0", "r1")]
        scenarios = scenarios_for(network, k=1, named=named)
        assert scenarios[0].links == named[0].links
        assert len(scenarios) == 4  # no duplicate of r0|r1

    def test_family_defaults(self):
        assert default_failure_sample("fattree", 1) is None
        assert default_failure_sample("mesh", 1) is None
        assert default_failure_sample("mesh", 2) == 24
        with pytest.raises(ValueError):
            default_failure_sample("nope")


# ----------------------------------------------------------------------
# Incremental re-solve == scratch oracle
# ----------------------------------------------------------------------
def _class_and_srp(network, scenario):
    ec = routable_equivalence_classes(network)[0]
    failed = scenario.apply(network)
    origins = {o for o in ec.origins if str(o) not in scenario.nodes}
    srp = build_srp_from_network(failed, ec.prefix, origins)
    return ec, failed, origins, srp


class TestIncrementalResolve:
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_label_identical_to_scratch_on_every_family(self, family):
        """The sweep's oracle comparison across every netgen family."""
        network = build_topology(family, default_size(family))
        sample = 8 if family == "mesh" else None
        report = FailureSweep(
            network,
            k=1,
            sample=sample,
            executor="serial",
            soundness=False,
            oracle=True,
        ).run()
        assert report.incremental_all_match(), report.incremental_divergences()
        # The incremental path actually ran (not the scratch fallback).
        used = [
            o.incremental_used for r in report.records for o in r.scenarios
            if not o.unroutable
        ]
        assert used and all(used)

    def test_tainted_nodes_follow_baseline_forwarding(self):
        network = chain_network(5)
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        baseline = solve(srp)
        # Failing the link next to the origin taints the whole upstream chain.
        tainted = tainted_nodes(baseline, frozenset({("r3", "r4"), ("r4", "r3")}))
        assert tainted == {"r0", "r1", "r2", "r3"}
        # Failing the far end taints only the disconnected node.
        tainted = tainted_nodes(baseline, frozenset({("r0", "r1"), ("r1", "r0")}))
        assert tainted == {"r0"}

    def test_incremental_resolve_matches_scratch_and_reports_stats(self):
        network = chain_network(6)
        scenario = link_scenario("r2", "r3")
        ec, failed, origins, inc_srp = _class_and_srp(network, scenario)
        baseline = solve(
            build_srp_from_network(network, ec.prefix, set(ec.origins))
        )
        removed = scenario.directed_edges(network.graph)
        result = incremental_resolve(inc_srp, baseline, removed)
        scratch = solve(build_srp_from_network(failed, ec.prefix, origins))
        assert result.incremental_used
        assert result.solution.labeling == scratch.labeling
        assert result.tainted == frozenset({"r0", "r1", "r2"})
        assert result.dirty_count >= len(result.tainted)

    def test_baseline_index_matches_direct_computation(self):
        network = build_topology("fattree", 4)
        ec = routable_equivalence_classes(network)[0]
        baseline = solve(build_srp_from_network(network, ec.prefix, set(ec.origins)))
        index = BaselineIndex.from_solution(baseline)
        for link in undirected_links(network)[:6]:
            removed = link_scenario(*link).directed_edges(network.graph)
            assert tainted_nodes(baseline, removed) == tainted_nodes(
                baseline, removed, index=index
            )

    @settings(max_examples=25, deadline=None)
    @given(
        family=st.sampled_from(sorted(TOPOLOGY_FAMILIES)),
        data=st.data(),
    )
    def test_random_scenarios_label_identical_to_scratch(self, family, data):
        """Hypothesis parity: random ≤2-failure scenarios, every family."""
        network = build_topology(family, default_size(family))
        links = undirected_links(network)
        chosen = data.draw(
            st.lists(st.sampled_from(links), min_size=1, max_size=2, unique=True)
        )
        nodes = [str(n) for n in network.graph.nodes]
        failed_nodes = data.draw(
            st.lists(st.sampled_from(nodes), min_size=0, max_size=1, unique=True)
        )
        scenario = FailureScenario(
            links=frozenset(chosen), nodes=frozenset(failed_nodes)
        )
        for ec in routable_equivalence_classes(network)[:2]:
            origins = {o for o in ec.origins if str(o) not in scenario.nodes}
            if not origins:
                continue
            failed = scenario.apply(network)
            baseline = solve(
                build_srp_from_network(network, ec.prefix, set(ec.origins))
            )
            scratch = solve(build_srp_from_network(failed, ec.prefix, origins))
            if origins != set(ec.origins):
                continue  # destination structure changed; sweep uses scratch
            result = incremental_resolve(
                build_srp_from_network(failed, ec.prefix, origins),
                baseline,
                scenario.directed_edges(network.graph),
                frozenset(scenario.nodes),
            )
            assert result.solution.labeling == scratch.labeling


# ----------------------------------------------------------------------
# Abstraction soundness
# ----------------------------------------------------------------------
class TestSoundness:
    def test_chain_scenarios_are_sound_and_agree(self):
        """An incompressible network: every scenario is representable."""
        report = FailureSweep(chain_network(5), k=1, executor="serial").run()
        outcomes = [o for r in report.records for o in r.scenarios]
        assert outcomes and all(o.sound_under_failure for o in outcomes)
        assert all(o.abstract_agrees() for o in outcomes)

    @pytest.mark.parametrize("family", ["fattree", "ring", "wan"])
    def test_sound_scenarios_give_identical_verdicts(self, family):
        """The satellite requirement: sound_under_failure=True implies the
        lifted abstract verdicts equal the concrete ones; unsound
        scenarios must agree after per-scenario re-compression."""
        network = build_topology(family, default_size(family))
        report = FailureSweep(network, k=1, executor="serial").run()
        for record in report.records:
            for outcome in record.scenarios:
                if outcome.unroutable:
                    continue
                assert outcome.sound_under_failure is not None
                assert outcome.abstract_agrees() is True, (
                    record.prefix,
                    outcome.scenario,
                    outcome.soundness,
                )
                if not outcome.sound_under_failure:
                    assert outcome.soundness["recompressed"]
                    assert outcome.soundness["reason"]

    def test_sibling_edge_blocks_representability(self):
        """A fat-tree aggregates parallel links: failing one of them is not
        expressible on the abstract topology."""
        network = build_topology("fattree", 4)
        from repro.abstraction.bonsai import Bonsai

        bonsai = Bonsai(network)
        ec = routable_equivalence_classes(network)[0]
        result = bonsai.compress(ec, build_network=True)
        groups = [g for g in result.abstraction.groups() if len(g) > 1]
        assert groups, "fat-tree classes are expected to compress"
        scenario = enumerate_link_failures(network, k=1)[0]
        mapped, reason = abstract_scenario_for(
            result.abstraction, network, scenario
        )
        # With >1-member groups around, at least the checker must give a
        # concrete reason whenever it rejects.
        assert (mapped is None) == bool(reason)

    def test_edge_preimages_invalidate_on_graph_mutation(self):
        """The preimage memo must track the graph's mutation counter."""
        network = build_topology("ring", 5)
        from repro.abstraction.bonsai import Bonsai

        bonsai = Bonsai(network)
        ec = routable_equivalence_classes(network)[0]
        abstraction = bonsai.compress(ec, build_network=False).abstraction
        before = abstraction.edge_preimages(network.graph)
        assert abstraction.edge_preimages(network.graph) is before  # memo hit
        network.graph.remove_edge("r0", "r1")
        network.graph.remove_edge("r1", "r0")
        after = abstraction.edge_preimages(network.graph)
        assert after is not before
        assert all(("r0", "r1") not in links for links in after.values())

    def test_identity_abstraction_maps_scenarios_one_to_one(self):
        network = chain_network(4)
        from repro.abstraction.bonsai import Bonsai

        bonsai = Bonsai(network)
        ec = routable_equivalence_classes(network)[0]
        result = bonsai.compress(ec, build_network=True)
        scenario = link_scenario("r1", "r2")
        mapped, reason = abstract_scenario_for(
            result.abstraction, network, scenario
        )
        assert reason == "" and mapped is not None
        assert len(mapped.links) == 1


# ----------------------------------------------------------------------
# Sweep driver and report
# ----------------------------------------------------------------------
class TestFailureSweep:
    def test_report_json_roundtrip(self):
        report = FailureSweep(chain_network(4), k=1, executor="serial").run()
        restored = FailureReport.from_json(report.to_json())
        assert restored.canonical_records() == report.canonical_records()
        assert restored.num_scenarios == report.num_scenarios
        assert restored.incremental_all_match() == report.incremental_all_match()
        data = report.to_dict()
        assert "aggregate" in data
        assert data["aggregate"]["incremental_all_match"] is True

    def test_verdict_deltas_and_first_failing_scenario(self):
        report = FailureSweep(chain_network(5), k=1, executor="serial").run()
        first = report.first_break()
        assert first["reachability"] == "link:r0|r1"
        outcome = report.records[0].scenarios[0]
        assert outcome.newly_failing["reachability"] == ["r0"]
        counts = report.break_counts()
        assert counts["reachability"] == 4
        # Each broken property carries one structured witness.
        witness = outcome.witnesses["reachability"]
        assert witness["path"] == ["r0"]  # r0 is cut off entirely

    def test_unroutable_when_every_origin_fails(self):
        network = chain_network(4)
        report = FailureSweep(
            network,
            scenarios=[node_scenario("r3")],  # the only originator
            executor="serial",
        ).run()
        outcome = report.records[0].scenarios[0]
        assert outcome.unroutable and not outcome.incremental_used
        assert set(outcome.newly_failing["reachability"]) == {"r0", "r1", "r2"}

    def test_node_failure_with_surviving_origins_uses_scratch(self):
        graph, _ = chain_topology(4)
        network = uniform_bgp_network(graph, "chain-2o", originators=["r0"])
        # Anycast the same prefix from both ends: the class then has two
        # origins and can survive losing one of them.
        prefix = network.devices["r0"].originated_prefixes[0]
        network.devices["r3"].originated_prefixes.append(prefix)
        report = FailureSweep(
            network, scenarios=[node_scenario("r0")], executor="serial"
        ).run()
        outcomes = [
            o
            for r in report.records
            for o in r.scenarios
            if "r0" in r.origins and not o.unroutable
        ]
        assert outcomes
        # Origin set changed: the scratch path serves the solution.
        assert all(not o.incremental_used for o in outcomes)

    def test_process_executor_matches_serial(self):
        network = build_topology("ring", 4)
        serial = FailureSweep(
            network, k=1, executor="serial", soundness=False
        ).run()
        process = FailureSweep(
            network, k=1, executor="process", workers=2, soundness=False
        ).run()
        assert serial.canonical_records() == process.canonical_records()

    def test_sweep_network_convenience(self):
        report = sweep_network(
            chain_network(4), k=1, properties=["reachability"]
        )
        assert report.properties == ["reachability"]
        assert report.ok()

    def test_explicit_scenarios_are_validated(self):
        network = build_topology("ring", 4)
        with pytest.raises(ScenarioError):
            FailureSweep(network, scenarios=[link_scenario("r0", "r2")])

    def test_speedup_is_reported_when_oracle_runs(self):
        report = FailureSweep(
            build_topology("fattree", 4), k=1, executor="serial", soundness=False
        ).run()
        assert report.incremental_speedup is not None
        assert report.scratch_seconds > 0 and report.incremental_seconds > 0

    def test_no_oracle_skips_scratch(self):
        report = FailureSweep(
            chain_network(4), k=1, executor="serial", oracle=False, soundness=False
        ).run()
        outcomes = [o for r in report.records for o in r.scenarios]
        assert all(o.incremental_matches_scratch is None for o in outcomes)
        assert report.scratch_seconds == 0
        assert report.ok()  # no divergence recorded means the gate passes

    def test_link_failures_pay_the_class_invariants_and_the_srp_once(self, monkeypatch):
        """A link failure shares every device config with the baseline:
        its unused communities and local preferences are the baseline's,
        never re-derived on the failed view, and the scratch and seeded
        arms solve one SRP, built once per (class, scenario)."""
        from repro.config.network import Network
        from repro.failures import sweep as failure_sweep

        derived = []
        for name in ("unused_communities", "local_pref_values_by_device"):
            original = getattr(Network, name)

            def counted(self, _original=original, _name=name):
                if "@" in self.name and "-abstract-" not in self.name:
                    derived.append((_name, self.name))
                return _original(self)

            monkeypatch.setattr(Network, name, counted)
        built = []
        original_build = failure_sweep.build_srp_from_network
        monkeypatch.setattr(
            failure_sweep,
            "build_srp_from_network",
            lambda *args, **kwargs: built.append(args[0].name) or original_build(*args, **kwargs),
        )
        network = build_topology("fattree", 4)
        report = FailureSweep(network, k=1, executor="serial").run()
        assert report.ok() and report.oracle
        assert derived == []
        units = sum(not o.unroutable for r in report.records for o in r.scenarios)
        assert len(built) == units == report.num_classes * report.num_scenarios

        # A failed device drops out of both: derived from the failed view.
        derived.clear()
        FailureSweep(
            network, scenarios=[FailureScenario(nodes=frozenset({"core0"}))], limit=1,
            executor="serial",
        ).run()
        assert {name for name, _ in derived} == {
            "unused_communities", "local_pref_values_by_device"
        }


# ----------------------------------------------------------------------
# k-resilience over the sweep records
# ----------------------------------------------------------------------
class TestKResilience:
    def test_chain_has_no_resilient_node(self):
        """Every node of a chain depends on every downstream link."""
        report = FailureSweep(
            chain_network(5), k=1, executor="serial", soundness=False
        ).run()
        resilience = report.k_resilience()
        assert resilience["complete"] is True and resilience["k"] == 1
        entry = resilience["per_class"][report.records[0].prefix]
        # Only the origin itself (which reaches itself trivially) survives
        # every cut; every transit node depends on its downstream chain.
        assert entry["resilient"] == ["r4"]
        # r0's first break is losing its only link (sweep order).
        assert entry["fragile"]["r0"] == "link:r0|r1"
        assert set(entry["fragile"]) == {"r0", "r1", "r2", "r3"}

    def test_fattree_single_link_resilience(self):
        """Multipath fabrics survive any single cut except origin stubs."""
        network = build_topology("fattree", 4)
        report = FailureSweep(
            network, k=1, executor="serial", soundness=False, limit=2
        ).run()
        for record in report.records:
            entry = report.k_resilience()["per_class"][record.prefix]
            # The fabric is 2-connected above the edge tier: most nodes
            # keep reachability under every single-link cut.
            assert entry["resilient"], (record.prefix, entry)
        aggregate = report.to_dict()["aggregate"]
        assert aggregate["k_resilience"]["complete"] is True

    def test_sampled_sweeps_are_flagged_incomplete(self):
        network = build_topology("mesh", 6)
        report = FailureSweep(
            network, k=2, sample=5, executor="serial", soundness=False, limit=1
        ).run()
        assert report.exhaustive is False
        assert report.k_resilience()["complete"] is False
        assert any(
            "upper bound" in line for line in report.summary_lines()
        )

    def test_resilience_survives_json_roundtrip(self):
        report = FailureSweep(
            chain_network(4), k=1, executor="serial", soundness=False
        ).run()
        restored = FailureReport.from_json(report.to_json())
        assert restored.k_resilience() == report.k_resilience()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestFailuresCli:
    def test_failures_smoke(self, tmp_path, capsys):
        out = tmp_path / "failures.json"
        status = pipeline_main(
            [
                "failures",
                "--family",
                "ring",
                "--size",
                "5",
                "--executor",
                "serial",
                "--output",
                str(out),
            ]
        )
        assert status == 0
        report = FailureReport.from_json(out.read_text())
        assert report.num_scenarios == 5
        assert "failure sweep: ring(5)" in capsys.readouterr().out

    def test_failures_flags_require_mode(self, capsys):
        assert pipeline_main(["compress", "--topo", "ring", "--sample", "3"]) == 2
        assert "unrecognized arguments: --sample" in capsys.readouterr().err
        # --k and --seed are rejected too, not silently ignored.
        assert pipeline_main(["delta", "--topo", "ring", "--k", "2"]) == 2
        assert "unrecognized arguments: --k" in capsys.readouterr().err
        assert pipeline_main(["verify", "--topo", "ring", "--seed", "5"]) == 2
        assert "unrecognized arguments: --seed" in capsys.readouterr().err

    def test_verify_and_failures_are_exclusive(self, capsys):
        assert pipeline_main(["verify", "--failures", "--topo", "ring"]) == 2

    def test_timeout_rejected_in_failures_mode(self, capsys):
        assert (
            pipeline_main(
                ["failures", "--topo", "ring", "--size", "4", "--timeout", "5"]
            )
            == 2
        )

    def test_properties_flag_works_with_failures(self, tmp_path):
        status = pipeline_main(
            [
                "failures",
                "--family",
                "ring",
                "--size",
                "4",
                "--executor",
                "serial",
                "--properties",
                "reachability",
                "--no-soundness",
            ]
        )
        assert status == 0
