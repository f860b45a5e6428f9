"""Tests for destination equivalence classes and the Bonsai pipeline (§5, §7)."""

import importlib.util
from pathlib import Path

import pytest

from repro.abstraction import (
    Bonsai,
    EquivalenceClass,
    compute_equivalence_classes,
    routable_equivalence_classes,
)
from repro.abstraction.equivalence import build_abstract_srp, check_cp_equivalence
from repro.config import build_srp_from_network, parse_network
from repro.pipeline.report import EcRecord
from repro.srp import solve


def _load_ablation():
    """The ablation benchmark, loaded by path: its syntactic arm (syntactic
    keys are no product mode) and its hand-written network."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_ablation_bdd_vs_syntactic.py"
    spec = importlib.util.spec_from_file_location("bench_ablation_bdd_vs_syntactic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ABLATION = _load_ablation()


class TestEquivalenceClasses:
    def test_fattree_one_class_per_tor_prefix(self, small_fattree):
        classes = routable_equivalence_classes(small_fattree)
        assert len(classes) == 8  # k=4 fat-tree has 8 edge switches
        for ec in classes:
            assert len(ec.origins) == 1
            assert ec.is_routable

    def test_unroutable_classes_filtered(self, small_datacenter):
        all_classes = compute_equivalence_classes(small_datacenter)
        routable = routable_equivalence_classes(small_datacenter)
        assert len(routable) <= len(all_classes)

    def test_each_fattree_class_is_rooted_at_the_switch_originating_it(self, small_fattree):
        originator = {
            prefix: name
            for name, device in small_fattree.devices.items()
            for prefix in device.originated_prefixes
        }
        classes = compute_equivalence_classes(small_fattree)
        assert {ec.prefix for ec in classes} == set(originator)
        for ec in classes:
            assert ec.origins == frozenset({originator[ec.prefix]})

    def test_a_class_without_origins_is_unroutable(self, small_fattree):
        classes = compute_equivalence_classes(small_fattree)
        unroutable = EquivalenceClass(prefix=classes[0].prefix, origins=frozenset())
        assert classes[0].is_routable and not unroutable.is_routable


class TestBonsaiPipeline:
    def test_fattree_compresses_to_paper_size(self, small_fattree):
        bonsai = Bonsai(small_fattree)
        result = bonsai.compress(bonsai.equivalence_classes()[0])
        assert result.abstract_nodes == 6
        assert result.abstract_edges == 5
        assert result.node_compression_ratio() == pytest.approx(20 / 6)

    def test_one_size_with_two_origins(self, small_fattree):
        """A class with two origins gets a virtual destination; both sides
        of every size leave it and its edges out, and the counts agree
        with the emitted abstract network and the report record."""
        prefix = small_fattree.devices["edge0_0"].originated_prefixes[0]
        small_fattree.devices["edge0_1"].originated_prefixes.append(prefix)
        bonsai = Bonsai(small_fattree)
        (ec,) = [c for c in bonsai.equivalence_classes() if c.prefix == prefix]
        assert len(ec.origins) == 2
        result = bonsai.compress(ec, build_network=True)
        emitted = result.abstract_network.graph
        assert (result.concrete_nodes, result.concrete_edges) == (20, 32)
        assert (result.abstract_nodes, result.abstract_edges) == (
            emitted.num_nodes(), emitted.num_undirected_edges()
        ) == (5, 4)
        assert result.node_compression_ratio() == pytest.approx(4.0)
        assert result.edge_compression_ratio() == pytest.approx(8.0)
        record = EcRecord.from_result(result)
        assert (record.node_ratio, record.edge_ratio) == (4.0, 8.0)

    def test_compression_is_cp_equivalent(self, small_fattree):
        bonsai = Bonsai(small_fattree)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=False)
        report = check_cp_equivalence(
            result.concrete_srp,
            result.abstraction,
            abstract_srp=build_abstract_srp(result.concrete_srp, result.abstraction),
        )
        assert report.cp_equivalent, report.violations

    def test_bdd_and_syntactic_keys_agree_on_fattree(self, small_fattree):
        bonsai = Bonsai(small_fattree)
        ec = bonsai.equivalence_classes()[0]
        syntactic = ABLATION.syntactic_compress(Bonsai(small_fattree), ec)
        assert bonsai.compress(ec).abstract_nodes == syntactic.abstract_nodes

    def test_syntactic_keys_miss_semantically_equal_policies(self):
        """The ablation's claim: only BDD keys merge the leaves whose
        policies are equal but written differently."""
        network = parse_network(ABLATION.DIVERSE, name="diverse")
        with_bdds, syntactic = ABLATION.compress_first(network)
        assert with_bdds.abstract_nodes < syntactic.abstract_nodes

    def test_compress_all_and_summary(self, small_mesh):
        bonsai = Bonsai(small_mesh)
        results = bonsai.compress_all(limit=3)
        assert len(results) == 3
        summary = bonsai.summarize(results)
        assert summary.concrete_nodes == 6
        assert summary.mean_abstract_nodes == pytest.approx(2.0)
        assert summary.node_ratio == pytest.approx(3.0)
        row = summary.as_row()
        assert row["topology"] == "mesh-6"
        assert row["num_ecs"] == 6

    def test_summary_requires_results(self, small_mesh):
        with pytest.raises(ValueError):
            Bonsai(small_mesh).summarize([])

    def test_unique_roles_small_fattree(self, small_fattree):
        bonsai = Bonsai(small_fattree)
        # Shortest-path fat-tree devices differ only in whether they
        # originate a prefix, not in policy: a handful of roles.
        assert 1 <= bonsai.unique_roles() <= 3

    def test_prefer_bottom_compresses_less(self, small_fattree, small_fattree_prefer_bottom):
        plain = Bonsai(small_fattree)
        policy = Bonsai(small_fattree_prefer_bottom)
        ec_plain = plain.equivalence_classes()[0]
        ec_policy = policy.equivalence_classes()[0]
        assert policy.compress(ec_policy).abstract_nodes > plain.compress(ec_plain).abstract_nodes


class TestAbstractNetworkOutput:
    def test_abstract_network_is_valid_and_small(self, small_fattree):
        bonsai = Bonsai(small_fattree)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=True)
        abstract = result.abstract_network
        assert abstract is not None
        assert abstract.graph.num_nodes() == result.abstract_nodes
        assert abstract.validate() == []

    def test_abstract_network_preserves_reachability(self, small_fattree):
        """Simulating the emitted abstract configurations gives routes to the
        same destination everywhere, like the concrete network."""
        bonsai = Bonsai(small_fattree)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=True)
        abstract = result.abstract_network

        concrete_solution = solve(result.concrete_srp)
        abstract_srp = build_srp_from_network(abstract, ec.prefix)
        abstract_solution = solve(abstract_srp)

        concrete_routed = all(
            concrete_solution.labeling[node] is not None
            for node in small_fattree.graph.nodes
        )
        abstract_routed = all(
            abstract_solution.labeling[node] is not None
            for node in abstract.graph.nodes
        )
        assert concrete_routed and abstract_routed

    def test_abstract_network_keeps_origin_and_statics(self, small_datacenter):
        bonsai = Bonsai(small_datacenter)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=True)
        abstract = result.abstract_network
        assert abstract is not None
        origins = [
            name for name, dev in abstract.devices.items() if dev.originates(ec.prefix)
        ]
        assert len(origins) >= 1
