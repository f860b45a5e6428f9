"""Class orbits: verify takes a symmetric class's solutions from its
family's representative (``repro.abstraction.orbit``), and nothing it
reports changes.

What the tie check relies on is pinned first: a scratch solve does not
depend on the order the graph lists nodes and edges, and its tie log
lists exactly the decisions between distinct minimum-rank offers.
"""

from __future__ import annotations

import gc
import random
import weakref
from collections import Counter
from dataclasses import asdict, replace

import pytest
from hypothesis import given, settings, strategies as st
from test_golden_reports import FAMILIES, VERIFY_CASES, scrub
from test_property_based import random_connected_graph

from repro import fattree_network
from repro.abstraction import orbit, partition_orbit
from repro.abstraction.bonsai import Bonsai
from repro.abstraction.equivalence import check_cp_equivalence
from repro.analysis.batch import BatchVerifier
from repro.delta import DeltaSweep
from repro.failures import FailureSweep
from repro.config.prefix import Prefix
from repro.config.transfer import build_srp_from_network
from repro.netgen import uniform_bgp_network
from repro.netgen.changes import default_change_steps, generated_change_script
from repro.netgen.families import build_topology
from repro.obs import metrics
from repro.pipeline.core import CompressionPipeline
from repro.srp.solver import _attribute_sort_key, solve
from repro.store.artifact import BaselineArtifact
from repro.topology import Graph


# ----------------------------------------------------------------------
# What the tie check relies on
# ----------------------------------------------------------------------
class PermutedGraph(Graph):
    """``graph`` with its nodes, edges and each node's out- and in-edges
    listed in a seeded shuffled order."""

    def __init__(self, graph: Graph, seed: int):
        rng = random.Random(seed)
        nodes, edges = graph.nodes, graph.edges
        rng.shuffle(nodes)
        rng.shuffle(edges)
        super().__init__(nodes, edges)
        self.seed = seed

    def _shuffled(self, items, node):
        random.Random(f"{self.seed}:{node}").shuffle(items)
        return items

    def out_edges(self, node):
        return self._shuffled(super().out_edges(node), node)

    def in_edges(self, node):
        return self._shuffled(super().in_edges(node), node)


def _class_srps(network):
    bonsai = Bonsai(network)
    return [bonsai.concrete_srp(ec) for ec in bonsai.equivalence_classes()]


def _forwarding_sets(solution):
    return {node: set(edges) for node, edges in solution.forwarding.items()}


@st.composite
def shortest_path_networks(draw):
    graph, nodes = random_connected_graph(draw)
    origins = draw(st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True))
    return uniform_bgp_network(graph, "random", originators=origins)


class TestOrderIndependence:
    @settings(max_examples=30, deadline=None)
    @given(network=shortest_path_networks(), seed=st.integers(0, 2**16))
    def test_scratch_solve_ignores_listing_order(self, network, seed):
        for srp in _class_srps(network):
            if srp.transfer.virtual_edges:
                continue  # its graph is a copy the permutation would not reach
            solution = solve(srp)
            permuted = solve(replace(srp, graph=PermutedGraph(srp.graph, seed)))
            assert permuted.labeling == solution.labeling
            assert _forwarding_sets(permuted) == _forwarding_sets(solution)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_prefer_bottom_fattree_ignores_listing_order(self, seed):
        for srp in _class_srps(fattree_network(4, policy="prefer_bottom")):
            solution = solve(srp)
            permuted = solve(replace(srp, graph=PermutedGraph(srp.graph, seed)))
            assert permuted.labeling == solution.labeling
            assert _forwarding_sets(permuted) == _forwarding_sets(solution)


def _reference_ties(srp):
    """The worklist's rounds replayed naively: every decision of a dirty
    node whose minimum-rank offers are distinct attributes."""
    rank = srp.prefer.__self__.rank
    graph, destination = srp.graph, srp.destination
    labeling = {node: None for node in graph.nodes}
    labeling[destination] = srp.initial
    dirty = [node for node in graph.nodes if node != destination]
    ties = []
    while True:
        updates = []
        for node in dirty:
            offers = {
                attr
                for edge in graph.out_edges(node)
                if (attr := srp.transfer(edge, labeling[edge[1]])) is not None
            }
            best = None
            if offers:
                top = min(rank(attr) for attr in offers)
                tied = [attr for attr in offers if rank(attr) == top]
                best = min(tied, key=_attribute_sort_key)
                if len(tied) > 1:
                    ties.append((node, best, frozenset(tied)))
            if best != labeling[node]:
                updates.append((node, best))
        if not updates:
            return ties
        for node, best in updates:
            labeling[node] = best
        dirty = list({u: None for node, _ in updates for u, _ in graph.in_edges(node) if u != destination})


class TestTieLog:
    def test_diamond_logs_its_one_tie(self):
        graph = Graph(["d", "a", "b", "c"])
        for u, v in (("d", "a"), ("d", "b"), ("a", "c"), ("b", "c")):
            graph.add_undirected_edge(u, v)
        (srp,) = _class_srps(uniform_bgp_network(graph, "diamond", originators=["d"]))
        log = []
        solution = solve(srp, tie_log=log)
        assert len(log) == 1
        node, chosen, tied = log[0]
        assert node == "c" and chosen is solution.labeling["c"]
        assert sorted(attr.bgp.as_path for attr in tied) == [("a", "d"), ("b", "d")]
        assert chosen.bgp.as_path == ("a", "d")

    def test_equal_offers_are_no_tie(self):
        """Two neighbours offering the *same* attribute (no AS path
        differs: a virtual destination hands both origins the initial
        route) break no tie."""
        graph = Graph(["a", "b"])
        graph.add_undirected_edge("a", "b")
        network = uniform_bgp_network(graph, "pair", originators=["a"])
        anycast = Prefix.parse("10.99.0.0/24")
        for device in network.devices.values():
            device.originated_prefixes.append(anycast)
        srp = build_srp_from_network(network, anycast, include_syntactic_keys=False)
        log = []
        solve(srp, tie_log=log)
        assert log == []

    @pytest.mark.parametrize(
        "network, ties",
        [
            (fattree_network(4, policy="prefer_bottom"), True),
            (fattree_network(4), True),
            (build_topology("ring", 6), True),
            # OSPF and iBGP cores: every tie is between equal attributes.
            (build_topology("wan"), False),
        ],
        ids=["fattree-prefer_bottom", "fattree", "ring", "wan"],
    )
    def test_log_lists_exactly_the_distinct_ties(self, network, ties):
        logged = 0
        for srp in _class_srps(network):
            log = []
            solve(srp, tie_log=log)
            logged += len(log)
            got = Counter((node, chosen, frozenset(tied)) for node, chosen, tied in log)
            assert all(len(set(tied)) == len(tied) > 1 for _, _, tied in log)
            assert got == Counter(_reference_ties(srp))
        assert bool(logged) == ties


# ----------------------------------------------------------------------
# Orbit ≡ per-class
# ----------------------------------------------------------------------
def anycast_fattree():
    """A k=4 fat-tree whose prefixes are all anycast, each originated by
    ToRs of two pods: multi-origin classes under a virtual destination,
    images of each other."""
    network = fattree_network(4)
    for device in network.devices.values():
        device.originated_prefixes.clear()
    for index, origins in enumerate((("edge0_0", "edge1_0"), ("edge2_0", "edge3_0"),
                                     ("edge0_1", "edge2_1"))):
        prefix = Prefix.parse(f"10.99.{index}.0/24")
        for origin in origins:
            network.devices[origin].originated_prefixes.append(prefix)
    return network


NETWORKS = {**VERIFY_CASES, "anycast-fattree": anycast_fattree}


def _verify(network):
    before = metrics.snapshot_counters()
    report = BatchVerifier(network, executor="serial").run()
    counts = {
        name: value for name, value in metrics.counters_delta(before).items()
        if name.startswith("verify.orbit.")
    }
    return report, counts


def _full_records(report):
    """Every record field but timings and ``orbit_mapped``."""
    return [scrub(asdict(record)) for record in report.records]


class TestOrbitEqualsPerClass:
    """The twin: orbit ≡ per-class.  The per-class side is the same run
    with the candidate finder patched to find none."""

    @pytest.mark.parametrize("name", sorted(NETWORKS))
    def test_records_equal_per_class_records(self, name, monkeypatch):
        orbits, counts = _verify(NETWORKS[name]())
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, per_class_counts = _verify(NETWORKS[name]())
        assert orbits.canonical_records() == per_class.canonical_records()
        assert orbits.property_totals() == per_class.property_totals()
        assert _full_records(orbits) == _full_records(per_class)
        assert per_class.orbit_counts() == (0, 0)
        assert "verify.orbit.mapped.concrete" not in per_class_counts
        mapped = orbits.orbit_counts()
        assert (counts.get("verify.orbit.mapped.concrete", 0),
                counts.get("verify.orbit.mapped.abstract", 0)) == mapped
        if name.startswith(("verify-fattree", "verify-mesh", "anycast")):
            assert min(mapped) > 0

    def test_anycast_classes_map_through_the_virtual_destination(self):
        report, counts = _verify(anycast_fattree())
        assert [len(r.origins) for r in report.records] == [2, 2, 2]
        assert [r.orbit_mapped for r in report.records] == [[]] + [["concrete", "abstract"]] * 2
        assert counts["verify.orbit.solved.representative"] == 1

    def test_anycast_classes_beside_unicast_ones_map_from_each_other(self):
        """Representatives are kept per (family, origin count): the first
        anycast class of a family whose first class is unicast represents
        the second, which maps both solves."""
        network = fattree_network(4)
        for index, origins in enumerate((("edge0_0", "edge1_0"), ("edge2_0", "edge3_0"))):
            prefix = Prefix.parse(f"10.99.{index}.0/24")
            for origin in origins:
                network.devices[origin].originated_prefixes.append(prefix)
        report, counts = _verify(network)
        anycast = [r for r in report.records if len(r.origins) == 2]
        assert len(anycast) == 2 and len(report.records) > 2
        assert [r.orbit_mapped for r in anycast] == [[], ["concrete", "abstract"]]
        assert counts["verify.orbit.solved.representative"] == 2
        assert "verify.orbit.solved.no-candidate" not in counts

    def test_each_origin_count_keeps_its_own_representative(self):
        """Unicast, two-origin and three-origin classes of one family:
        three representatives, and the second class of each anycast
        count maps both solves from the first of that count."""
        network = fattree_network(4)
        anycast = (
            ("edge0_0", "edge1_0"), ("edge2_0", "edge3_0"),
            ("edge0_0", "edge1_0", "edge2_0"), ("edge1_0", "edge2_0", "edge3_0"),
        )
        for index, origins in enumerate(anycast):
            prefix = Prefix.parse(f"10.99.{index}.0/24")
            for origin in origins:
                network.devices[origin].originated_prefixes.append(prefix)
        report, counts = _verify(network)
        for size in (2, 3):
            records = [r for r in report.records if len(r.origins) == size]
            assert [r.orbit_mapped for r in records] == [[], ["concrete", "abstract"]]
        assert counts["verify.orbit.solved.representative"] == 3
        assert "verify.orbit.solved.no-candidate" not in counts

    def test_anycast_records_equal_per_class_records(self, monkeypatch):
        """The twin on a family with unicast and anycast classes: mapping
        the second anycast class changes nothing it reports."""

        def network():
            built = fattree_network(4)
            for index, origins in enumerate((("edge0_0", "edge1_0"), ("edge2_0", "edge3_0"))):
                prefix = Prefix.parse(f"10.99.{index}.0/24")
                for origin in origins:
                    built.devices[origin].originated_prefixes.append(prefix)
            return built

        orbits, counts = _verify(network())
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, _ = _verify(network())
        assert counts["verify.orbit.mapped.concrete"] > 0
        assert orbits.canonical_records() == per_class.canonical_records()
        assert _full_records(orbits) == _full_records(per_class)

    def test_composed_classes_map_both_solves(self, monkeypatch):
        """On a k=6 fat-tree classes the Schreier tree reaches take σ
        unchecked; both their solves and their partition map through it,
        and the records are the per-class twin's."""
        classes = []
        count = orbit.ClassOrbit.count

        def tracking(self):
            classes.append((self.how, list(self.mapped)))
            count(self)

        monkeypatch.setattr(orbit.ClassOrbit, "count", tracking)
        before = metrics.snapshot_counters()
        orbits, _ = _verify(build_topology("fattree", 6))
        assert metrics.counters_delta(before)["abstraction.orbit.mapped.composed"] > 0
        composed = [mapped for how, mapped in classes if how == "composed"]
        assert composed and all(mapped == ["concrete", "abstract"] for mapped in composed)
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, _ = _verify(build_topology("fattree", 6))
        assert per_class.orbit_counts() == (0, 0)
        assert orbits.canonical_records() == per_class.canonical_records()
        assert _full_records(orbits) == _full_records(per_class)

    @pytest.mark.parametrize(
        "k, abstract_mapped, tie_order",
        # k=6: the induced abstract names reorder 9 classes' abstract ties.
        [(4, 7, 0), (6, 8, 9)],
    )
    def test_prefer_bottom_maps_all_concrete_solves_but_one(self, k, abstract_mapped, tie_order):
        report, counts = _verify(fattree_network(k, policy="prefer_bottom"))
        classes = report.record_count()
        expected = {
            "verify.orbit.mapped.concrete": classes - 1,
            "verify.orbit.mapped.abstract": abstract_mapped,
            "verify.orbit.solved.representative": 1,
        }
        if tie_order:
            expected["verify.orbit.solved.tie-order"] = tie_order
        assert counts == expected
        summary = (
            f"class orbits: {classes - 1} concrete and {abstract_mapped} abstract solves "
            f"of {classes} classes mapped"
        )
        assert any(line.startswith(summary) for line in report.summary_lines())


class TestRenaming:
    def test_renamed_sort_keys_are_the_renamed_reprs(self):
        """The tie check derives a renamed attribute's key from its
        source's; it must be exactly the ``repr`` the solver sorts by."""
        network = fattree_network(4, policy="prefer_bottom")
        bonsai = Bonsai(network)
        classes = bonsai.equivalence_classes()
        srps = [bonsai.concrete_srp(ec) for ec in classes]
        shapes = orbit.FamilyShape(srps[0], bonsai.policy_keys(classes[0].prefix), frozenset())
        shape_a = shapes.shape(srps[0])
        _, solved = orbit.solve_logged(srps[0], shape_a)
        ties = solved.ties
        for srp in srps[1:]:
            shape_b = shapes.shape(srp)
            rename = orbit.Renamer(
                orbit.isomorphism(orbit.candidate(shape_a, shape_b), shape_a, shape_b)
            )
            renamed = [rename(attr) for attr in ties.attributes]
            assert any(new is not old for new, old in zip(renamed, ties.attributes))
            assert rename.sort_keys(ties) == [_attribute_sort_key(attr) for attr in renamed]


class TestFallback:
    def test_ring_reflections_solve_themselves(self, monkeypatch):
        """On a 6-ring name order pairs r1's class wrongly: the check
        refuses σ and r1 solves itself.  r2's and r3's σs (reflections)
        check out, and the tree composes them to reach r4 (a reflection)
        and r5 (a rotation) unchecked.  r4's σ breaks a concrete tie the
        other way, so only its abstract solve maps.  The records are the
        per-class twin's."""
        report, counts = _verify(build_topology("ring", 6))
        assert counts == {
            "verify.orbit.solved.representative": 1,
            "verify.orbit.solved.not-isomorphic": 1,
            "verify.orbit.solved.tie-order": 1,
            "verify.orbit.mapped.concrete": 3,
            "verify.orbit.mapped.abstract": 4,
        }
        assert [record.orbit_mapped for record in report.records] == [
            [], [], ["concrete", "abstract"], ["concrete", "abstract"], ["abstract"],
            ["concrete", "abstract"],
        ]
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, _ = _verify(build_topology("ring", 6))
        assert report.canonical_records() == per_class.canonical_records()
        assert _full_records(report) == _full_records(per_class)

    def test_wan_classes_solve_themselves(self):
        report, counts = _verify(build_topology("wan"))
        assert counts == {
            "verify.orbit.solved.representative": 2,
            "verify.orbit.solved.no-candidate": 8,
        }
        assert report.orbit_counts() == (0, 0)

    def test_an_automorphism_that_reorders_a_tie_is_refused(self):
        """Two gadgets, the leaf on the lesser middle node in one and on
        the greater in the other: σ swaps the gadgets, checks out as an
        automorphism, and maps the tie at ``t`` (via ``a`` over via ``b``)
        onto via ``d`` over via ``c`` -- which the solver breaks the other
        way."""
        graph = Graph()
        for u, v in (
            ("o1", "a"), ("o1", "b"), ("t", "a"), ("t", "b"), ("a", "l1"),
            ("o2", "c"), ("o2", "d"), ("t", "c"), ("t", "d"), ("d", "l2"),
        ):
            graph.add_undirected_edge(u, v)
        network = uniform_bgp_network(graph, "gadgets", originators=["o1", "o2"])
        bonsai = Bonsai(network)
        first, second = bonsai.equivalence_classes()
        srp_a, srp_b = bonsai.concrete_srp(first), bonsai.concrete_srp(second)
        family = bonsai.policy_keys(first.prefix)
        assert bonsai.policy_keys(second.prefix) is family
        shapes = orbit.FamilyShape(srp_a, family, frozenset())
        shape_a, shape_b = shapes.shape(srp_a), shapes.shape(srp_b)
        sigma = orbit.candidate(shape_a, shape_b)
        assert sigma == {
            "o1": "o2", "a": "d", "b": "c", "l1": "l2", "t": "t",
            "o2": "o1", "d": "a", "c": "b", "l2": "l1",
        }
        alpha = orbit.isomorphism(sigma, shape_a, shape_b)
        assert alpha == sigma
        _, solved = orbit.solve_logged(srp_a, shape_a)
        assert solved.ties.decisions
        assert not orbit.Renamer(alpha).ties_hold(solved.ties)
        assert orbit.Renamer({name: name for name in alpha}).ties_hold(solved.ties)

        report, counts = _verify(network)
        assert counts == {
            "verify.orbit.solved.representative": 1,
            "verify.orbit.solved.tie-order": 1,
        }
        assert report.orbit_counts() == (0, 0)


# ----------------------------------------------------------------------
# Compress: one refinement per orbit
# ----------------------------------------------------------------------
COMPRESS_NETWORKS = {
    **{family: (lambda family=family: build_topology(family)) for family in FAMILIES},
    **{
        f"fattree-prefer_bottom-k{k}": (lambda k=k: fattree_network(k, policy="prefer_bottom"))
        for k in (4, 6, 10)
    },
    "anycast-fattree": anycast_fattree,
}


def _compress(network, **mode):
    before = metrics.snapshot_counters()
    report = CompressionPipeline(network, **mode).run_streaming(spill=False)
    counts = {
        name: value for name, value in metrics.counters_delta(before).items()
        if name.startswith(("abstraction.orbit.", "abstraction.refinement_cache."))
    }
    return [record.canonical() for record in report.records], counts, report


def _per_class(network, patch):
    """The compress run with refinement on every class: no candidate σ."""
    patch.setattr(orbit, "candidate", lambda a, b: None)
    return _compress(network, executor="serial")


class TestCompressOrbitEqualsPerClass:
    """The twin: a class mapped from its orbit's representative has the
    record its own refinement gives."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("name", sorted(COMPRESS_NETWORKS))
    def test_records_equal_per_class_records(self, name, executor, monkeypatch):
        mode = dict(executor=executor, workers=2) if executor == "process" else {"executor": executor}
        records, counts, _ = _compress(COMPRESS_NETWORKS[name](), **mode)
        with monkeypatch.context() as patch:
            per_class, per_class_counts, _ = _per_class(COMPRESS_NETWORKS[name](), patch)
        assert records == per_class
        assert not any(name.startswith("abstraction.orbit.mapped.") for name in per_class_counts)
        mapped = sum(v for k, v in counts.items() if k.startswith("abstraction.orbit.mapped."))
        refined = sum(v for k, v in counts.items() if k.startswith("abstraction.orbit.refined."))
        assert mapped + refined == len(records)
        if name.startswith(("fattree", "mesh", "anycast")) and executor == "serial":
            assert counts["abstraction.orbit.refined.representative"] == 1
            assert mapped == len(records) - 1

    @pytest.mark.parametrize("name", sorted(COMPRESS_NETWORKS))
    def test_mapped_abstractions_are_cp_equivalent(self, name):
        run = CompressionPipeline(COMPRESS_NETWORKS[name](), executor="serial").run()
        mapped = [r for r in run.results if r.refinement.iterations == 0]
        if name.startswith(("fattree", "mesh", "anycast")):
            assert len(mapped) == len(run.results) - 1
        for result in mapped:
            report = check_cp_equivalence(result.concrete_srp, result.abstraction)
            assert report.cp_equivalent, report.violations

    def test_summary_and_cache_counters(self):
        records, counts, report = _compress(build_topology("fattree", 6), executor="serial")
        checked = counts["abstraction.orbit.mapped.checked"]
        composed = counts["abstraction.orbit.mapped.composed"]
        assert checked + composed == len(records) - 1 and composed > 0
        # A mapped class reads its family's refinement: a cache hit.
        assert counts["abstraction.refinement_cache.misses"] == 1
        assert counts["abstraction.refinement_cache.hits"] == len(records) - 1
        summary = (
            f"class orbits: {len(records) - 1} of {len(records)} classes mapped "
            f"({checked} mapped.checked, {composed} mapped.composed, 1 refined.representative)"
        )
        assert summary in report.summary_lines()


def _mapped(run):
    """``run()`` and how many classes took their partition from their orbit."""
    before = metrics.snapshot_counters()
    result = run()
    counts = metrics.counters_delta(before)
    return result, sum(v for k, v in counts.items() if k.startswith("abstraction.orbit.mapped."))


def _failures(network):
    return FailureSweep(network, k=2, sample=12, seed=1, executor="serial").run()


def _delta(network, family):
    script = generated_change_script(
        network, family, steps=default_change_steps(family), seed=0
    )
    return DeltaSweep(network, script=script, executor="serial").run()


class TestClassBaselinesEqualPerClass:
    """The twins of the class baselines that compress through the orbit:
    failures, delta and ``store save`` report what per-class refinement
    gives."""

    @pytest.mark.parametrize("k", [4, 6])
    def test_failures_records(self, k, monkeypatch):
        report, mapped = _mapped(lambda: _failures(build_topology("fattree", k)))
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, per_class_mapped = _mapped(lambda: _failures(build_topology("fattree", k)))
        assert mapped == report.num_classes - 1 and per_class_mapped == 0
        assert report.canonical_records() == per_class.canonical_records()

    @pytest.mark.parametrize("family, size", [("fattree", 4), ("wan", 10)])
    def test_delta_records(self, family, size, monkeypatch):
        report, mapped = _mapped(lambda: _delta(build_topology(family, size), family))
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            per_class, per_class_mapped = _mapped(
                lambda: _delta(build_topology(family, size), family)
            )
        # No WAN class passes the local filter: its twin holds refinement alone.
        assert (mapped > 0) == (family == "fattree") and per_class_mapped == 0
        assert report.canonical_records() == per_class.canonical_records()

    def test_store_partitions(self, monkeypatch):
        def partitions():
            built = BaselineArtifact.build(build_topology("fattree", 4))
            return {prefix: baseline.partition for prefix, baseline in built.baselines.items()}

        stored, mapped = _mapped(partitions)
        with monkeypatch.context() as patch:
            patch.setattr(orbit, "candidate", lambda a, b: None)
            refined, refined_mapped = _mapped(partitions)
        assert mapped == len(stored) - 1 and refined_mapped == 0
        assert stored == refined


def _class_by_class(network):
    """Each class through the compress task's orbit, with the orbit
    counters it moved, beside its own refinement."""
    bonsai, reference = Bonsai(network), Bonsai(network)
    for ec in bonsai.equivalence_classes():
        before = metrics.snapshot_counters()
        result = orbit.ClassOrbit(bonsai, ec).compress(bonsai.concrete_srp(ec))
        moved = {k for k in metrics.counters_delta(before) if k.startswith("abstraction.orbit.")}
        yield moved, result, reference.compress(ec, build_network=False)


def _same_refinement(got, expected):
    a, b = got.refinement.abstraction, expected.refinement.abstraction
    assert a.node_map == b.node_map and a.split_groups == b.split_groups
    assert a.abstract_graph.nodes == b.abstract_graph.nodes
    assert set(a.abstract_graph.edges) == set(b.abstract_graph.edges)
    assert got.refinement.split_counts == expected.refinement.split_counts
    assert sorted(map(sorted, got.refinement.partition.partitions())) == sorted(
        map(sorted, expected.refinement.partition.partitions())
    )


class TestCompressOrbitPaths:
    @pytest.mark.parametrize(
        "network",
        [lambda: build_topology("fattree", 6), lambda: fattree_network(6, policy="prefer_bottom")],
        ids=["shortest_path", "prefer_bottom"],
    )
    def test_composed_classes_equal_their_refinement(self, network):
        """A class whose origin set the checked generators already reach
        takes their product unchecked; it is still its refinement."""
        composed = 0
        for moved, got, expected in _class_by_class(network()):
            if "abstraction.orbit.mapped.composed" in moved:
                composed += 1
                assert got.refinement.iterations == 0
            _same_refinement(got, expected)
        assert composed > 0

    def test_a_non_automorphism_refines(self, monkeypatch):
        """Two of one node's out-edges swap keys in the second class's
        shape: its cells still pair, σ is no automorphism, and the class
        refines (``not-isomorphic``) to the right record."""
        network = fattree_network(4, policy="prefer_bottom")
        target = Bonsai(network).equivalence_classes()[1]
        shape = orbit.FamilyShape.shape

        def swapped(self, srp):
            built = shape(self, srp)
            if srp.destination in target.origins:
                node = next(n for n in self.order if len(set(self.multiset[n])) > 1)
                edges = srp.graph.out_edges(node)
                first = edges[0]
                other = next(e for e in edges if built.colours[e] != built.colours[first])
                built.colours = {
                    **built.colours, first: built.colours[other], other: built.colours[first]
                }
            return built

        monkeypatch.setattr(orbit.FamilyShape, "shape", swapped)
        outcomes = list(_class_by_class(network))
        assert outcomes[1][0] == {"abstraction.orbit.refined.not-isomorphic"}
        assert outcomes[1][1].refinement.iterations > 0
        for _, got, expected in outcomes:
            _same_refinement(got, expected)
        with monkeypatch.context() as patch:
            per_class, _, _ = _per_class(fattree_network(4, policy="prefer_bottom"), patch)
        records, counts, _ = _compress(network, executor="serial")
        assert records == per_class
        assert counts["abstraction.orbit.refined.not-isomorphic"] == 1

    def test_wan_builds_no_shape(self, monkeypatch):
        """No WAN class passes the local filter: none pays for a shape."""
        built = []
        init = orbit.FamilyShape.__init__

        def tracking(self, *args):
            built.append(self)
            init(self, *args)

        monkeypatch.setattr(orbit.FamilyShape, "__init__", tracking)
        records, counts, _ = _compress(build_topology("wan", 10), executor="serial")
        assert built == []
        assert counts["abstraction.orbit.refined.no-candidate"] == len(records) - 10

    def test_schreier_tree_reaches_the_orbit(self):
        """One rotation of a 6-cycle reaches every node from node 0; the
        composed map carries 0 onto the reached node."""
        tree = partition_orbit.PartitionOrbit(srp=None, refinement=None, origins=frozenset())
        tree.reached[frozenset({0})] = None
        tree.extend((1, 2, 3, 4, 5, 0))
        assert set(tree.reached) == {frozenset({i}) for i in range(6)}
        for i in range(6):
            assert tree.composed(frozenset({i}), 6)[0] == i


class TestRepresentativeLifetime:
    def test_no_representative_outlives_a_serial_run(self, monkeypatch):
        solved = []
        logged = orbit.solve_logged

        def tracking(srp, shape):
            solution, kept = logged(srp, shape)
            solved.append(weakref.ref(kept))
            return solution, kept

        monkeypatch.setattr(orbit, "solve_logged", tracking)
        report = BatchVerifier(fattree_network(4, policy="prefer_bottom"), executor="serial").run()
        assert report.orbit_counts() == (7, 7)
        gc.collect()
        # One concrete and one abstract representative solve, both gone.
        assert len(solved) == 2
        assert [ref for ref in solved if ref() is not None] == []
