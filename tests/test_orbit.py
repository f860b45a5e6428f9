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
from test_golden_reports import VERIFY_CASES, scrub
from test_property_based import random_connected_graph

from repro import fattree_network
from repro.abstraction import orbit
from repro.abstraction.bonsai import Bonsai
from repro.analysis.batch import BatchVerifier
from repro.config.prefix import Prefix
from repro.config.transfer import build_srp_from_network
from repro.netgen import uniform_bgp_network
from repro.netgen.families import build_topology
from repro.obs import metrics
from repro.srp.solver import _attribute_sort_key, solve
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
    def test_ring_reflections_solve_themselves(self):
        """On a 6-ring the classes one rotation away map; name order pairs
        the two reflected ones wrongly, and the check refuses them."""
        report, counts = _verify(build_topology("ring", 6))
        assert counts == {
            "verify.orbit.solved.representative": 1,
            "verify.orbit.solved.not-isomorphic": 2,
            "verify.orbit.mapped.concrete": 3,
            "verify.orbit.mapped.abstract": 3,
        }
        assert sum(not record.orbit_mapped for record in report.records) == 3

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
