"""Tests for the data-plane, property checkers and reachability verification."""

import pytest

from repro.abstraction import routable_equivalence_classes
from repro.analysis import (
    BatchVerifier,
    PropertySuite,
    VerificationReport,
    VerificationTimeout,
    check_all_paths_reach,
    check_black_hole,
    check_multipath_consistency,
    check_path_length,
    check_reachability,
    check_routing_loop,
    check_waypointing,
    compute_forwarding_table,
    path_lengths,
)
from repro.config import Prefix, parse_network

BLACKHOLE_NETWORK = """
device src
  bgp-neighbor mid import IMP
  route-map IMP 10 permit

device mid
  bgp-neighbor src export EXP
  bgp-neighbor dst import IMP
  route-map IMP 10 permit
  route-map EXP 10 permit
  acl BLOCK deny 10.0.1.0/24 default permit
  interface-acl dst BLOCK

device dst
  network 10.0.1.0/24
  bgp-neighbor mid export EXP
  route-map EXP 10 permit

link src mid
link mid dst
"""

LOOP_NETWORK = """
device a
  static-route 10.0.1.0/24 next-hop b

device b
  static-route 10.0.1.0/24 next-hop a

device dst
  network 10.0.1.0/24

link a b
link b dst
"""


class TestForwardingTable:
    def test_fattree_forwarding(self, small_fattree):
        ec = routable_equivalence_classes(small_fattree)[0]
        table = compute_forwarding_table(small_fattree, ec)
        origin = next(iter(ec.origins))
        assert table.delivers(origin)
        for node in small_fattree.graph.nodes:
            assert table.reachable(node)
        outcome, path = table.path_outcome("edge1_1")
        assert outcome == "delivered"
        assert path[-1] == origin

    def test_acl_blocks_data_plane_but_not_routes(self):
        network = parse_network(BLACKHOLE_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        # mid learned the route but its outbound ACL towards dst drops the
        # traffic: a black hole at mid (and hence for src).
        assert table.next_hops["mid"] == set()
        assert ("mid", "dst") in table.acl_blocked
        assert not table.reachable("src")

    def test_static_loop_detected(self):
        network = parse_network(LOOP_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        outcome, path = table.path_outcome("a")
        assert outcome == "loop"
        assert path.count("a") == 2

    def test_per_class_tables(self, small_fattree):
        classes = routable_equivalence_classes(small_fattree)[:2]
        tables = [compute_forwarding_table(small_fattree, ec) for ec in classes]
        assert [table.destination for table in tables] == [ec.prefix for ec in classes]
        assert len({table.destination for table in tables}) == 2
        assert all(table.reachable("core0") for table in tables)


class TestPropertyCheckers:
    @pytest.fixture
    def fattree_table(self, small_fattree):
        ec = routable_equivalence_classes(small_fattree)[0]
        return compute_forwarding_table(small_fattree, ec), ec

    def test_reachability(self, fattree_table):
        table, _ = fattree_table
        assert check_reachability(table, "core0").holds
        assert check_all_paths_reach(table, "edge1_0").holds

    def test_path_lengths(self, fattree_table):
        table, ec = fattree_table
        origin = next(iter(ec.origins))
        # Another edge switch in the same pod is exactly two hops away.
        same_pod = "edge0_1" if origin != "edge0_1" else "edge0_0"
        assert check_path_length(table, same_pod, 2).holds
        assert not check_path_length(table, same_pod, 5).holds
        assert path_lengths(table, same_pod) == {2}

    def test_waypointing_through_aggregation(self, fattree_table):
        table, _ = fattree_table
        aggs = [n for n in table.next_hops if str(n).startswith("agg")]
        cores_and_aggs = aggs + [n for n in table.next_hops if str(n).startswith("core")]
        assert check_waypointing(table, "edge1_0", cores_and_aggs).holds
        assert not check_waypointing(table, "edge1_0", ["edge3_1"]).holds

    def test_no_blackhole_or_loop_in_fattree(self, fattree_table):
        table, _ = fattree_table
        assert not check_black_hole(table, "edge1_0").holds
        assert not check_routing_loop(table).holds
        assert check_multipath_consistency(table, "edge1_0").holds

    def test_blackhole_detected(self):
        network = parse_network(BLACKHOLE_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        assert check_black_hole(table, "src").holds
        assert not check_reachability(table, "src").holds

    def test_loop_detected(self):
        network = parse_network(LOOP_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        assert check_routing_loop(table).holds

    def test_every_node_reaches(self, fattree_table):
        table, _ = fattree_table
        assert len(table.next_hops) == 20
        assert all(table.reachable(node) for node in table.next_hops)


class TestStructuredCounterexamples:
    """Failing checks name the offending node/cycle, not just a boolean."""

    def test_routing_loop_counterexample_carries_cycle(self):
        network = parse_network(LOOP_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        result = check_routing_loop(table)
        assert result.holds
        witness = result.counterexample
        assert witness is not None and witness.kind == "loop"
        assert witness.node in ("a", "b")
        # The cycle is closed (first == last) and is the a<->b two-cycle.
        assert witness.cycle[0] == witness.cycle[-1]
        assert set(witness.cycle) == {"a", "b"}
        assert witness.to_dict()["cycle"] == [str(n) for n in witness.cycle]

    def test_routing_loop_counterexample_respects_sources(self):
        network = parse_network(LOOP_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        result = check_routing_loop(table, sources=["b"])
        assert result.counterexample.node == "b"
        assert not check_routing_loop(table, sources=["dst"]).holds

    def test_multipath_counterexample_names_diverging_source(self, broken_acl_network):
        ec = next(
            ec
            for ec in routable_equivalence_classes(broken_acl_network)
            if ec.prefix == Prefix.parse("10.0.1.0/24")
        )
        table = compute_forwarding_table(broken_acl_network, ec)
        result = check_multipath_consistency(table, "x")
        assert not result.holds
        witness = result.counterexample
        assert witness.kind == "divergence"
        assert witness.node == "x"
        # The recorded path is the dropped one; the detail names both.
        assert witness.path[0] == "x"
        assert "delivers via" in witness.detail and "drops via" in witness.detail

    def test_consistent_source_has_no_counterexample(self, broken_acl_network):
        ec = next(
            ec
            for ec in routable_equivalence_classes(broken_acl_network)
            if ec.prefix == Prefix.parse("10.0.2.0/24")
        )
        table = compute_forwarding_table(broken_acl_network, ec)
        result = check_multipath_consistency(table, "x")
        assert result.holds
        assert result.counterexample is None

    def test_blackhole_counterexample_names_dropping_device(self):
        network = parse_network(BLACKHOLE_NETWORK)
        ec = routable_equivalence_classes(network)[0]
        table = compute_forwarding_table(network, ec)
        result = check_black_hole(table, "src")
        assert result.counterexample.kind == "blackhole"
        assert result.counterexample.node == "mid"
        unreachable = check_reachability(table, "src")
        assert unreachable.counterexample.kind == "blackhole"
        assert unreachable.counterexample.path == ("src", "mid")


def reachability(network, **kwargs):
    """A serial reachability-suite verifier: the all-pairs check of Fig. 12."""
    return BatchVerifier(
        network,
        suite=PropertySuite.from_names(["reachability"]),
        executor="serial",
        **kwargs,
    )


class TestVerifier:
    def test_concrete_and_abstract_agree_on_reachability(self, small_fattree):
        report = reachability(small_fattree).run()
        totals = report.property_totals()["reachability"]
        assert report.verdicts_agree() and not report.timed_out
        assert totals["concrete_failed"] == totals["abstract_failed"] == 0
        assert report.num_classes == len(report.records) == 8
        assert totals["checked"] == 8 * 20

    def test_verification_detects_blackhole_on_both(self):
        report = reachability(parse_network(BLACKHOLE_NETWORK)).run()
        totals = report.property_totals()["reachability"]
        assert report.verdicts_agree()
        assert totals["concrete_failed"] == totals["abstract_failed"] > 0
        failing = {
            node
            for record in report.records
            for verdict in record.verdicts
            for node in verdict.concrete_failing
        }
        assert {"src", "mid"} <= failing

    def test_timeout_reported(self, small_fattree):
        report = reachability(small_fattree, timeout_seconds=0.0).run(
            raise_on_timeout=False
        )
        assert report.timed_out
        assert all(record.timed_out and not record.verdicts for record in report.records)

    def test_timeout_raised_with_partial_result(self, small_fattree):
        with pytest.raises(VerificationTimeout) as excinfo:
            reachability(small_fattree, timeout_seconds=0.0).run()
        partial = excinfo.value.partial
        assert isinstance(partial, VerificationReport) and partial.timed_out
        assert partial.property_totals()["reachability"]["checked"] == 0

    def test_timed_out_report_has_no_speedup(self, small_fattree):
        """Marker records carry no seconds: a fully timed-out run reports
        no speedup and says so in its summary, rather than a ratio of 0."""
        report = reachability(small_fattree, timeout_seconds=0.0).run(
            raise_on_timeout=False
        )
        assert report.network_name == small_fattree.name
        assert report.concrete_seconds == report.abstract_seconds == 0
        assert report.speedup is None
        lines = report.summary_lines()
        assert not any("speedup" in line for line in lines)
        assert lines[-1] == "run TIMED OUT before checking every class"

    def test_single_query_with_and_without_abstraction(self, small_fattree):
        """§8's one-query form: ``limit=1`` checks the first class only."""
        first = routable_equivalence_classes(small_fattree)[0]
        report = reachability(small_fattree, limit=1).run()
        (record,) = report.records
        assert record.prefix == str(first.prefix)
        (verdict,) = record.verdicts
        assert "core0" not in verdict.concrete_failing
        assert "core0" not in verdict.abstract_failing

    def test_single_query_unreachable_source(self):
        report = reachability(parse_network(BLACKHOLE_NETWORK), limit=1).run()
        ((verdict,),) = [record.verdicts for record in report.records]
        assert "src" in verdict.concrete_failing
        assert "src" in verdict.abstract_failing
        assert not verdict.mismatched
