"""Tests for the practical extensions (§6) and robustness of the algorithm.

Covers iBGP compressibility, export-policy-only differences (which must
still force a split to preserve transfer-equivalence), role counting
options, and compression of the policy-rich fat-tree through the full
config pipeline.
"""


from repro.abstraction import Bonsai, check_transfer_equivalence, compute_abstraction
from repro.abstraction.equivalence import build_abstract_srp, check_cp_equivalence
from repro.config import Prefix, parse_network
from repro.config.transfer import build_srp_from_network
from repro.netgen import fattree_network
from repro.routing import SetLocalPref, build_bgp_srp
from repro.srp import solve
from repro.topology import Graph


def _compress_class(bonsai, prefix):
    """Compress the network's equivalence class for ``prefix``."""
    (ec,) = [ec for ec in bonsai.equivalence_classes() if str(ec.prefix) == prefix]
    return bonsai.compress(ec)


IBGP_NETWORK = """
# Two core routers in one AS (iBGP between them), each with an eBGP customer.
device core1
  asn 65000
  bgp-neighbor core2 import IN export OUT session ibgp
  bgp-neighbor cust1 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

device core2
  asn 65000
  bgp-neighbor core1 import IN export OUT session ibgp
  bgp-neighbor cust2 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

device cust1
  network 10.0.1.0/24
  bgp-neighbor core1 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

device cust2
  bgp-neighbor core2 import IN export OUT
  route-map IN 10 permit
  route-map OUT 10 permit

link core1 core2
link core1 cust1
link core2 cust2
"""

EXPORT_DIFFERENCE = """
# Two middle routers whose *import* behaviour is identical but whose export
# policies towards the top router differ; they must not share an abstract
# node for the destination below.
device top
  bgp-neighbor mid1 import IN
  bgp-neighbor mid2 import IN
  route-map IN 10 permit

device mid1
  bgp-neighbor top export PLAIN
  bgp-neighbor bottom import IN
  route-map PLAIN 10 permit
  route-map IN 10 permit

device mid2
  bgp-neighbor top export PREPEND
  bgp-neighbor bottom import IN
  route-map PREPEND 10 permit
    set as-path-prepend 3
  route-map IN 10 permit

device bottom
  network 10.0.1.0/24
  bgp-neighbor mid1 export OUT
  bgp-neighbor mid2 export OUT
  route-map OUT 10 permit

link top mid1
link top mid2
link mid1 bottom
link mid2 bottom
"""


class TestIbgp:
    def test_ibgp_session_does_not_prepend_or_loop_check(self):
        network = parse_network(IBGP_NETWORK)
        srp = build_srp_from_network(network, Prefix.parse("10.0.1.0/24"))
        solution = solve(srp)
        # core1 learns from cust1 with one AS hop; core2 learns over iBGP
        # with the same AS-path length (no prepend on the iBGP hop).
        assert solution.labeling["core1"].bgp.as_path == ("cust1",)
        assert solution.labeling["core2"].bgp.as_path == ("cust1",)
        assert solution.labeling["cust2"].bgp is not None

    def test_ibgp_network_is_compressible(self):
        network = parse_network(IBGP_NETWORK)
        bonsai = Bonsai(network)
        result = _compress_class(bonsai, "10.0.1.0/24")
        # Nothing forces the two cores apart except topology distance from
        # the destination, so compression can do no worse than the
        # concrete network.
        assert result.abstract_nodes <= network.graph.num_nodes()


class TestExportPolicyDifferences:
    def test_export_only_difference_forces_split(self):
        network = parse_network(EXPORT_DIFFERENCE)
        bonsai = Bonsai(network)
        result = _compress_class(bonsai, "10.0.1.0/24")
        assert result.abstraction.f("mid1") != result.abstraction.f("mid2")
        report = check_transfer_equivalence(
            result.concrete_srp,
            result.abstraction,
            policy_keys=bonsai.policy_keys(Prefix.parse("10.0.1.0/24")),
        )
        assert report.holds

    def test_export_only_difference_in_protocol_srp(self):
        """Same property at the SRP level, with direct BGP policies."""
        graph = Graph()
        for mid in ("m1", "m2"):
            graph.add_undirected_edge("top", mid)
            graph.add_undirected_edge(mid, "d")
        exports = {("top", "m2"): SetLocalPref(50)}
        srp = build_bgp_srp(graph, "d", export_policies=exports)
        result = compute_abstraction(srp)
        assert result.abstraction.f("m1") != result.abstraction.f("m2")


class TestRoleCounting:
    def test_generic_roles_see_unused_tags_only_when_requested(self, small_datacenter):
        bonsai = Bonsai(small_datacenter)
        raw = bonsai.unique_roles(None, include_unused_communities=True)
        ignored = bonsai.unique_roles(None)
        assert raw > ignored
        assert bonsai.unique_roles(None, ignore_static_routes=True) <= ignored


class TestPolicyRichFattreeEndToEnd:
    def test_prefer_bottom_compression_is_cp_equivalent(self, small_fattree_prefer_bottom):
        bonsai = Bonsai(small_fattree_prefer_bottom)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=False)
        report = check_cp_equivalence(
            result.concrete_srp,
            result.abstraction,
            abstract_srp=build_abstract_srp(result.concrete_srp, result.abstraction),
        )
        assert report.cp_equivalent, report.violations

    def test_prefer_bottom_abstract_network_converges(self, small_fattree_prefer_bottom):
        bonsai = Bonsai(small_fattree_prefer_bottom)
        ec = bonsai.equivalence_classes()[0]
        result = bonsai.compress(ec, build_network=False)
        solution = solve(build_abstract_srp(result.concrete_srp, result.abstraction))
        assert solution.is_stable()


class TestLargerPaperScaleSmoke:
    """Cheap smoke checks that the paper-scale generators stay consistent."""

    def test_fattree_k12_first_class(self):
        network = fattree_network(12)
        bonsai = Bonsai(network)
        result = bonsai.compress(bonsai.equivalence_classes()[0])
        assert result.abstract_nodes == 6
        assert result.abstract_edges == 5

    def test_fattree_prefer_bottom_k6_is_larger_but_bounded(self):
        network = fattree_network(6, policy="prefer_bottom")
        bonsai = Bonsai(network)
        result = bonsai.compress(bonsai.equivalence_classes()[0])
        assert 6 < result.abstract_nodes < network.graph.num_nodes()
