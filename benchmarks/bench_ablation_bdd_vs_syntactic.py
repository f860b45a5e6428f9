"""Ablation: BDD policy keys versus syntactic (structural) policy keys.

Bonsai's design encodes per-interface policy as BDDs so that semantically
identical but syntactically different configurations compare equal (§5.1).
The ablation compares the full BDD pipeline against a purely syntactic
canonicalisation of specialized route maps on two workloads:

* the regular fat-tree, where both give the same abstraction (the
  configurations are syntactically uniform), and
* a network whose devices express the same policy in different ways, where
  only the BDD keys recover the smaller abstraction.

Syntactic keys are no product mode: the syntactic arm below feeds them to
abstraction refinement through the public functions.  The tier-1 suite
loads this module by path, so it imports nothing from ``conftest``.
"""


from repro import Bonsai, fattree_network
from repro.abstraction.bonsai import CompressionResult
from repro.abstraction.refinement import compute_abstraction
from repro.config import parse_network
from repro.config.transfer import syntactic_policy_keys

FIGURE = "Ablation: BDD vs syntactic policy keys"

#: Two transit leaves (leaf2, leaf3) whose export policies are semantically
#: identical but written differently -- leaf3 splits the unconditional
#: "set local-preference 200" into a redundant community-guarded clause plus
#: a catch-all -- and one genuinely different leaf (odd, lp 300).  leaf1
#: originates the destination.
DIVERSE = """
device hub
  community-list dept 65001:1
  bgp-neighbor leaf1 import IN
  bgp-neighbor leaf2 import IN
  bgp-neighbor leaf3 import IN
  bgp-neighbor odd import IN
  route-map IN 10 permit

device leaf1
  network 10.0.1.0/24
  bgp-neighbor hub export OUT
  route-map OUT 10 permit

device leaf2
  bgp-neighbor hub export OUT
  route-map OUT 10 permit
    set local-preference 200

device leaf3
  community-list dept 65001:1
  bgp-neighbor hub export OUT
  route-map OUT 10 permit
    match community dept
    set local-preference 200
  route-map OUT 20 permit
    set local-preference 200

device odd
  bgp-neighbor hub export OUT
  route-map OUT 10 permit
    set local-preference 300

link hub leaf1
link hub leaf2
link hub leaf3
link hub odd
"""


def syntactic_compress(bonsai, equivalence_class) -> CompressionResult:
    """Compress one class on specialized syntactic policy keys instead of
    the BDD keys :meth:`Bonsai.compress` refines on."""
    network, prefix = bonsai.network, equivalence_class.prefix
    srp = bonsai.concrete_srp(equivalence_class)
    keys = syntactic_policy_keys(
        network, prefix, bonsai.compile_for(prefix), network.unused_communities()
    )
    keys.update({edge: srp.policy_key(edge) for edge in srp.transfer.virtual_edges})
    refinement = compute_abstraction(srp, policy_keys=keys)
    return CompressionResult(equivalence_class, srp, refinement, None, 0.0)


def compress_first(network):
    """The first class compressed on BDD keys, then on syntactic keys."""
    bonsai = Bonsai(network)
    ec = bonsai.equivalence_classes()[0]
    return bonsai.compress(ec, build_network=False), syntactic_compress(Bonsai(network), ec)


def test_ablation_uniform_fattree(benchmark, report_row):
    network = fattree_network(6)
    with_bdds, without = benchmark.pedantic(
        compress_first, args=(network,), rounds=1, iterations=1
    )
    report_row(
        FIGURE,
        f"fattree-45 (uniform configs): BDD keys -> {with_bdds.abstract_nodes} nodes, "
        f"syntactic keys -> {without.abstract_nodes} nodes (identical, as expected)",
    )
    assert with_bdds.abstract_nodes == without.abstract_nodes == 6


def test_ablation_semantically_equal_but_syntactically_different(benchmark, report_row):
    network = parse_network(DIVERSE, name="diverse")
    with_bdds, without = benchmark.pedantic(
        compress_first, args=(network,), rounds=1, iterations=1
    )
    report_row(
        FIGURE,
        f"diverse campus: BDD keys -> {with_bdds.abstract_nodes} nodes, "
        f"syntactic keys -> {without.abstract_nodes} nodes "
        f"(BDD canonicalisation merges the equivalent leaves)",
    )
    benchmark.extra_info.update(
        {"bdd_nodes": with_bdds.abstract_nodes, "syntactic_nodes": without.abstract_nodes}
    )
    # The semantic keys recognise leaf1/leaf2/leaf3 as interchangeable;
    # the syntactic keys cannot, so they produce a strictly larger network.
    assert with_bdds.abstract_nodes < without.abstract_nodes
