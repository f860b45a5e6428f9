"""Property-based tests (hypothesis) on core data structures and invariants."""

from hypothesis import assume, given, settings, strategies as st

from repro.abstraction import UnionSplitFind, compute_abstraction, check_effective, check_cp_equivalence
from repro.analysis import BatchVerifier, VerificationReport
from repro.bdd import BddManager
from repro.config import Prefix, PrefixTrie
from repro.config.routemap import RouteMap, RouteMapClause
from repro.netgen import uniform_bgp_network
from repro.pipeline import EncodedNetwork
from repro.routing import BgpAttribute, BgpProtocol, RipAttribute, RipProtocol, build_rip_srp
from repro.srp import solve
from repro.topology import Graph

from refinement_reference import split_by_key

# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
prefixes = st.builds(
    Prefix,
    address=st.integers(min_value=0, max_value=2**32 - 1),
    length=st.integers(min_value=0, max_value=32),
)

booleans3 = st.tuples(st.booleans(), st.booleans(), st.booleans())


def random_connected_graph(draw, max_extra_edges=10):
    """A connected undirected graph on 3..9 nodes, built from a random tree
    plus extra edges."""
    n = draw(st.integers(min_value=3, max_value=9))
    nodes = [f"n{i}" for i in range(n)]
    g = Graph()
    for node in nodes:
        g.add_node(node)
    for i in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=i - 1))
        g.add_undirected_edge(nodes[i], nodes[parent])
    extra = draw(st.integers(min_value=0, max_value=max_extra_edges))
    for _ in range(extra):
        a = draw(st.integers(min_value=0, max_value=n - 1))
        b = draw(st.integers(min_value=0, max_value=n - 1))
        if a != b:
            g.add_undirected_edge(nodes[a], nodes[b])
    return g, nodes


connected_graphs = st.composite(random_connected_graph)()


# ----------------------------------------------------------------------
# Prefixes and the trie
# ----------------------------------------------------------------------
@given(prefixes)
def test_prefix_contains_itself_and_roundtrips(prefix):
    assert prefix.contains(prefix)
    assert Prefix.parse(str(prefix)) == prefix


@given(prefixes, prefixes)
def test_prefix_containment_is_antisymmetric_up_to_equality(a, b):
    if a.contains(b) and b.contains(a):
        assert a == b
    if a.contains(b):
        assert a.length <= b.length
        assert a.overlaps(b)


@given(st.lists(st.tuples(prefixes, st.sampled_from(["", "a", "b"])), min_size=1, max_size=20))
def test_trie_classes_take_the_origins_of_the_longest_originating_container(entries):
    trie = PrefixTrie()
    for prefix, origin in entries:
        trie.insert(prefix, [origin] if origin else [])
    classes = trie.equivalence_classes()
    assert [prefix for prefix, _ in classes] == trie.marked_prefixes()
    assert len(classes) == len({prefix for prefix, _ in entries})
    for prefix, origins in classes:
        containers = [q for q, origin in entries if origin and q.contains(prefix)]
        longest = max(containers, key=lambda q: q.length, default=None)
        assert origins == {origin for q, origin in entries if origin and q == longest}


# ----------------------------------------------------------------------
# BDD engine
# ----------------------------------------------------------------------
@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=8))
def test_bdd_semantics_match_python_evaluation(rows):
    """Build a function as a disjunction of minterms and compare BDD
    evaluation with direct evaluation on all 8 assignments."""
    manager = BddManager(num_vars=3)

    def minterm(bits):
        literals = [manager.var(i) if bit else manager.nvar(i) for i, bit in enumerate(bits)]
        return manager.conjoin(literals)

    f = manager.disjoin(minterm(bits) for bits in rows)
    truth = set(rows)
    for a in (False, True):
        for b in (False, True):
            for c in (False, True):
                expected = (a, b, c) in truth
                assert manager.evaluate(f, {0: a, 1: b, 2: c}) == expected


@given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=8),
       st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=8))
def test_bdd_canonicity(rows_a, rows_b):
    """Two functions have the same node id iff they have the same truth table."""
    manager = BddManager(num_vars=3)

    def build(rows):
        def minterm(bits):
            literals = [manager.var(i) if bit else manager.nvar(i) for i, bit in enumerate(bits)]
            return manager.conjoin(literals)
        return manager.disjoin(minterm(bits) for bits in rows)

    fa, fb = build(rows_a), build(rows_b)
    assert (fa == fb) == (set(rows_a) == set(rows_b))


# ----------------------------------------------------------------------
# Protocol comparison relations
# ----------------------------------------------------------------------
@given(st.integers(0, 15), st.integers(0, 15), st.integers(0, 15))
def test_rip_preference_is_strict_partial_order(a, b, c):
    rip = RipProtocol()
    x, y, z = RipAttribute(a), RipAttribute(b), RipAttribute(c)
    assert not rip.prefer(x, x)
    if rip.prefer(x, y):
        assert not rip.prefer(y, x)
    if rip.prefer(x, y) and rip.prefer(y, z):
        assert rip.prefer(x, z)


@given(
    st.tuples(st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 4)),
    st.tuples(st.integers(0, 3), st.integers(0, 4)),
)
def test_bgp_preference_is_strict_partial_order(a, b, c):
    bgp = BgpProtocol()

    def attr(spec):
        lp, length = spec
        return BgpAttribute(local_pref=100 + lp, as_path=tuple(f"x{i}" for i in range(length)))

    x, y, z = attr(a), attr(b), attr(c)
    assert not bgp.prefer(x, x)
    if bgp.prefer(x, y):
        assert not bgp.prefer(y, x)
    if bgp.prefer(x, y) and bgp.prefer(y, z):
        assert bgp.prefer(x, z)


# ----------------------------------------------------------------------
# Partition structure
# ----------------------------------------------------------------------
@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_union_split_find_is_a_partition(keys):
    nodes = [f"n{i}" for i in range(len(keys))]
    partition = UnionSplitFind(nodes)
    split_by_key(partition, partition.find(nodes[0]), dict(zip(nodes, keys)))
    groups = partition.partitions()
    # Every node is in exactly one group.
    assert sorted(node for group in groups for node in group) == sorted(nodes)
    # Nodes in the same group have the same key, and groups are maximal.
    key_of = dict(zip(nodes, keys))
    for group in groups:
        assert len({key_of[node] for node in group}) == 1
    assert len(groups) == len(set(keys))


# ----------------------------------------------------------------------
# SRP + compression invariants on random topologies
# ----------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(connected_graphs)
def test_rip_solutions_are_stable_dags(graph_and_nodes):
    graph, nodes = graph_and_nodes
    srp = build_rip_srp(graph, nodes[0])
    solution = solve(srp)
    assert solution.is_stable()
    # Every node is labelled with its BFS distance from the destination.
    distances = {nodes[0]: 0}
    frontier = [nodes[0]]
    while frontier:
        reached = []
        for u in frontier:
            for v in graph.successors(u):
                if v not in distances:
                    distances[v] = distances[u] + 1
                    reached.append(v)
        frontier = reached
    # Every forwarding edge moves one hop closer, so forwarding is acyclic.
    for node, edges in solution.forwarding.items():
        for _, hop in edges:
            assert distances[hop] == distances[node] - 1
    for node in nodes:
        expected = distances.get(node)
        label = solution.labeling[node]
        if expected is None or expected > 15:
            assert label is None
        else:
            assert label == RipAttribute(expected)


@settings(max_examples=25, deadline=None)
@given(connected_graphs)
def test_compression_is_effective_and_cp_equivalent_on_random_rip(graph_and_nodes):
    graph, nodes = graph_and_nodes
    srp = build_rip_srp(graph, nodes[0])
    result = compute_abstraction(srp)
    assert result.num_abstract_nodes <= graph.num_nodes()
    assert check_effective(srp, result.abstraction).is_effective
    assert check_cp_equivalence(srp, result.abstraction, strict_labels=True).cp_equivalent


# ----------------------------------------------------------------------
# Batch differential verification on random configured networks
# ----------------------------------------------------------------------
_DENY_IN = RouteMap(name="DENY-IN", clauses=(RouteMapClause(sequence=10, action="deny"),))
_PREF_IN = RouteMap(
    name="PREF-IN", clauses=(RouteMapClause(sequence=10, action="permit", set_local_pref=200),)
)


@st.composite
def perturbed_bgp_networks(draw):
    """A random connected eBGP network with random route-map perturbations.

    One device originates a /24; up to three (device, neighbour) import
    policies are replaced with a deny-all or a local-pref bump, so the
    generated networks exercise black holes, asymmetric paths and BGP case
    splitting -- not just the symmetric happy path.
    """
    graph, nodes = random_connected_graph(draw, max_extra_edges=6)
    network = uniform_bgp_network(graph, name="hypothesis", originators=[nodes[0]])
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        device = network.devices[nodes[draw(st.integers(0, len(nodes) - 1))]]
        neighbours = sorted(device.bgp_neighbors)
        if not neighbours:
            continue
        peer = neighbours[draw(st.integers(0, len(neighbours) - 1))]
        route_map = _DENY_IN if draw(st.booleans()) else _PREF_IN
        device.route_maps[route_map.name] = route_map
        device.bgp_neighbors[peer].import_policy = route_map.name
    # Random local-pref bumps can assemble a dispute-wheel gadget whose
    # synchronous solve oscillates forever; ConvergenceError is the
    # solver's documented answer there, not an executor-parity bug, so
    # reject oscillators rather than feed them to the parity tests.
    from repro.abstraction.ec import routable_equivalence_classes
    from repro.config.transfer import build_srp_from_network
    from repro.srp.solver import ConvergenceError

    try:
        for ec in routable_equivalence_classes(network):
            solve(build_srp_from_network(network, ec.prefix, set(ec.origins)))
    except ConvergenceError:
        assume(False)
    return network


@settings(max_examples=5, deadline=None)
@given(perturbed_bgp_networks())
def test_batch_verifier_process_pool_bit_identical(network):
    """The process pool (private BDD managers per worker) returns the same
    canonical VerificationReport as the serial fallback, and the
    differential soundness oracle holds on every random network."""
    artifact = EncodedNetwork.build(network)
    serial = BatchVerifier(artifact=artifact, executor="serial").run()
    process = BatchVerifier(artifact=artifact, executor="process", workers=2).run()
    assert serial.verdicts_agree()
    assert serial.canonical_records() == process.canonical_records()
    assert VerificationReport.from_json(process.to_json()).canonical_records() == (
        serial.canonical_records()
    )
