"""Derived equals rebuilt: each shortcut against the long way it stands for.

* a failure unit's soundness fallback *derives* its ``Bonsai`` from the
  class baseline (``Bonsai.derive``: filtered compilation, filtered policy
  keys, patched refinement inputs, the failed SRP handed in) -- against a
  from-scratch ``Bonsai(failed_network)``, the partition and the whole
  ``soundness`` wire dict must not move;
* a protocol's ``rank`` orders attributes exactly as its ``prefer`` does,
  and the solver's ranked scan gives the labeling *and* forwarding of the
  pairwise scan and of the full-sweep oracle;
* ``evaluate_route_map`` skips a route map whose first clause fixes the
  outcome -- against ``RouteMap.evaluate``, clause by clause.
"""

from __future__ import annotations

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.abstraction.bonsai import Bonsai
from repro.config.device import DeviceConfig
from repro.config.prefix import Prefix
from repro.config.routemap import (
    CommunityList,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.config.transfer import build_srp_from_network, evaluate_route_map
from repro.failures import FailureScenario, FailureSweep
from repro.failures.scenario import undirected_links
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.routing import (
    BgpAttribute,
    BgpProtocol,
    MultiProtocol,
    MultiProtocolConfig,
    OspfAttribute,
    OspfProtocol,
    RibAttribute,
    StaticAttribute,
    build_multiprotocol_srp,
)
from repro.srp.solver import ConvergenceError, solve, solve_sweep
from repro.topology import Graph

FAMILIES = sorted(TOPOLOGY_FAMILIES)


# ----------------------------------------------------------------------
# Derived fallback == from-scratch fallback
# ----------------------------------------------------------------------
def _scenarios(network):
    """1-link, 2-link and node failures spread over the topology."""
    links = undirected_links(network)
    nodes = sorted(str(node) for node in network.graph.nodes)
    picks = [links[0], links[len(links) // 2], links[-1]]
    return (
        [FailureScenario(links=frozenset({link})) for link in picks]
        + [FailureScenario(links=frozenset(pair)) for pair in (picks[:2], picks[1:])]
        + [FailureScenario(nodes=frozenset({node})) for node in (nodes[0], nodes[-1])]
    )


def _sweep(network, monkeypatch, scratch):
    """One failure sweep; returns ``(soundness dicts, fallback partitions)``.

    With ``scratch`` the fallback is the parent commit's: a fresh
    ``Bonsai`` of the failed network that is handed nothing."""
    partitions = []
    compress = Bonsai.compress

    def recorded(self, equivalence_class, build_network=True, srp=None):
        result = compress(self, equivalence_class, build_network, None if scratch else srp)
        if "@" in self.network.name:  # a failed view
            partition = result.refinement.partition
            partitions.append((
                self.network.name,
                str(equivalence_class.prefix),
                frozenset(partition.members(group) for group in partition.groups()),
                dict(result.abstraction.split_groups),
            ))
        return result

    monkeypatch.setattr(Bonsai, "compress", recorded)
    if scratch:
        monkeypatch.setattr(
            Bonsai,
            "derive",
            lambda self, network, removed, prefix: Bonsai(network, self.encoder),
        )
    report = FailureSweep(
        network, scenarios=_scenarios(network), executor="serial", limit=6
    ).run()
    assert report.ok()
    soundness = [
        (record.prefix, outcome.scenario, outcome.soundness)
        for record in report.records
        for outcome in record.scenarios
    ]
    return soundness, partitions


@pytest.mark.parametrize("family", FAMILIES)
def test_derived_fallback_equals_the_from_scratch_fallback(family, monkeypatch):
    network = build_topology(family)
    with monkeypatch.context() as patch:
        derived = _sweep(network, patch, scratch=False)
    with monkeypatch.context() as patch:
        scratch = _sweep(network, patch, scratch=True)
    assert derived[0] == scratch[0]
    assert derived[1] == scratch[1]
    assert any(s and s["recompressed"] for _, _, s in derived[0]), "no fallback exercised"
    kinds = {name.split("@")[1].split(":")[0] for name, _, _, _ in derived[1]}
    assert kinds == {"link", "node"}


def test_a_link_failure_compiles_and_specialises_nothing_anew(monkeypatch):
    """The work the derivation removes, as counts: one base compilation and
    one key specialisation per run, none per (class, scenario) unit."""
    from repro.abstraction import bonsai as bonsai_module
    from repro.bdd.policy import PolicyBddEncoder

    calls = {"compile": 0, "specialise": 0}
    compile_base = bonsai_module.compile_base_edges
    specialise = PolicyBddEncoder.specialized_policy_keys

    def counting_compile(network):
        calls["compile"] += 1
        return compile_base(network)

    def counting_specialise(self, *args, **kwargs):
        calls["specialise"] += 1
        return specialise(self, *args, **kwargs)

    monkeypatch.setattr(bonsai_module, "compile_base_edges", counting_compile)
    monkeypatch.setattr(PolicyBddEncoder, "specialized_policy_keys", counting_specialise)
    report = FailureSweep(build_topology("fattree", 4), k=1, executor="serial").run()
    counts = report.abstraction_counts()
    assert counts["recompressed"] > report.num_classes
    assert calls == {"compile": 1, "specialise": 1}


# ----------------------------------------------------------------------
# rank == prefer, ranked solve == pairwise solve == sweep
# ----------------------------------------------------------------------
_bgp = st.builds(
    BgpAttribute,
    local_pref=st.sampled_from([50, 100, 200]),
    communities=st.frozensets(st.sampled_from(["65001:1", "65001:2"])),
    as_path=st.lists(st.sampled_from(["a", "b", "c"]), max_size=3).map(tuple),
    ibgp_learned=st.booleans(),
)
_ospf = st.builds(OspfAttribute, cost=st.integers(0, 4), inter_area=st.booleans())


@st.composite
def _rib(draw):
    """Any entry a transfer function can build: ``chosen`` names a protocol
    whose attribute is present (iBGP included), or is left unset."""
    bgp = draw(st.none() | _bgp)
    ospf = draw(st.none() | _ospf)
    static = draw(st.none() | st.just(StaticAttribute()))
    available = [None]
    available += ["static"] if static is not None else []
    available += ["ebgp", "ibgp"] if bgp is not None else []
    available += ["ospf"] if ospf is not None else []
    return RibAttribute(bgp=bgp, ospf=ospf, static=static, chosen=draw(st.sampled_from(available)))


def _assert_rank_is_prefer(protocol, a, b):
    rank_a, rank_b = protocol.rank(a), protocol.rank(b)
    assert protocol.prefer(a, b) == (rank_a < rank_b), (a, b)
    assert protocol.prefer(b, a) == (rank_b < rank_a), (a, b)
    assert protocol.equally_preferred(a, b) == (rank_a == rank_b), (a, b)


@given(a=_rib(), b=_rib())
@settings(max_examples=400, deadline=None)
def test_rank_orders_rib_attributes_exactly_as_prefer(a, b):
    _assert_rank_is_prefer(MultiProtocol(), a, b)
    if a.bgp is not None and b.bgp is not None:
        _assert_rank_is_prefer(BgpProtocol(), a.bgp, b.bgp)
    if a.ospf is not None and b.ospf is not None:
        _assert_rank_is_prefer(OspfProtocol(), a.ospf, b.ospf)


def test_rank_pins_the_decision_steps():
    rank = MultiProtocol().rank
    ebgp = RibAttribute(bgp=BgpAttribute(as_path=("a",)), chosen="ebgp")
    ibgp_tie = RibAttribute(bgp=BgpAttribute(as_path=("a",), ibgp_learned=True), chosen="ebgp")
    static = RibAttribute(static=StaticAttribute(), chosen="static")
    ospf = RibAttribute(ospf=OspfAttribute(cost=1), chosen="ospf")
    unset = RibAttribute(bgp=BgpAttribute(as_path=("a",)), ospf=OspfAttribute(cost=9))
    assert rank(static) < rank(ebgp) < rank(ibgp_tie) < rank(ospf) < rank(RibAttribute())
    assert rank(unset) == rank(ebgp)  # chosen=None: best_protocol() decides


def _multiprotocol_gadget():
    graph = Graph()
    for u, v in (("a", "b1"), ("a", "b2"), ("b1", "d"), ("b2", "d"), ("b1", "b2")):
        graph.add_undirected_edge(u, v)
    config = MultiProtocolConfig(
        bgp_edges=set(graph.edges) - {("a", "b2"), ("b2", "a")},
        ospf_edges=set(graph.edges),
        static_edges={("a", "b2")},
        ospf_costs={("b1", "d"): 5, ("d", "b1"): 5},
    )
    return build_multiprotocol_srp(graph, "d", config)


def _network_srps():
    for family in ("wan", "fattree"):
        network = build_topology(family)
        for equivalence_class in Bonsai(network).equivalence_classes()[:3]:
            yield build_srp_from_network(
                network, equivalence_class.prefix, set(equivalence_class.origins)
            )


def _assert_ranked_pairwise_and_sweep_agree(srp):
    assert getattr(srp.prefer, "__self__", None) is not None  # takes the ranked scan
    pairwise_srp = dataclasses.replace(srp, prefer=lambda a, b: srp.prefer(a, b))
    try:
        oracle = solve_sweep(srp)
    except ConvergenceError:
        for unconverged in (srp, pairwise_srp):
            with pytest.raises(ConvergenceError):
                solve(unconverged)
        return
    for solution in (solve(srp), solve(pairwise_srp)):
        assert solution.labeling == oracle.labeling
        assert solution.forwarding == oracle.forwarding


def test_ranked_solve_equals_sweep_on_the_gadgets(figure1_srp, figure2_srp):
    for srp in (figure1_srp, figure2_srp, _multiprotocol_gadget(), *_network_srps()):
        _assert_ranked_pairwise_and_sweep_agree(srp)


# ----------------------------------------------------------------------
# Constant-clause shortcut == RouteMap.evaluate
# ----------------------------------------------------------------------
DESTINATION = Prefix.parse("10.0.1.0/24")
DEVICE = DeviceConfig(
    name="r",
    asn="65000",
    community_lists={"tagged": CommunityList("tagged", ("65001:1",))},
    prefix_lists={
        "here": PrefixList("here", (PrefixListEntry(Prefix.parse("10.0.0.0/16"), le=24),)),
        "elsewhere": PrefixList("elsewhere", (PrefixListEntry(Prefix.parse("10.9.0.0/16"), le=24),)),
    },
)
_clause = st.builds(
    RouteMapClause,
    sequence=st.integers(1, 50),
    action=st.sampled_from(["permit", "deny"]),
    match_community_lists=st.sampled_from([(), ("tagged",)]),
    match_prefix_lists=st.sampled_from([(), (), ("here",), ("elsewhere",)]),
    set_local_pref=st.sampled_from([None, None, 150]),
    set_communities=st.sampled_from([(), (), ("65001:2",)]),
    delete_communities=st.sampled_from([(), (), ("65001:1",)]),
    prepend_as=st.sampled_from([0, 0, 2]),
)
_route_map = st.builds(RouteMap, name=st.just("M"), clauses=st.lists(_clause, max_size=3).map(tuple))


@given(route_map=_route_map, attribute=_bgp)
@settings(max_examples=400, deadline=None)
def test_constant_clause_shortcut_equals_evaluate(route_map, attribute):
    expected = route_map.evaluate(
        attribute, DESTINATION, DEVICE.community_lists, DEVICE.prefix_lists, DEVICE.asn
    )
    assert evaluate_route_map(route_map, DEVICE, attribute, DESTINATION) == expected
    first = route_map.clauses[0] if route_map.clauses else None
    unconditional = first is not None and not (
        first.match_community_lists or first.match_prefix_lists
    )
    rewrites = first is not None and first.action == "permit" and first.apply_actions(
        BgpAttribute(local_pref=7, communities=frozenset({"65001:1"})), "x"
    ) != BgpAttribute(local_pref=7, communities=frozenset({"65001:1"}))
    if unconditional and not rewrites:
        # Deny-all / pass-unchanged: answered without evaluation.
        assert route_map.constant == first.action
        assert expected is (None if first.action == "deny" else attribute)
    else:
        assert route_map.constant is None
    assert evaluate_route_map(None, DEVICE, attribute, DESTINATION) is attribute
