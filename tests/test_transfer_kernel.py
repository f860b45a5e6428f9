"""The BGP transfer split at the session boundary, against the long way.

``NetworkTransfer`` memoises a sender half -- export map, then the iBGP
mark or the sender's AS-path prepend -- per (sender, export map, iBGP
flag, label) and shares it across receivers; the AS loop check and the
import map stay per edge, and each answer comes from one ``RibAttribute``
per route.  These tests hold it to a memo-free reference transfer on
generated one-sender sessions (in any call order, also under a memo bound
of two), check that equal answers are one object and that a memoised
sender half never lets a looping receiver through, and that the solver
over it still equals the full-sweep oracle.
"""

from __future__ import annotations

import dataclasses
import pickle

from hypothesis import given, settings, strategies as st

from repro.abstraction.bonsai import Bonsai
from repro.config.device import (
    BgpNeighborConfig,
    DeviceConfig,
    OspfLinkConfig,
    StaticRouteConfig,
)
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import (
    CommunityList,
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.config.transfer import NetworkTransfer, build_srp_from_network, compile_edges
from repro.netgen import fattree_network
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.routing import BgpAttribute, OspfAttribute, RibAttribute, StaticAttribute
from repro.srp.solver import solve, solve_sweep
from repro.store import BaselineArtifact
from repro.topology import Graph

DESTINATION = Prefix.parse("10.0.1.0/24")
#: A small ASN alphabet, so generated AS paths often hold a receiver's ASN.
ASNS = ("65001", "65002", "65003")
COMMUNITY_LISTS = {"tagged": CommunityList("tagged", ("65001:1",))}
PREFIX_LISTS = {
    "here": PrefixList("here", (PrefixListEntry(Prefix.parse("10.0.0.0/16"), le=24),)),
    "elsewhere": PrefixList("elsewhere", (PrefixListEntry(Prefix.parse("10.9.0.0/16"), ge=24),)),
}

_clause = st.builds(
    RouteMapClause,
    sequence=st.integers(1, 50),
    action=st.sampled_from(["permit", "deny"]),
    match_community_lists=st.sampled_from([(), ("tagged",)]),
    match_prefix_lists=st.sampled_from([(), (), ("here",), ("elsewhere",)]),
    set_local_pref=st.sampled_from([None, None, 150]),
    set_communities=st.sampled_from([(), (), ("65001:2",)]),
    delete_communities=st.sampled_from([(), (), ("65001:1",)]),
    prepend_as=st.sampled_from([0, 0, 1]),
)
_route_map = st.none() | st.builds(
    RouteMap, name=st.just("M"), clauses=st.lists(_clause, max_size=3).map(tuple)
)
_bgp = st.builds(
    BgpAttribute,
    local_pref=st.sampled_from([100, 200]),
    communities=st.frozensets(st.sampled_from(["65001:1", "65001:2"])),
    as_path=st.lists(st.sampled_from(ASNS), max_size=2).map(tuple),
    ibgp_learned=st.booleans(),
)


@st.composite
def _label(draw):
    bgp = draw(st.none() | _bgp)
    ospf = draw(st.none() | st.builds(OspfAttribute, cost=st.integers(0, 5)))
    if bgp is None and ospf is None:
        return None
    return RibAttribute(bgp=bgp, ospf=ospf, chosen="ebgp" if bgp is not None else "ospf")


def _device(name, asn):
    return DeviceConfig(
        name=name, asn=asn, community_lists=dict(COMMUNITY_LISTS), prefix_lists=dict(PREFIX_LISTS)
    )


@st.composite
def _session(draw):
    """One sender ``s`` and 1-4 receivers: eBGP/iBGP sessions, export maps
    (some shared between sessions), import maps, OSPF links, static routes."""
    exports = draw(st.lists(st.none() | _route_map, min_size=1, max_size=2))
    sender = _device("s", draw(st.sampled_from(ASNS + (None,))))
    devices, graph = {"s": sender}, Graph()
    for i in range(draw(st.integers(1, 4))):
        name = f"r{i}"
        receiver = devices[name] = _device(name, draw(st.sampled_from(ASNS)))
        graph.add_undirected_edge(name, "s")
        ibgp = draw(st.sampled_from([False, False, True]))
        export = draw(st.sampled_from(range(len(exports))))
        export_name = None
        if exports[export] is not None:
            export_name = f"OUT{export}"
            sender.route_maps[export_name] = exports[export]
        import_map = draw(_route_map)
        if import_map is not None:
            receiver.route_maps["IN"] = import_map
        sender.bgp_neighbors[name] = BgpNeighborConfig(name, export_policy=export_name, ibgp=ibgp)
        receiver.bgp_neighbors["s"] = BgpNeighborConfig(
            "s", import_policy="IN" if import_map is not None else None, ibgp=ibgp
        )
        cost = draw(st.none() | st.integers(1, 5))
        if cost is not None:
            receiver.ospf_links["s"] = OspfLinkConfig("s", cost=cost)
            sender.ospf_links[name] = OspfLinkConfig(name, cost=cost)
        if draw(st.booleans()):
            receiver.static_routes.append(StaticRouteConfig(DESTINATION, next_hop="s"))
    network = Network(graph=graph, devices=devices)
    labels = draw(st.lists(_label(), min_size=1, max_size=4))
    # Equal labels that are distinct objects must answer alike too.
    labels += [pickle.loads(pickle.dumps(label)) for label in labels]
    calls = [(edge, label) for edge in sorted(graph.edges) for label in labels]
    return network, draw(st.permutations(calls + calls))


def _transfer(network):
    return NetworkTransfer(
        network=network,
        destination=DESTINATION,
        compiled=compile_edges(network, DESTINATION),
        virtual_edges=frozenset(),
    )


def _reference(network, edge, label):
    """The transfer the long way: no memo, every step per call."""
    info = compile_edges(network, DESTINATION)[edge]
    receiver, sender = (network.devices[node] for node in edge)
    bgp = ospf = None
    static = StaticAttribute() if info.has_static else None
    if label is not None and info.has_ospf and label.ospf is not None:
        ospf = OspfAttribute(
            label.ospf.cost + info.ospf_cost, label.ospf.inter_area, label.ospf.area
        )
    if label is not None and info.has_bgp and label.bgp is not None:
        out = label.bgp
        if info.export_map is not None:
            out = info.export_map.evaluate(
                out, DESTINATION, sender.community_lists, sender.prefix_lists,
                sender.asn or sender.name,
            )
        if out is not None and info.ibgp:
            out = BgpAttribute(out.local_pref, out.communities, out.as_path, True)
        elif out is not None:
            if (receiver.asn or receiver.name) in out.as_path:
                out = None
            else:
                out = BgpAttribute(
                    out.local_pref, out.communities, (sender.asn or sender.name,) + out.as_path
                )
        if out is not None and info.import_map is not None:
            out = info.import_map.evaluate(
                out, DESTINATION, receiver.community_lists, receiver.prefix_lists,
                receiver.asn or receiver.name,
            )
        bgp = out
    if bgp is None and ospf is None and static is None:
        return None
    chosen = "static" if static is not None else "ebgp" if bgp is not None else "ospf"
    return RibAttribute(bgp=bgp, ospf=ospf, static=static, chosen=chosen)


@given(case=_session(), limit=st.sampled_from([None, 2]))
@settings(max_examples=300, deadline=None)
def test_a_warmed_transfer_answers_like_a_fresh_one(case, limit):
    network, calls = case
    warmed = _transfer(network)
    if limit is not None:
        warmed.EVAL_CACHE_LIMIT = limit
    for edge, label in calls:
        expected = _reference(network, edge, label)
        assert warmed(edge, label) == expected
        assert _transfer(network)(edge, label) == expected
    if limit is not None:
        assert warmed.eval_cache_info()["size"] <= limit


@given(case=_session())
@settings(max_examples=150, deadline=None)
def test_equal_answers_are_one_object(case):
    network, calls = case
    transfer = _transfer(network)
    first = {}
    for edge, label in calls:
        answer = transfer(edge, label)
        if answer is not None:
            assert first.setdefault(answer, answer) is answer


def test_a_looping_receiver_is_refused_after_the_sender_half_is_shared():
    sender, clean, looping = _device("s", "65001"), _device("a", "65002"), _device("b", "65003")
    graph = Graph()
    for name, device in (("a", clean), ("b", looping)):
        graph.add_undirected_edge(name, "s")
        sender.bgp_neighbors[name] = BgpNeighborConfig(name)
        device.bgp_neighbors["s"] = BgpNeighborConfig("s")
    network = Network(graph=graph, devices={"s": sender, "a": clean, "b": looping})
    label = RibAttribute(bgp=BgpAttribute(as_path=("65003",)), chosen="ebgp")
    transfer = _transfer(network)
    accepted = transfer(("a", "s"), label)
    assert accepted.bgp.as_path == ("65001", "65003")
    assert transfer.eval_cache_info()["sender"] == {"hits": 0, "misses": 1}
    assert transfer(("b", "s"), label) is None
    assert transfer.eval_cache_info()["sender"] == {"hits": 1, "misses": 1}


def _srps():
    networks = [build_topology(family) for family in sorted(TOPOLOGY_FAMILIES)]
    for network in networks + [fattree_network(4, policy="prefer_bottom")]:
        for equivalence_class in Bonsai(network).equivalence_classes()[:3]:
            yield build_srp_from_network(
                network, equivalence_class.prefix, set(equivalence_class.origins)
            )


def test_solve_equals_the_sweep_oracle():
    for srp in _srps():
        oracle, solution = solve_sweep(srp), solve(srp)
        assert solution.labeling == oracle.labeling
        assert solution.forwarding == oracle.forwarding


def test_sender_halves_are_shared_on_the_fattree():
    """Every label leaves a switch towards at least two receivers, so
    fewer than half of the transfer calls evaluate a sender half."""
    network = fattree_network(4)
    for equivalence_class in Bonsai(network).equivalence_classes()[:3]:
        srp = build_srp_from_network(network, equivalence_class.prefix, set(equivalence_class.origins))
        calls = solve(srp).transfer_cache.misses
        assert 0 < 2 * srp.transfer.eval_cache_info()["sender"]["misses"] < calls


def test_a_pickled_transfer_carries_no_memo():
    network = build_topology("wan", 2)
    equivalence_class = Bonsai(network).equivalence_classes()[0]
    srp = build_srp_from_network(network, equivalence_class.prefix, set(equivalence_class.origins))
    solve(srp)
    assert srp.transfer.eval_cache_info()["size"] > 0
    revived = pickle.loads(pickle.dumps(srp.transfer))
    assert not {"_eval_cache", "_sender_hits", "_sender_misses"} & set(vars(revived))
    assert revived.eval_cache_info()["size"] == 0
    assert solve(dataclasses.replace(srp, transfer=revived)).labeling == solve(srp).labeling


def test_the_stored_fattree_artifact_does_not_grow():
    artifact = BaselineArtifact.build(build_topology("fattree", 6))
    assert len(pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)) == 410_992
