"""One abstract builder: the abstract SRP :func:`build_abstract_srp`
derives straight from the partition, against the configured round trip
it replaced -- emit the abstract network
(``Bonsai.build_abstract_network``), compile it
(``build_srp_from_network``), read its forwarding table off the solve.
The config path stays as Bonsai's output and is this file's oracle.
"""

from __future__ import annotations

import random

import pytest

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.equivalence import (
    build_abstract_srp,
    check_bgp_solution_equivalence,
    check_cp_equivalence,
    check_solution_equivalence,
)
from repro.analysis.batch import BatchVerifier, PropertySuite, abstract_arm
from repro.config.acl import Acl
from repro.config.transfer import VIRTUAL_DESTINATION, build_srp_from_network, restrict_srp
from repro.delta.sweep import DeltaSweep
from repro.failures import FailureScenario, FailureSweep
from repro.failures.scenario import undirected_links
from repro.failures.soundness import abstract_scenario_for
from repro.netgen import fattree_network
from repro.netgen.changes import anycast_origin_change, tighten_export_change
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.srp.solver import solve

SPECS = PropertySuite.default().specs()


def _round_trip(bonsai, abstraction, equivalence_class, scenario=None):
    """The oracle: the emitted abstract network (less ``scenario``),
    compiled for the class at the abstract nodes its origins map to."""
    network = bonsai.build_abstract_network(abstraction, equivalence_class)
    if scenario is not None:
        network = scenario.apply(network)
    origins = {
        copy
        for origin in equivalence_class.origins
        for copy in abstraction.copies_of(abstraction.f(origin))
        if network.graph.has_node(copy)
    }
    return build_srp_from_network(
        network, equivalence_class.prefix, origins, include_syntactic_keys=False
    )


def _observed(abstraction, srp, equivalence_class, concrete_nodes):
    """Labels by node name, next hops, ACL drops and lifted verdicts."""
    context, lifted = abstract_arm(
        abstraction, srp, SPECS, concrete_nodes,
        frozenset(str(origin) for origin in equivalence_class.origins),
        len(concrete_nodes),
    )
    table = context.table
    return (
        {str(node): repr(label) for node, label in solve(srp).labeling.items()},
        {str(node): sorted(map(str, hops)) for node, hops in table.next_hops.items()},
        sorted(table.acl_blocked),
        lifted,
    )


def _class_twins(network):
    """``(abstraction, direct SRP, oracle SRP, class, concrete nodes)``
    for every class of ``network``."""
    bonsai = Bonsai(network)
    nodes = sorted(str(node) for node in network.graph.nodes)
    for equivalence_class in bonsai.equivalence_classes():
        result = bonsai.compress(equivalence_class, build_network=False)
        abstraction = result.abstraction
        yield (
            abstraction,
            build_abstract_srp(result.concrete_srp, abstraction),
            _round_trip(bonsai, abstraction, equivalence_class),
            equivalence_class,
            nodes,
        )


def _failure_twin():
    """A representable link failure: the class's abstract SRP filtered
    against the emitted network with the mapped scenario applied."""
    network = build_topology("wan")
    bonsai = Bonsai(network)
    for equivalence_class in bonsai.equivalence_classes():
        result = bonsai.compress(equivalence_class, build_network=False)
        abstraction = result.abstraction
        for link in undirected_links(network):
            scenario = FailureScenario(links=frozenset({link}))
            mapped, _ = abstract_scenario_for(abstraction, network, scenario)
            if mapped is None or mapped.is_empty():
                continue
            direct = build_abstract_srp(result.concrete_srp, abstraction)
            direct = restrict_srp(direct, mapped.apply(direct.transfer.network))
            oracle = _round_trip(bonsai, abstraction, equivalence_class, mapped)
            nodes = sorted(str(node) for node in scenario.apply(network).graph.nodes)
            return abstraction, direct, oracle, equivalence_class, nodes
    raise AssertionError("no representable link failure on the WAN")


def _acl_network():
    """A fat-tree whose aggregation switches drop all traffic to the
    cores: data-plane ACLs the abstract tables must apply too."""
    network = fattree_network(4)
    for name, device in network.devices.items():
        if name.startswith("agg"):
            device.acls["NO-UP"] = Acl(name="NO-UP")
            for peer in network.graph.successors(name):
                if peer.startswith("core"):
                    device.interface_acls[peer] = "NO-UP"
    return network


def _anycast_network(family):
    """``family``'s network with its first origin's prefix anycast from a
    second device: a class under the virtual destination."""
    network = build_topology(family)
    return anycast_origin_change(network, random.Random(0)).apply(network)


def _delta_twins():
    """Every class of a network a tightened export map re-compresses."""
    network = build_topology("fattree")
    changed = tighten_export_change(network, random.Random(0)).apply(network)
    return list(_class_twins(changed))


CASES = {
    **{family: lambda family=family: list(_class_twins(build_topology(family)))
       for family in sorted(TOPOLOGY_FAMILIES)},
    "prefer_bottom": lambda: list(_class_twins(fattree_network(4, policy="prefer_bottom"))),
    "acl": lambda: list(_class_twins(_acl_network())),
    # Two origins in one abstract group (fattree) and in two (wan).
    "anycast": lambda: [
        *_class_twins(_anycast_network("fattree")), *_class_twins(_anycast_network("wan"))
    ],
    "failure-mapped": lambda: [_failure_twin()],
    "delta-recompressed": _delta_twins,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_the_direct_abstract_srp_answers_as_the_emitted_configs_do(case):
    twins = CASES[case]()
    assert twins
    for abstraction, direct, oracle, equivalence_class, nodes in twins:
        assert _observed(abstraction, direct, equivalence_class, nodes) == _observed(
            abstraction, oracle, equivalence_class, nodes
        ), (case, str(equivalence_class.prefix))


@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_an_anycast_class_is_cp_equivalent(family):
    """The concrete SRP hangs two origins under the virtual destination;
    the abstract SRP does only where two abstract nodes originate.  The
    theorem's check relates delivery, not that node's name."""
    bonsai = Bonsai(_anycast_network(family))
    anycast = [ec for ec in bonsai.equivalence_classes() if len(ec.origins) > 1]
    assert anycast
    for equivalence_class in anycast:
        result = bonsai.compress(equivalence_class, build_network=False)
        report = check_cp_equivalence(result.concrete_srp, result.abstraction)
        assert report.cp_equivalent, (str(equivalence_class.prefix), report.violations[:2])


def test_the_checkers_never_emit_an_abstract_network(monkeypatch):
    """Serial verify, failure and delta sweeps solve the partition's
    abstract SRP; the configured abstract network is output only."""
    calls = []
    emit = Bonsai.build_abstract_network
    monkeypatch.setattr(
        Bonsai,
        "build_abstract_network",
        lambda self, *args: calls.append(args) or emit(self, *args),
    )
    network = build_topology("wan")
    script = [tighten_export_change(network, random.Random(0))]
    assert BatchVerifier(network, executor="serial").run().ok()
    assert FailureSweep(network, executor="serial").run().ok()
    assert DeltaSweep(network, script=script, executor="serial").run().ok()
    assert calls == []



def _tampered_report(family, tamper):
    """Solve an anycast class of ``family`` on both sides, rewrite the
    forwarding with ``tamper(concrete, abstract, abstraction, origin)``
    and check the two solutions again."""
    bonsai = Bonsai(_anycast_network(family))
    equivalence_class = next(ec for ec in bonsai.equivalence_classes() if len(ec.origins) > 1)
    result = bonsai.compress(equivalence_class, build_network=False)
    abstraction = result.abstraction
    concrete = solve(result.concrete_srp)
    abstract = solve(build_abstract_srp(result.concrete_srp, abstraction))
    check = (
        check_bgp_solution_equivalence if abstraction.split_groups else check_solution_equivalence
    )
    assert check(concrete, abstract, abstraction).cp_equivalent
    tamper(concrete, abstract, abstraction, sorted(equivalence_class.origins, key=str)[0])
    return check(concrete, abstract, abstraction)


def _forward(solution, node, hops):
    solution.forwarding = {**solution.forwarding, node: tuple((node, hop) for hop in hops)}


def _neighbour(solution, node):
    return min(
        (v for v in solution.srp.graph.successors(node) if v != VIRTUAL_DESTINATION), key=str
    )


def _stop_delivering(concrete, abstract, abstraction, origin):
    """The concrete origin keeps its other next hops but delivers no more."""
    hops = [v for _, v in concrete.forwarding.get(origin, ()) if v != VIRTUAL_DESTINATION]
    _forward(concrete, origin, hops)


def _transit_delivers(concrete, abstract, abstraction, origin):
    """A neighbour forwarding to the origin also delivers itself."""
    transit = _neighbour(concrete, origin)
    _forward(concrete, transit, [VIRTUAL_DESTINATION, origin])


def _abstract_delivers_and_forwards(concrete, abstract, abstraction, origin):
    """The origin's abstract group delivers and forwards to a neighbouring
    group; its concrete members only forward there."""
    group = abstraction.f(origin)
    neighbour_group = abstraction.f(_neighbour(concrete, origin))
    _forward(abstract, group, [VIRTUAL_DESTINATION, neighbour_group])
    for member in abstraction.concrete_nodes(group):
        targets = abstraction.concrete_nodes(neighbour_group)
        _forward(concrete, member, [min(set(concrete.srp.graph.successors(member)) & targets)])


@pytest.mark.parametrize(
    "family, tamper",
    [
        ("fattree", _stop_delivering),
        ("fattree", _transit_delivers),
        ("wan", _stop_delivering),
        ("wan", _transit_delivers),
        # wan: the origins form two groups under an abstract virtual
        # destination, so the abstract group's own delivery can differ.
        ("wan", _abstract_delivers_and_forwards),
    ],
)
def test_delivering_on_one_side_only_is_not_fwd_equivalent(family, tamper):
    """Delivery stays in the forwarding relation: a hop into the virtual
    destination relates to the abstract SRP's delivery (a hop into its
    own virtual destination, or being its destination), never to nothing."""
    report = _tampered_report(family, tamper)
    assert not report.fwd_equivalent, report.violations
