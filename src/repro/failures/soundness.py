"""Abstraction soundness under failures (§ the paper's key limitation).

Bonsai's CP-equivalence theorem is proved for the failure-free control
plane.  Under a failure scenario the baseline ⟨topology, policy⟩
abstraction remains faithful only when the *abstract network can express
the scenario at all*: failing a concrete element must correspond to
failing a whole abstract element.

* a failed concrete **link** ``{u, v}`` is representable iff *every*
  concrete link mapping onto the abstract link ``{f(u), f(v)}`` also
  fails -- if a sibling survives, the abstract edge must stay up and the
  abstract network silently keeps connectivity the concrete one lost
  (the paper's "a concrete edge fails but its abstract edge survives");
  a link *inside* one abstraction group has no abstract image and is
  never representable;
* a failed concrete **node** is representable iff its whole abstraction
  group fails.

When every failed element is representable, deleting exactly the image
elements from the class's abstract SRP removes whole preimage classes, so
the ∀∃-refinement conditions of the surviving topology are untouched and
the baseline abstraction is still an effective abstraction of the failed
network -- that is the structural fact behind the per-scenario
``sound_under_failure`` flag.  When it is not, the failure is checked
against a *re-compression of the failed network* instead -- refinement
from the trivial partition, on inputs derived from the class baseline
rather than rebuilt (:meth:`~repro.abstraction.bonsai.Bonsai.derive`).

That decision is all this module owns; the check itself, ending either
way in a differential lifted-vs-concrete verdict comparison, is the one
both perturbation kinds share
(:func:`~repro.pipeline.perturb.check_abstraction`).
"""

from __future__ import annotations

from functools import partial
from typing import Dict, FrozenSet, List, Optional, Tuple

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import EquivalenceClass
from repro.abstraction.mapping import NetworkAbstraction
from repro.analysis.properties import PropertySpec, VerdictMap
from repro.config.network import Network
from repro.config.transfer import VIRTUAL_DESTINATION, restrict_srp
from repro.failures.scenario import FailureScenario, canonical_link
from repro.pipeline.perturb import AbstractionCheck, AbstractSide, check_abstraction
from repro.srp.instance import SRP


# ----------------------------------------------------------------------
# Structural representability
# ----------------------------------------------------------------------
def abstract_scenario_for(
    abstraction: NetworkAbstraction,
    network: Network,
    scenario: FailureScenario,
) -> Tuple[Optional[FailureScenario], str]:
    """Map a concrete scenario through ``f``, or say why that is impossible.

    Returns ``(abstract scenario, "")`` when every failed element's whole
    preimage fails, and ``(None, reason)`` otherwise.
    """
    node_map = abstraction.node_map
    # The effective set of failed undirected links: explicit link failures
    # plus every link incident to a failed node.
    failed_links = set(scenario.links)
    for node in scenario.nodes:
        if network.graph.has_node(node):
            for neighbour in network.graph.successors(node):
                failed_links.add(canonical_link(node, neighbour))
            for neighbour in network.graph.predecessors(node):
                failed_links.add(canonical_link(neighbour, node))

    failed_groups: set = set()
    for node in scenario.nodes:
        base = node_map.get(node)
        if base is None:
            return None, f"failed node {node!r} is outside the abstraction"
        members = abstraction.concrete_nodes(base) - {VIRTUAL_DESTINATION}
        missing = members - scenario.nodes
        if missing:
            return (
                None,
                f"node {node!r} fails but its abstraction group "
                f"{base!r} survives via {sorted(map(str, missing))}",
            )
        failed_groups.add(base)

    abstract_links: set = set()
    preimages = abstraction.edge_preimages(network.graph)
    for u, v in sorted(scenario.links):
        fu = node_map.get(u)
        fv = node_map.get(v)
        if fu is None or fv is None:
            return None, f"failed link {u}|{v} is outside the abstraction"
        if fu == fv:
            return (
                None,
                f"link {u}|{v} is internal to abstraction group {fu!r} "
                "and has no abstract image",
            )
        # Every sibling link mapping onto the same abstract edge must fail.
        siblings = preimages.get(frozenset({fu, fv}), frozenset())
        surviving_siblings = siblings - failed_links
        if surviving_siblings:
            x, y = min(surviving_siblings)
            return (
                None,
                f"link {u}|{v} fails but its abstract edge "
                f"{fu}|{fv} survives via sibling {x}|{y}",
            )
        if fu in failed_groups or fv in failed_groups:
            continue  # covered by the abstract node failure
        for cu in abstraction.copies_of(fu):
            for cv in abstraction.copies_of(fv):
                abstract_links.add(canonical_link(cu, cv))

    abstract_nodes: set = set()
    for base in failed_groups:
        abstract_nodes.update(abstraction.copies_of(base))

    return (
        FailureScenario(
            links=frozenset(abstract_links),
            nodes=frozenset(abstract_nodes),
            name=f"f({scenario.name})",
        ),
        "",
    )


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def check_scenario_soundness(
    bonsai: Bonsai,
    abstraction: NetworkAbstraction,
    abstract_srp: SRP,
    scenario: FailureScenario,
    failed_network: Network,
    failed_ec: EquivalenceClass,
    concrete_verdicts: VerdictMap,
    specs: List[PropertySpec],
    waypoints: FrozenSet[str],
    path_bound: int,
    failed_srp: Optional[SRP] = None,
) -> Tuple[AbstractionCheck, Dict[str, object]]:
    """Judge whether the class's baseline ``abstraction`` survives one
    scenario; returns the check and the failure kind's own wire keys.

    ``abstract_srp`` is the class's abstract SRP
    (:func:`~repro.abstraction.equivalence.build_abstract_srp`), built
    once; a representable scenario's abstract image is filtered out of it
    (:func:`~repro.config.transfer.restrict_srp`).
    ``concrete_verdicts`` are the per-node property verdicts already
    computed on the failed *concrete* network (by the sweep's incremental
    re-solve).  ``failed_srp`` is the failed network's concrete SRP for
    the class, when the caller has built it (a re-compression then does
    not).
    """
    mapped, reason = abstract_scenario_for(abstraction, bonsai.network, scenario)

    def reuse() -> AbstractSide:
        view = mapped.apply(abstract_srp.transfer.network)
        srp = partial(restrict_srp, abstract_srp, view)
        return AbstractSide(abstraction, view.graph.num_nodes(), srp)

    def recompress():
        removed = scenario.directed_edges(bonsai.network.graph)
        fallback = bonsai.derive(failed_network, removed, failed_ec.prefix)
        return fallback.compress(failed_ec, build_network=False, srp=failed_srp)

    nodes = sorted(str(n) for n in failed_network.graph.nodes)
    check = check_abstraction(
        reason, reuse, recompress, concrete_verdicts, specs, nodes, waypoints, path_bound
    )
    return check, {"abstract_scenario": None if mapped is None else mapped.to_dict()}
