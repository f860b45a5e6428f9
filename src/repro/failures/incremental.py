"""Incremental re-solve of an SRP under a failure scenario.

Re-simulating a failed network from scratch repeats almost all of the
baseline's work: a single downed link typically perturbs routing in a
small cone upstream of the failure.  This module seeds the worklist
solver (:func:`repro.srp.solver.solve_seeded`) from the baseline
labeling and only dirties what the failure can actually touch:

1. **Taint** -- nodes whose baseline forwarding could traverse a failed
   element.  Their labels may describe routes that no longer exist, so
   they are reset to "no route" before solving; keeping them would invite
   count-to-infinity style convergence to stale routes (the classic
   distance-vector pathology).  Taint is the reverse closure of the failed
   edges/nodes under the baseline forwarding relation.
2. **Dirty** -- the initial worklist: tainted nodes, nodes that lost an
   out-edge (their offer sets shrank), and nodes with an edge into a
   tainted node (their offers were computed from a now-reset label).

Everything else keeps its baseline label and is only re-examined if a
neighbour's label changes -- the worklist takes care of propagation.  The
baseline's per-(edge, label) transfer memo is carried over, so building
the seeded offer tables costs dictionary hits instead of route-map
evaluations; that is where the measured speedup over a scratch solve
comes from.

The seeded solver re-verifies stability of *every* node before returning
and raises :class:`~repro.srp.solver.ConvergenceError` otherwise, so a
bad seed can never silently produce a wrong answer;
:func:`incremental_resolve` additionally falls back to a scratch solve on
any convergence failure (recorded on the result).  The sweep driver keeps
the scratch solver as an *oracle* and checks label-for-label equality on
every scenario.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import FrozenSet, Optional, Set

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import ConvergenceError, TransferCache, solve, solve_seeded
from repro.topology.graph import Edge, Node


@dataclass
class IncrementalSolve:
    """The outcome of one seeded re-solve (failure or change)."""

    solution: Solution
    #: False when the seeded solve failed (``ConvergenceError``) and the
    #: result came from the scratch fallback instead.
    incremental_used: bool
    #: Nodes whose baseline labels were reset before solving.
    tainted: FrozenSet[Node]
    #: Size of the initial worklist handed to the seeded solver.
    dirty_count: int
    seconds: float


@dataclass
class BaselineIndex:
    """The baseline-solution views every scenario's taint query needs.

    The solution's forwarding relation plus its reverse; a sweep
    re-solving hundreds of scenarios against one baseline builds this
    index once and answers each taint query with set lookups only.  It
    is read-only once built, so concurrent queries may share it.
    """

    #: ``node -> its baseline forwarding edges`` (the solution's own dict).
    forwarding: dict
    #: ``node -> upstream nodes whose forwarding points at it``.
    forwarding_preds: dict

    @classmethod
    def from_solution(cls, baseline: Solution) -> "BaselineIndex":
        preds: dict = {}
        for node, edges in baseline.forwarding.items():
            for _, neighbour in edges:
                preds.setdefault(neighbour, []).append(node)
        return cls(forwarding=baseline.forwarding, forwarding_preds=preds)


def tainted_nodes(
    baseline: Solution,
    removed_edges: FrozenSet[Edge],
    removed_nodes: FrozenSet[Node] = frozenset(),
    index: Optional[BaselineIndex] = None,
) -> Set[Node]:
    """Nodes whose baseline forwarding could traverse a failed element.

    Computed as a reverse BFS over the baseline forwarding relation: a
    node is tainted if one of its forwarding edges is removed, points at a
    removed node, or points at a tainted node.  Conservative (a multipath
    node keeps only *some* of its equally-good paths through the failure)
    but safe: every label that could depend on a failed element is reset.
    """
    if index is None:
        index = BaselineIndex.from_solution(baseline)
    seeds: Set[Node] = set()
    for node, edges in index.forwarding.items():
        if node in removed_nodes:
            continue
        for edge in edges:
            if edge in removed_edges or edge[1] in removed_nodes:
                seeds.add(node)
                break
    tainted = set(seeds)
    frontier = list(seeds)
    preds = index.forwarding_preds
    while frontier:
        current = frontier.pop()
        for upstream in preds.get(current, ()):
            if upstream not in tainted and upstream not in removed_nodes:
                tainted.add(upstream)
                frontier.append(upstream)
    tainted.discard(baseline.srp.destination)
    return tainted


def seeded_resolve(
    srp: SRP,
    baseline: Solution,
    *,
    perturbed_edges: FrozenSet[Edge],
    removed_nodes: FrozenSet[Node],
    added_edges: FrozenSet[Edge] = frozenset(),
    added_nodes: FrozenSet[Node] = frozenset(),
    transfer_cache: Optional[TransferCache] = None,
    index: Optional[BaselineIndex] = None,
    solver: str,
) -> IncrementalSolve:
    """Solve ``srp`` seeded from ``baseline``: the one re-solve body behind
    :func:`incremental_resolve` (failures) and
    :func:`repro.delta.incremental.delta_resolve` (changes).

    ``perturbed_edges`` are the directed edges whose baseline-derived
    labels cannot be trusted (removed, or compiled transfer changed);
    every surviving endpoint of a perturbed or added edge is re-examined,
    and added devices start without a label.  ``solver`` labels the
    ``fallback.scratch`` event.  ``transfer_cache`` is used as given: a
    caller whose perturbation invalidates memo entries evicts them first
    (:func:`repro.delta.incremental.seed_transfer_cache`); failure sweeps
    share one memo across independent scenarios and must not.
    """
    start = time.perf_counter()
    if transfer_cache is None:
        transfer_cache = TransferCache().seeded_from(baseline.transfer_cache)

    tainted = tainted_nodes(baseline, perturbed_edges, removed_nodes, index=index)
    graph = srp.graph
    seed_labeling = {
        node: (
            None
            if node in tainted or str(node) in added_nodes
            else baseline.labeling.get(node)
        )
        for node in graph.nodes
    }

    dirty: Set[Node] = set(tainted)
    # A removed or changed out-edge perturbs the node's offer set even off
    # the forwarding paths (the lost/altered offer may have been the
    # tie-broken runner-up); an added edge grows it.  Re-examine every
    # surviving endpoint.
    for u, v in perturbed_edges | added_edges:
        if graph.has_node(u):
            dirty.add(u)
        if graph.has_node(v):
            dirty.add(v)
    # Offers into a tainted (reset) node were computed from its old label.
    for node in tainted:
        if graph.has_node(node):
            for upstream, _ in graph.in_edges(node):
                dirty.add(upstream)
    # Neighbours of removed nodes lost an offer each.
    for node in removed_nodes:
        if baseline.srp.graph.has_node(node):
            for upstream in baseline.srp.graph.predecessors(node):
                if graph.has_node(upstream):
                    dirty.add(upstream)
    for node in added_nodes:
        if graph.has_node(node):
            dirty.add(node)
            for upstream, _ in graph.in_edges(node):
                dirty.add(upstream)

    try:
        solution = solve_seeded(
            srp, seed_labeling, sorted(dirty, key=str), transfer_cache=transfer_cache
        )
        used = True
    except ConvergenceError:
        # Defensive: a seed the worklist cannot repair (or a genuinely
        # oscillating perturbed network).  Fall back to the scratch solver
        # so the caller still gets an answer -- or the scratch solver's
        # own ConvergenceError, which is then a property of the network,
        # not of the seeding.
        _metrics.counter("incremental.scratch_fallbacks").inc()
        _events.emit("fallback.scratch", solver=solver, dirty=len(dirty))
        solution = solve(srp, transfer_cache=transfer_cache)
        used = False
    return IncrementalSolve(
        solution=solution,
        incremental_used=used,
        tainted=frozenset(tainted),
        dirty_count=len(dirty),
        seconds=time.perf_counter() - start,
    )


def incremental_resolve(
    failed_srp: SRP,
    baseline: Solution,
    removed_edges: FrozenSet[Edge],
    removed_nodes: FrozenSet[Node] = frozenset(),
    transfer_cache: Optional[TransferCache] = None,
    index: Optional[BaselineIndex] = None,
) -> IncrementalSolve:
    """Solve ``failed_srp`` seeded from the baseline solution.

    ``failed_srp`` must share its node universe with the baseline SRP
    minus ``removed_nodes`` (the scenario appliers in
    :mod:`repro.failures` guarantee this, including the virtual
    destination when the origin set is unchanged).  ``removed_edges`` are
    the *directed* edges deleted by the scenario.

    The baseline's transfer memo is copied into a fresh
    :class:`TransferCache` unless one is supplied (supplying one lets a
    sweep share a single bounded memo across thousands of scenarios);
    likewise an ``index`` built once via
    :meth:`BaselineIndex.from_solution` saves re-walking the baseline
    forwarding relation per scenario.
    """
    return seeded_resolve(
        failed_srp,
        baseline,
        perturbed_edges=removed_edges,
        removed_nodes=removed_nodes,
        transfer_cache=transfer_cache,
        index=index,
        solver="failures",
    )
