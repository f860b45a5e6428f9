"""SRP solvers: compute stable solutions by simulating the control plane.

The paper never needs to *solve* SRPs to compute abstractions -- that is
the whole point -- but this repository uses a solver in three places:

1. to validate that abstractions really are CP-equivalent (tests),
2. as the Batfish-style control-plane simulation substrate on which the
   downstream analyses (reachability, verification benchmarks) run, and
3. to explore the multiple solutions BGP gadgets can exhibit.

Three solvers are provided:

* :func:`solve` -- the production solver: a dependency-tracked *worklist*
  computation that is round-for-round equivalent to the synchronous sweep
  (identical labeling after every round, hence an identical fixed point
  and identical convergence behaviour) but only recomputes nodes whose
  out-neighbours' labels changed in the previous round.  On a network of
  diameter ``d`` the sweep costs ``O(d x |E|)`` transfer evaluations; the
  worklist touches each edge only while its frontier passes, which is the
  difference between seconds and minutes on long-diameter topologies.
* :func:`solve_sweep` -- the original synchronous fixed-point (full
  round-robin) computation with deterministic tie-breaking.  This matches
  how Batfish simulates the control plane; it is kept as the *reference
  oracle* the equivalence tests and the hot-path benchmark compare
  :func:`solve` against.
* :func:`solve_with_activation_order` -- an asynchronous simulation that
  processes one node at a time following a caller-supplied (or seeded
  pseudo-random) activation sequence; different orders can surface the
  different stable solutions of policy-rich BGP networks (e.g. Figure 2).

No solver can return an unconverged labeling silently: exhausting the
round (or activation) budget raises :class:`ConvergenceError`.  A
returned :class:`~repro.srp.solution.Solution` is stable by construction
(a round that changes nothing is exactly the fixed-point condition);
``solve_sweep`` and ``solve_with_activation_order`` additionally re-check
stability through the live transfer functions, which the equivalence
tests use to cross-validate the worklist solver.
"""

from __future__ import annotations

import itertools
import operator
import random
from typing import Any, List, Optional, Sequence

from repro.obs import metrics as _metrics
from repro.srp.instance import SRP
from repro.srp.solution import Labeling, Solution
from repro.topology.graph import Node

Attribute = Any


class ConvergenceError(Exception):
    """Raised when the simulation does not reach a fixed point."""


class TransferCache(dict):
    """A bounded ``(edge, neighbour_label) -> attribute`` memo with counters.

    Plain ``dict`` reads/writes keep the solver hot path unchanged; the
    solver consults :attr:`LIMIT` before inserting and clears the cache
    wholesale on overflow.  ``hits``/``misses``/``overflows`` are absorbed
    into the registry's ``srp.transfer_cache.*`` counters per solve.
    """

    #: Bound on the memo.  A single solve can never grow it past
    #: O(edges x labels seen), but failure sweeps carry one cache across
    #: thousands of scenario re-solves, so it is cleared wholesale on
    #: overflow (the ``BddManager.ite`` precedent: correctness is
    #: unaffected, only hit rates).
    LIMIT = 1_000_000

    def __init__(self):
        super().__init__()
        self.hits = 0
        self.misses = 0
        self.overflows = 0

    def seeded_from(self, other: Optional[dict]) -> "TransferCache":
        """Copy another solve's memo entries in (counters start fresh)."""
        if other:
            self.update(other)
            if len(self) >= self.LIMIT:
                self.clear()
        return self


#: What a memo ``.get`` returns for an absent key (``None`` is an answer).
_MISSING = object()


def _attribute_sort_key(attr: Attribute) -> str:
    """A deterministic (but semantically meaningless) tie-breaking key."""
    return repr(attr)


def _best_choice(srp: SRP, node: Node, labeling: Labeling) -> Optional[Attribute]:
    """The minimal offered attribute at ``node`` under ``labeling``.

    Ties under ``≺`` are broken deterministically by the textual
    representation of the attribute so that repeated runs converge to the
    same solution.
    """
    offers = [attr for _, attr in srp.choices(node, labeling)]
    if not offers:
        return None
    best = offers[0]
    for attr in offers[1:]:
        if srp.prefer(attr, best):
            best = attr
        elif srp.equally_preferred(attr, best) and _attribute_sort_key(attr) < _attribute_sort_key(best):
            best = attr
    return best


def solve(
    srp: SRP,
    max_rounds: int = 1000,
    transfer_cache: Optional["TransferCache"] = None,
    tie_log: Optional[list] = None,
) -> Solution:
    """Compute a stable solution by dependency-tracked worklist iteration.

    Round-for-round equivalent to :func:`solve_sweep` -- after every round
    the labeling is identical to what a full synchronous sweep would have
    produced -- because a node's best choice depends only on the labels of
    its out-neighbours: a node none of whose out-neighbours changed in the
    previous round would recompute the same label, so the worklist skips
    it.  The first round examines every node, but calls the transfer on a
    ``None`` label only over the edges it names as able to offer a route
    from no route (static routes), see :func:`_worklist_run`.

    ``tie_log``, when a list, receives one ``(node, chosen, tied)`` entry
    per best-choice decision, in every round, whose minimum-rank offers
    were *distinct* attributes: ``tied`` holds them (``chosen`` among
    them), and the ``repr`` tie-break picked ``chosen``.  These are the
    only decisions a renaming of the nodes can change
    (:mod:`repro.abstraction.orbit`).

    Raises
    ------
    ConvergenceError
        If no fixed point is reached within ``max_rounds`` rounds (e.g. a
        BGP dispute gadget that oscillates under synchronous updates).  An
        unconverged labeling is never returned silently.
    """
    _metrics.counter("srp.scratch_solves").inc()
    labeling: Labeling = {node: None for node in srp.graph.nodes}
    labeling[srp.destination] = srp.initial
    dirty = [node for node in srp.graph.nodes if node != srp.destination]
    return _worklist(
        srp,
        labeling,
        dirty,
        _as_transfer_cache(transfer_cache),
        max_rounds,
        # Round 1 marks every node dirty, so the no-update round *is* the
        # stability proof (see the in-loop comment); no final re-check.
        verify_stability=False,
        tie_log=tie_log,
    )


def solve_seeded(
    srp: SRP,
    labeling: Labeling,
    dirty,
    transfer_cache: Optional["TransferCache"] = None,
    max_rounds: int = 1000,
) -> Solution:
    """Worklist solve seeded from a prior labeling (incremental re-solve).

    ``labeling`` must cover every node of ``srp.graph`` (``None`` for "no
    route") and hold the destination's initial attribute; ``dirty`` names
    the nodes whose offers may differ from what ``labeling`` was computed
    under -- under a link failure: nodes incident to failed edges, nodes
    whose baseline route traversed one (reset to ``None`` by the caller,
    see :mod:`repro.failures.incremental`), and their dependents.  Nodes
    outside ``dirty`` are only re-examined if a neighbour's label changes.

    A ``transfer_cache`` seeded from the baseline solve makes the initial
    offer-table construction almost entirely memo hits, which is where the
    incremental speedup comes from.

    Unlike :func:`solve`, the initial worklist does not cover every node,
    so the no-update round is *not* a stability proof on its own; a final
    offer-table scan re-verifies stability of every node and raises
    :class:`ConvergenceError` on any violation (an incorrectly seeded
    labeling is never returned silently -- callers treat that as "fall
    back to a scratch solve").
    """
    _metrics.counter("srp.seeded_solves").inc()
    seeded: Labeling = {node: labeling.get(node) for node in srp.graph.nodes}
    seeded[srp.destination] = srp.initial
    dirty = list(
        dict.fromkeys(node for node in dirty if node != srp.destination)
    )
    return _worklist(
        srp,
        seeded,
        dirty,
        _as_transfer_cache(transfer_cache),
        max_rounds,
        verify_stability=True,
    )


def _as_transfer_cache(cache) -> "TransferCache":
    """Normalise an optional caller-supplied memo to a :class:`TransferCache`."""
    if cache is None:
        return TransferCache()
    if isinstance(cache, TransferCache):
        return cache
    return TransferCache().seeded_from(cache)


def _worklist(
    srp: SRP,
    labeling: Labeling,
    dirty,
    transfer_cache,
    max_rounds: int,
    verify_stability: bool,
    tie_log: Optional[list] = None,
) -> Solution:
    """The dependency-tracked worklist core shared by :func:`solve` and
    :func:`solve_seeded`.

    The inner loop touches only the cache's fast local attribute
    counters; their per-solve deltas (plus the transfer's sender-half
    hits and misses and its memo's overflows, when it keeps them) are
    absorbed into the :mod:`repro.obs` registry once on the way out --
    the solve boundary is the coarsest point that still attributes cache
    traffic to the right span.
    """
    hits0, misses0, over0 = (
        transfer_cache.hits, transfer_cache.misses, transfer_cache.overflows,
    )
    eval_info = getattr(srp.transfer, "eval_cache_info", None)
    eval0 = eval_info() if eval_info is not None else None
    try:
        return _worklist_run(
            srp, labeling, dirty, transfer_cache, max_rounds, verify_stability, tie_log
        )
    finally:
        _metrics.absorb_cache_info(
            "srp.transfer_cache",
            {"hits": hits0, "misses": misses0, "overflows": over0},
            {
                "hits": transfer_cache.hits,
                "misses": transfer_cache.misses,
                "overflows": transfer_cache.overflows,
            },
        )
        if eval_info is not None:
            eval1 = eval_info()
            _metrics.absorb_cache_info("config.eval_cache", eval0, eval1, keys=("overflows",))
            _metrics.absorb_cache_info("config.sender_cache", eval0["sender"], eval1["sender"])


def _worklist_run(
    srp: SRP,
    labeling: Labeling,
    dirty,
    transfer_cache,
    max_rounds: int,
    verify_stability: bool,
    tie_log: Optional[list] = None,
) -> Solution:
    graph = srp.graph
    transfer = srp.transfer
    prefer = srp.prefer
    destination = srp.destination

    # Static adjacency, materialised once: out_edges feed a node's choices;
    # dependents(v) are the nodes whose choices read v's label.
    out_edges = {node: tuple(graph.out_edges(node)) for node in graph.nodes}
    dependents = {
        node: tuple(u for u, _ in graph.in_edges(node)) for node in graph.nodes
    }

    # Transfer results memoised per (edge, neighbour-label): ``trans`` is a
    # pure function in the SRP model and attributes are value-semantic
    # frozen dataclasses, so the same offer never needs recomputing.
    # Unhashable labels (custom attribute types) fall back to direct calls.
    cache_limit = transfer_cache.LIMIT
    cache_get = transfer_cache.get
    sort_keys: dict = {}
    # Per-node offer table: offers[node][edge] is the attribute currently
    # offered over that edge (None = dropped), kept incrementally -- when a
    # neighbour's label changes only that edge is re-evaluated, and the
    # final stability pass runs without touching the transfer functions at
    # all.  Insertion order is the out-edge order, so the deterministic
    # tie-breaking scan matches the sweep oracle exactly.
    offers: dict = {}

    def attribute_key(attr) -> str:
        # repr() of a frozen attribute is pure; memoise it (ties recur).
        try:
            key = sort_keys.get(attr)
            if key is None:
                key = sort_keys[attr] = _attribute_sort_key(attr)
            return key
        except TypeError:
            return _attribute_sort_key(attr)

    # Equal attributes are interned to one representative object, so the
    # (extremely common, e.g. ECMP) "offer equals the current best" case is
    # a pointer comparison instead of two ``prefer`` calls plus an
    # (equality-preserving, hence semantics-preserving) repr tie-break.
    interned: dict = {}
    # The one contract beyond purity a transfer may declare: the edges over
    # which ``transfer(edge, None)`` can be a route (static routes).  Every
    # other edge offers nothing for a ``None`` label, uncalled and
    # unmemoised.  A bare closure declares nothing: every edge may.
    offers_unrouted = getattr(transfer, "offers_without_route", lambda edge: True)

    def evaluate(edge, label) -> Optional[Attribute]:
        if label is None and not offers_unrouted(edge):
            return None
        key = (edge, label)
        try:
            attr = cache_get(key, _MISSING)
        except TypeError:
            return transfer(edge, label)
        if attr is not _MISSING:
            transfer_cache.hits += 1
            return attr
        attr = transfer(edge, label)
        if attr is not None:
            try:
                attr = interned.setdefault(attr, attr)
            except TypeError:
                pass
        if len(transfer_cache) >= cache_limit:
            transfer_cache.clear()
            transfer_cache.overflows += 1
        transfer_cache[key] = attr
        transfer_cache.misses += 1
        return attr

    # ``≺`` over what ``measure`` makes of an attribute: its memoised rank
    # when the protocol ``prefer`` is bound to declares one (``prefer(a, b)
    # ⟺ rank(a) < rank(b)``), the attribute itself under any other ``prefer``.
    rank_of = getattr(getattr(prefer, "__self__", None), "rank", None)
    ranks: dict = {}

    def rank(attr):
        # Keyed by identity: no hash, no unhashable case; the entry holds
        # the attribute, so its id cannot be reused while the memo lives.
        entry = ranks.get(id(attr))
        if entry is None:
            entry = ranks[id(attr)] = (rank_of(attr), attr)
        return entry[0]

    less, measure = (prefer, lambda attr: attr) if rank_of is None else (operator.lt, rank)

    def best_of(node_offers) -> Optional[Attribute]:
        best = best_measure = best_key = None
        for attr in node_offers.values():
            if attr is None or attr is best:
                continue
            measured = measure(attr)
            if best is None or less(measured, best_measure):
                best, best_measure, best_key = attr, measured, None
            elif not less(best_measure, measured):
                # Equally preferred: break the tie deterministically.
                if best_key is None:
                    best_key = attribute_key(best)
                attr_key = attribute_key(attr)
                if attr_key < best_key:
                    best, best_key = attr, attr_key
        return best

    def log_ties(node, node_offers, best) -> None:
        # Off the hot path: only a solve handed a ``tie_log`` scans again.
        top = measure(best)
        tied = tuple(
            attr
            for attr in dict.fromkeys(a for a in node_offers.values() if a is not None)
            if not less(top, measure(attr))
        )
        if len(tied) > 1:
            tie_log.append((node, best, tied))

    # Every node's offer table is built up front from the seed labeling.
    # In a scratch solve this is round 1's work: all labels but the
    # destination's are ``None``, so only its in-edges and the static-route
    # edges reach the transfer.  In a seeded solve it is almost entirely
    # memo hits against the baseline's transfer cache.
    get_label = labeling.get
    for node in graph.nodes:
        if node != destination:
            offers[node] = {
                edge: evaluate(edge, label)
                if (label := get_label(edge[1])) is not None or offers_unrouted(edge)
                else None
                for edge in out_edges[node]
            }

    for _ in range(max_rounds):
        # Compute this round's updates from the previous round's labeling
        # (synchronous semantics), then apply them all at once.  A round
        # with no updates is exactly a sweep round that changes nothing,
        # so convergence happens on the same round as the sweep oracle.
        updates = []
        for node in dirty:
            best, label = best_of(offers[node]), labeling[node]
            if tie_log is not None and best is not None:
                log_ties(node, offers[node], best)
            if best is not label and best != label:
                updates.append((node, best))
        if not updates:
            # When the initial worklist covered every node (a scratch
            # solve), a no-update round IS the stability proof: every
            # node's label equals the best of its offer table, and the
            # tables reflect the final labeling (each edge was re-evaluated
            # whenever its neighbour changed).  Re-scanning the same
            # memoised tables could never disagree, so no redundant check
            # is performed; ``solve_sweep`` -- the reference oracle --
            # retains the live ``Solution.is_stable()`` re-evaluation that
            # would catch an impure (model-violating) transfer function.
            #
            # A *seeded* solve starts from a labeling the solver did not
            # derive itself, and nodes outside the initial worklist were
            # trusted, not checked -- so the seeded path re-verifies every
            # node against the (fully materialised, memoised) offer tables
            # before returning.  O(E) dict scans, no transfer calls.
            if verify_stability:
                for node in graph.nodes:
                    if node == destination:
                        continue
                    if best_of(offers[node]) != labeling[node]:
                        raise ConvergenceError(
                            f"seeded labeling converged to an unstable fixed "
                            f"point at node {node!r} (bad seed?)"
                        )
            solution = Solution(
                srp=srp, labeling=labeling, transfer_cache=transfer_cache
            )
            # fwd_L, read off the converged offer tables: the edges whose
            # offer is the chosen (interned) attribute or ties with it.
            forwarding = solution.forwarding = {}
            for node, node_offers in offers.items():
                chosen = labeling[node]
                best = None if chosen is None else measure(chosen)
                forwarding[node] = () if chosen is None else tuple(
                    edge
                    for edge, attr in node_offers.items()
                    if attr is not None and (
                        attr is chosen
                        or not (less(other := measure(attr), best) or less(best, other))
                    )
                )
            return solution
        next_dirty = {}
        for node, best in updates:
            labeling[node] = best
            for dependent in dependents[node]:
                if dependent != destination:
                    next_dirty[dependent] = True
                    offers[dependent][(dependent, node)] = evaluate(
                        (dependent, node), best
                    )
        dirty = list(next_dirty)
    raise ConvergenceError(f"no fixed point after {max_rounds} rounds")


def solve_sweep(srp: SRP, max_rounds: int = 1000) -> Solution:
    """Compute a stable solution by synchronous full-sweep iteration.

    Every round recomputes each node's best choice from the previous
    round's labeling; iteration stops when a full round changes nothing.
    This is the reference oracle :func:`solve` is validated against; use
    :func:`solve` on anything performance-sensitive.

    Raises
    ------
    ConvergenceError
        If no fixed point is reached within ``max_rounds`` rounds (e.g. a
        BGP dispute gadget that oscillates under synchronous updates).  An
        unconverged labeling is never returned silently.
    """
    _metrics.counter("srp.scratch_solves").inc()
    labeling: Labeling = {node: None for node in srp.graph.nodes}
    labeling[srp.destination] = srp.initial

    for _ in range(max_rounds):
        changed = False
        new_labeling: Labeling = dict(labeling)
        for node in srp.graph.nodes:
            if node == srp.destination:
                continue
            best = _best_choice(srp, node, labeling)
            if best != labeling[node]:
                new_labeling[node] = best
                changed = True
        labeling = new_labeling
        if not changed:
            solution = Solution(srp=srp, labeling=labeling)
            if solution.is_stable():
                return solution
            # A synchronous fixed point is always stable by construction,
            # but guard against pathological transfer functions anyway.
            raise ConvergenceError(
                "synchronous fixed point reached an unstable labeling: "
                + "; ".join(solution.violations())
            )
    raise ConvergenceError(f"no fixed point after {max_rounds} rounds")


def solve_with_activation_order(
    srp: SRP,
    order: Optional[Sequence[Node]] = None,
    seed: Optional[int] = None,
    max_activations: int = 200_000,
) -> Solution:
    """Compute a stable solution with an asynchronous activation sequence.

    Nodes are activated one at a time; an activated node recomputes its best
    choice from the *current* labeling.  The process repeats (cycling over
    ``order``) until a full pass changes nothing.

    Parameters
    ----------
    order:
        The activation order (a permutation of the non-destination nodes, or
        any sequence -- missing nodes are appended).  When omitted, a
        pseudo-random permutation derived from ``seed`` is used.
    seed:
        Seed for the pseudo-random order when ``order`` is not given.
    """
    _metrics.counter("srp.scratch_solves").inc()
    nodes = [n for n in srp.graph.nodes if n != srp.destination]
    if order is None:
        rng = random.Random(seed)
        order = list(nodes)
        rng.shuffle(order)
    else:
        order = list(order) + [n for n in nodes if n not in order]

    labeling: Labeling = {node: None for node in srp.graph.nodes}
    labeling[srp.destination] = srp.initial

    activations = 0
    while activations < max_activations:
        changed = False
        for node in order:
            if node == srp.destination:
                continue
            activations += 1
            best = _best_choice(srp, node, labeling)
            if best != labeling[node]:
                labeling[node] = best
                changed = True
        if not changed:
            solution = Solution(srp=srp, labeling=labeling)
            if solution.is_stable():
                return solution
            raise ConvergenceError(
                "asynchronous fixed point reached an unstable labeling: "
                + "; ".join(solution.violations())
            )
    raise ConvergenceError(f"no fixed point after {max_activations} activations")


def enumerate_solutions(
    srp: SRP,
    attempts: int = 20,
    seed: int = 0,
    max_permutations: Optional[int] = None,
) -> List[Solution]:
    """Explore distinct stable solutions by varying the activation order.

    For small networks (at most 7 non-destination nodes, or when
    ``max_permutations`` covers all orders) every permutation is tried;
    otherwise ``attempts`` pseudo-random orders are sampled.  Solutions are
    de-duplicated by their labeling.  The search is heuristic: BGP networks
    can have solutions no activation order of this simple simulator reaches,
    but it suffices for the gadgets studied in the paper.
    """
    nodes = [n for n in srp.graph.nodes if n != srp.destination]
    solutions: List[Solution] = []
    seen = set()

    def record(solution: Solution) -> None:
        key = tuple(sorted((str(k), repr(v)) for k, v in solution.labeling.items()))
        if key not in seen:
            seen.add(key)
            solutions.append(solution)

    exhaustive_limit = max_permutations if max_permutations is not None else 5040
    total_orders = 1
    for i in range(2, len(nodes) + 1):
        total_orders *= i
        if total_orders > exhaustive_limit:
            break

    if total_orders <= exhaustive_limit:
        for order in itertools.permutations(nodes):
            try:
                record(solve_with_activation_order(srp, order=list(order)))
            except ConvergenceError:
                continue
    else:
        for attempt in range(attempts):
            try:
                record(solve_with_activation_order(srp, seed=seed + attempt))
            except ConvergenceError:
                continue
    return solutions


def has_stable_solution(srp: SRP, attempts: int = 10, seed: int = 0) -> bool:
    """Heuristically report whether the SRP converges to some stable solution."""
    try:
        solve(srp)
        return True
    except ConvergenceError:
        pass
    for attempt in range(attempts):
        try:
            solve_with_activation_order(srp, seed=seed + attempt)
            return True
        except ConvergenceError:
            continue
    return False
