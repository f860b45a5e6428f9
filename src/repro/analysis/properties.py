"""Path properties preserved by CP-equivalence (§4.4), as a registry.

Each checker below decides, on a :class:`~repro.analysis.dataplane.ForwardingTable`,
one of the properties the paper lists as preserved by effective
abstractions: reachability, path length, black holes, multipath
consistency, waypointing, and routing loops.  Running the same checker on
the concrete and compressed networks must give the same answer -- that is
exactly what the differential test harness asserts.

Beyond the standalone ``check_*`` functions (kept for direct use), every
property is registered as a first-class :class:`PropertySpec` in
:data:`PROPERTY_REGISTRY`: a name, a human description, an evaluator over
a :class:`PropertyContext`, and the quantifier used to lift verdicts
through BGP case splitting.  The registry is the single catalogue the
batch verification engine (:mod:`repro.analysis.batch`), the pipeline CLI
(``python -m repro.pipeline verify``) and the differential tests all
consume, so adding a property here automatically enrols it everywhere.

Failures carry a structured :class:`Counterexample` (the offending node,
the violating path, and -- for loops -- the extracted cycle) so reports
can name the broken device instead of echoing a bare boolean.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.dataplane import ForwardingFacts, ForwardingTable
from repro.topology.graph import Node


@dataclass(frozen=True)
class Counterexample:
    """A structured witness for a property violation.

    Attributes
    ----------
    kind:
        What went wrong: ``"loop"``, ``"blackhole"``, ``"divergence"``,
        ``"too-long"``, ``"bypass"`` (waypoint avoided) ...
    node:
        The offending node -- the loop entry point, the device that drops
        the traffic, or the source whose paths diverge.
    path:
        The violating forwarding path, as traversed.
    cycle:
        For loops: the repeated cycle extracted from ``path`` (first and
        last element equal); empty otherwise.
    detail:
        Free-form human explanation.
    """

    kind: str
    node: Optional[Node] = None
    path: Tuple[Node, ...] = ()
    cycle: Tuple[Node, ...] = ()
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        """A JSON-serialisable view (node names stringified)."""
        return {
            "kind": self.kind,
            "node": None if self.node is None else str(self.node),
            "path": [str(node) for node in self.path],
            "cycle": [str(node) for node in self.cycle],
            "detail": self.detail,
        }


@dataclass(frozen=True)
class PropertyResult:
    """Outcome of evaluating a property, with witnesses if relevant."""

    holds: bool
    witness: Optional[tuple] = None
    detail: str = ""
    counterexample: Optional[Counterexample] = None

    def __bool__(self) -> bool:  # pragma: no cover - convenience
        return self.holds


def _witnessed(
    holds: bool, kind: str, node: Node, path: Sequence[Node], message: str, detail: str
) -> PropertyResult:
    """The result a witness ``path`` decides, carrying it as counterexample."""
    path = tuple(path)
    return PropertyResult(
        holds,
        path,
        message,
        Counterexample(
            kind, node, path, _extract_cycle(path) if kind == "loop" else (), detail
        ),
    )


def check_reachability(table: ForwardingTable, source: Node) -> PropertyResult:
    """Does traffic from ``source`` reach the destination?"""
    outcome, path = table.path_outcome(source)
    if outcome == "delivered":
        return PropertyResult(True, tuple(path), f"{source!r}: {outcome}")
    return _witnessed(
        False, outcome, path[-1] if outcome == "blackhole" else source, path,
        f"{source!r}: {outcome}",
        f"traffic from {source!r} is {outcome}",
    )


def _first_path(
    table: ForwardingTable, source: Node,
    admit: Callable[[Node, int], bool], offending: Callable[[List[Node]], bool],
) -> Optional[List[Node]]:
    """The first path of ``table.iter_paths(source)`` that is
    ``offending`` -- the witness the full enumeration would report --
    stepping only to hops that ``admit`` says can still lead to one.
    Where ``source`` reaches no cycle an admitted hop always does, and the
    walk never backtracks."""
    return next(filter(offending, table.iter_paths(source, admit)), None)


def _undelivered_path(table: ForwardingTable, facts: ForwardingFacts, source: Node) -> List[Node]:
    """The first path from ``source`` (not in ``facts.all_delivered``)
    that ends in a drop or a loop."""
    return _first_path(
        table, source,
        lambda hop, hops: hop not in facts.all_delivered,
        lambda path: not table.delivers(path[-1]),
    )


def check_all_paths_reach(
    table: ForwardingTable, source: Node, facts: Optional[ForwardingFacts] = None
) -> PropertyResult:
    """Do *all* multipath forwarding paths from ``source`` deliver traffic?"""
    facts = facts or ForwardingFacts(table)
    if source in facts.all_delivered:
        return PropertyResult(True, None, "every path delivers")
    path = _undelivered_path(table, facts, source)
    return _witnessed(
        False, "blackhole", path[-1], path, "some path fails to deliver",
        f"path from {source!r} ends undelivered at {path[-1]!r}",
    )


def path_lengths(table: ForwardingTable, source: Node) -> Set[int]:
    """The set of delivered-path lengths from ``source`` (enumerates:
    :meth:`ForwardingTable.all_paths` and its bound apply)."""
    return {len(path) - 1 for path in table.all_paths(source) if table.delivers(path[-1])}


def check_path_length(
    table: ForwardingTable, source: Node, expected_length: int
) -> PropertyResult:
    """Do all forwarding paths from ``source`` have the expected hop count?
    (Enumerates, like :func:`path_lengths`.)"""
    for path in table.all_paths(source):
        if table.delivers(path[-1]) and len(path) - 1 != expected_length:
            return _witnessed(
                False, "wrong-length", source, path,
                f"path has length {len(path) - 1}, expected {expected_length}",
                f"{len(path) - 1} hops, expected {expected_length}",
            )
    return PropertyResult(True, None, "all delivered paths match the expected length")


def _path_longer_than(
    table: ForwardingTable, facts: ForwardingFacts, source: Node, bound: int
) -> Optional[List[Node]]:
    """The first delivered path from ``source`` with more than ``bound``
    hops, if any."""
    longest = facts.longest
    if source in facts.cyclic:
        # Past a cycle the longest loop-free path is no fact of the peel
        # order; no path has more hops than there are other nodes, and a
        # smaller bound is left to the walk below.
        if source not in facts.delivering or bound >= len(facts.preds) - 1:
            return None
    elif longest.get(source, 0) <= bound:
        return None
    return _first_path(
        table, source,
        lambda hop, hops: hop in facts.delivering
        and (hop in facts.cyclic or hops + longest[hop] > bound),
        lambda path: table.delivers(path[-1]) and len(path) - 1 > bound,
    )


def check_bounded_path_length(
    table: ForwardingTable, source: Node, bound: int, facts: Optional[ForwardingFacts] = None
) -> PropertyResult:
    """Do all delivered paths from ``source`` have at most ``bound`` hops?"""
    path = _path_longer_than(table, facts or ForwardingFacts(table), source, bound)
    if path is None:
        return PropertyResult(True, None, f"all delivered paths within {bound} hops")
    return _witnessed(
        False, "too-long", source, path,
        f"path has length {len(path) - 1} > bound {bound}",
        f"{len(path) - 1} hops exceeds bound {bound}",
    )


def check_black_hole(
    table: ForwardingTable, source: Node, facts: Optional[ForwardingFacts] = None
) -> PropertyResult:
    """Is there a forwarding path from ``source`` that ends in a drop?"""
    facts = facts or ForwardingFacts(table)
    if source in facts.drop_free:
        return PropertyResult(False, None, "no black hole reachable")
    path = _first_path(
        table, source,
        lambda hop, hops: hop not in facts.drop_free,
        lambda path: not table.delivers(path[-1]) and len(set(path)) == len(path),
    )
    return _witnessed(
        True, "blackhole", path[-1], path, "black hole reached",
        f"{path[-1]!r} drops traffic from {source!r}",
    )


def check_multipath_consistency(
    table: ForwardingTable, source: Node, facts: Optional[ForwardingFacts] = None
) -> PropertyResult:
    """Multipath consistency: either all paths deliver or all drop.

    The property *fails* when traffic from the source is delivered along
    some path but dropped along another (the inconsistency the paper's
    property describes); the result's ``holds`` is True when the behaviour
    is consistent.  On failure the counterexample carries the offending
    source node and the dropped path, with a delivered path in the detail.
    """
    facts = facts or ForwardingFacts(table)
    if source not in facts.delivering or source in facts.all_delivered:
        return PropertyResult(True, None, "consistent")
    dropped = _undelivered_path(table, facts, source)
    delivered = _first_path(
        table, source,
        lambda hop, hops: hop in facts.delivering,
        lambda path: table.delivers(path[-1]),
    )
    return _witnessed(
        False, "divergence", source, dropped, "delivered on some paths, dropped on others",
        f"{source!r} delivers via {'>'.join(map(str, delivered))} "
        f"but drops via {'>'.join(map(str, dropped))}",
    )


def check_waypointing(
    table: ForwardingTable, source: Node, waypoints: Iterable[Node],
    facts: Optional[ForwardingFacts] = None,
) -> PropertyResult:
    """Does every delivered path from ``source`` traverse one of ``waypoints``?"""
    avoiding = frozenset(waypoints)
    bypassing = (facts or ForwardingFacts(table)).closure(table.origins - avoiding, avoiding)
    if source not in bypassing:
        return PropertyResult(True, None, "all delivered paths traverse a waypoint")
    path = _first_path(
        table, source,
        lambda hop, hops: hop in bypassing,
        lambda path: table.delivers(path[-1]),
    )
    return _witnessed(
        False, "bypass", source, path, "path avoids all waypoints",
        f"delivered path from {source!r} avoids every waypoint",
    )


def _extract_cycle(path: Sequence[Node]) -> Tuple[Node, ...]:
    """The repeated cycle at the end of a looping path (closed: first == last)."""
    return tuple(path[path.index(path[-1]):])


def check_routing_loop(
    table: ForwardingTable, sources: Optional[Sequence[Node]] = None
) -> PropertyResult:
    """Is there a forwarding loop reachable from any source?

    On failure the counterexample names the source that enters the loop
    and carries the extracted cycle (closed, first element == last).
    """
    nodes = sources if sources is not None else sorted(table.next_hops, key=str)
    for source in nodes:
        outcome, path = table.path_outcome(source)
        if outcome == "loop":
            cycle = ">".join(map(str, _extract_cycle(path)))
            return _witnessed(
                True, "loop", source, path,
                f"loop reachable from {source!r}",
                f"cycle {cycle} reachable from {source!r}",
            )
    return PropertyResult(False, None, "no forwarding loop")


def failure_witness(
    spec: "PropertySpec", context: "PropertyContext", nodes: Iterable[Node]
) -> Optional[Counterexample]:
    """The counterexample of the first of ``nodes`` that ``spec`` fails on
    with one: the single piece of evidence -- offending path or cycle --
    reports attach to a broken property, evaluated for that node alone."""
    for node in nodes:
        result = spec.evaluate(context, node)
        if not result.holds and result.counterexample is not None:
            return result.counterexample
    return None


# ----------------------------------------------------------------------
# The property registry
# ----------------------------------------------------------------------
@dataclass
class PropertyContext:
    """Everything a registered property may need besides the source node.

    The batch engine builds one context per (network, equivalence class)
    pair; the same parameter values (``path_bound``) or their abstraction
    images (``waypoints``) are used on the concrete and compressed network
    so the verdicts are directly comparable.
    """

    table: ForwardingTable
    #: Waypoints for the ``waypointing`` property (defaults to the class's
    #: originating devices, which every delivered path necessarily ends at).
    waypoints: FrozenSet[Node] = frozenset()
    #: Hop bound for ``bounded-path-length`` (the batch engine defaults it
    #: to the *concrete* node count so both networks share one bound).
    path_bound: Optional[int] = None

    @property
    def bound(self) -> int:
        """:attr:`path_bound`, defaulting to the table's node count."""
        return self.path_bound if self.path_bound is not None else len(self.table.next_hops)

    @cached_property
    def facts(self) -> ForwardingFacts:
        """The table's forwarding-graph analysis, built on first use and
        kept for this context's life (never on the table)."""
        return ForwardingFacts(self.table)

    @cached_property
    def bypassing(self) -> Set[Node]:
        """Nodes with a delivered path avoiding every waypoint."""
        return self.facts.closure(self.table.origins - self.waypoints, self.waypoints)


@dataclass(frozen=True)
class PropertySpec:
    """A first-class registered property check.

    Attributes
    ----------
    name:
        The stable identifier used by the CLI, reports and tests.
    description:
        One-line human description.
    evaluate:
        ``evaluate(context, source) -> PropertyResult``; ``holds`` is the
        per-source verdict, and a failure carries the counterexample.
    holds:
        Optional ``holds(context, source) -> bool``: the verdict alone,
        for bulk evaluation (:func:`evaluate_suite`) -- the catalogue's
        own are O(1) reads of ``context.facts``.  Defaults to
        ``evaluate(...).holds``.
    lift:
        How per-copy verdicts combine when BGP case splitting maps one
        concrete node to several abstract copies: ``"all"`` (the property
        must hold on every copy -- universal properties) or ``"any"``
        (one copy suffices -- existential properties like reachability).
    """

    name: str
    description: str
    evaluate: Callable[[PropertyContext, Node], PropertyResult]
    lift: str = "all"
    holds: Optional[Callable[[PropertyContext, Node], bool]] = None
    #: Whether the evaluator reads ``PropertyContext.waypoints``.  The
    #: batch verifier only trusts such verdicts differentially when the
    #: waypoint set is closed under the abstraction (a union of groups);
    #: declaring the dependency here keeps that comparability rule working
    #: for renamed or user-registered waypoint-style properties.
    uses_waypoints: bool = False


#: name -> :class:`PropertySpec`, in registration (catalogue) order.
PROPERTY_REGISTRY: Dict[str, PropertySpec] = {}


def register_property(spec: PropertySpec) -> PropertySpec:
    """Add a property to the catalogue (last registration wins).

    Registration is per-process: suites that run over the pool executors
    must name the registering module in
    :attr:`~repro.analysis.batch.PropertySuite.register_modules` so each
    worker can rebuild its registry by import.
    """
    if spec.lift not in ("all", "any"):
        raise ValueError(f"invalid lift quantifier {spec.lift!r}")
    PROPERTY_REGISTRY[spec.name] = spec
    return spec


def registered_properties() -> List[str]:
    """The catalogue's property names, in registration order."""
    return list(PROPERTY_REGISTRY)


def get_property(name: str) -> PropertySpec:
    """Look up a registered property by name."""
    try:
        return PROPERTY_REGISTRY[name]
    except KeyError:
        known = ", ".join(PROPERTY_REGISTRY)
        raise ValueError(f"unknown property {name!r}; registered: {known}") from None


#: ``{property: {node: holds}}`` -- the boolean verdict form the failure
#: and change sweeps exchange and diff.
VerdictMap = Dict[str, Dict[str, bool]]


def evaluate_suite(
    specs: Sequence[PropertySpec],
    table: ForwardingTable,
    nodes: Iterable[Node],
    waypoints: Iterable[str],
    path_bound: Optional[int],
) -> VerdictMap:
    """Boolean verdicts of every spec on every node of one table: one
    :class:`ForwardingFacts` for the call, no per-node results built."""
    context = PropertyContext(
        table=table, waypoints=frozenset(waypoints), path_bound=path_bound
    )
    verdicts: VerdictMap = {}
    for spec in specs:
        holds = spec.holds or (
            lambda ctx, node, evaluate=spec.evaluate: evaluate(ctx, node).holds
        )
        verdicts[spec.name] = {str(node): holds(context, node) for node in nodes}
    return verdicts


def verdict_delta(
    baseline: VerdictMap, current: VerdictMap, nodes: Iterable[str]
) -> Tuple[Dict[str, List[str]], Dict[str, List[str]]]:
    """``(newly failing, newly passing)`` per property over ``nodes``.

    Nodes absent from a map default to passing on the baseline side (a
    node that did not exist before cannot have been failing) and to
    unchanged on the current side.
    """
    newly_failing: Dict[str, List[str]] = {}
    newly_passing: Dict[str, List[str]] = {}
    for prop, per_node in current.items():
        base = baseline.get(prop, {})
        failing = [n for n in nodes if base.get(n, True) and not per_node.get(n, True)]
        passing = [n for n in nodes if not base.get(n, True) and per_node.get(n, False)]
        if failing:
            newly_failing[prop] = failing
        if passing:
            newly_passing[prop] = passing
    return newly_failing, newly_passing


def _negate(result: PropertyResult) -> PropertyResult:
    """An existence check as the corresponding freedom property (its
    detail already reads correctly in both directions)."""
    return replace(result, holds=not result.holds)


register_property(PropertySpec(
    name="reachability",
    description="traffic from the source reaches the destination",
    evaluate=lambda ctx, source: check_reachability(ctx.table, source),
    holds=lambda ctx, source: ctx.facts.outcome.get(source) == "delivered",
    lift="any",
))

register_property(PropertySpec(
    name="all-paths-reach",
    description="every multipath forwarding path from the source delivers",
    evaluate=lambda ctx, source: check_all_paths_reach(ctx.table, source, ctx.facts),
    holds=lambda ctx, source: source in ctx.facts.all_delivered,
))

register_property(PropertySpec(
    name="black-hole-freedom",
    description="no loop-free forwarding path from the source ends in a drop",
    evaluate=lambda ctx, source: _negate(check_black_hole(ctx.table, source, ctx.facts)),
    holds=lambda ctx, source: source in ctx.facts.drop_free,
))

register_property(PropertySpec(
    name="routing-loop-freedom",
    description="no forwarding loop is reachable from the source",
    evaluate=lambda ctx, source: _negate(
        check_routing_loop(ctx.table, sources=[source])
    ),
    holds=lambda ctx, source: ctx.facts.outcome.get(source) != "loop",
))

register_property(PropertySpec(
    name="bounded-path-length",
    description="every delivered path from the source stays within the hop bound",
    evaluate=lambda ctx, source: check_bounded_path_length(
        ctx.table, source, ctx.bound, ctx.facts
    ),
    holds=lambda ctx, source: _path_longer_than(
        ctx.table, ctx.facts, source, ctx.bound
    ) is None,
))

register_property(PropertySpec(
    name="waypointing",
    description="every delivered path from the source traverses a waypoint",
    evaluate=lambda ctx, source: check_waypointing(
        ctx.table, source, ctx.waypoints, ctx.facts
    ),
    holds=lambda ctx, source: source not in ctx.bypassing,
    uses_waypoints=True,
))

register_property(PropertySpec(
    name="multipath-consistency",
    description="all multipath choices from the source agree on delivery",
    evaluate=lambda ctx, source: check_multipath_consistency(
        ctx.table, source, ctx.facts
    ),
    holds=lambda ctx, source: (
        source not in ctx.facts.delivering or source in ctx.facts.all_delivered
    ),
))
