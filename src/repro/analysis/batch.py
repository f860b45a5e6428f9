"""Batch property verification over the compression pipeline.

This is the subsystem that turns the paper's soundness claim into a
measurable, testable artefact: run the *whole* property catalogue
(:data:`~repro.analysis.properties.PROPERTY_REGISTRY`) per destination
equivalence class across every node, on both the concrete network and the
Bonsai-compressed network, and check node by node that the two give the
same verdict (§4.4: CP-equivalence preserves these properties).

The per-class work -- simulate the concrete control plane, compress,
simulate the abstract control plane, evaluate every property on every
node, lift abstract verdicts back through the abstraction mapping -- is
registered as the ``"verify"`` task of the generic
:class:`~repro.pipeline.core.ClassFanOut` engine, so it fans out over the
same serial/process/auto executors as compression itself.  Its abstract
half, :func:`abstract_arm`, is the only one: the failure soundness check
and the delta revalidation call it too.

Verdict lifting
---------------
A concrete node ``n`` corresponds to the abstract node ``f(n)``; with BGP
case splitting (Theorem 4.5) ``f(n)`` may have several copies, and the
concrete solution is represented by *some* copy.  Each registered
property therefore declares its quantifier: existential properties
(reachability) hold for ``n`` iff they hold on *any* copy, universal ones
(loop freedom, waypointing, ...) iff they hold on *all* copies.  Without
splitting both quantifiers coincide and the comparison is exact.

Counterexamples are lifted the other way: an abstract witness path is
mapped to the sets of concrete nodes each abstract hop stands for, so a
report can name real devices (see :func:`lift_counterexample`).

The aggregated :class:`VerificationReport` is JSON-serialisable and is
what ``python -m repro.pipeline verify``, the differential test harness
and the CI benchmark artifact all consume.
"""

from __future__ import annotations

import importlib
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.abstraction.equivalence import build_abstract_srp
from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.orbit import ClassOrbit
from repro.analysis.dataplane import forwarding_table_from_solution
from repro.analysis.properties import (
    Counterexample,
    PropertyContext,
    PropertySpec,
    VerdictMap,
    evaluate_suite,
    failure_witness,
    get_property,
    registered_properties,
)
from repro.config.network import Network
from repro.config.transfer import VIRTUAL_DESTINATION, srp_origins
from repro.obs import trace
from repro.pipeline.core import ClassFanOut
from repro.pipeline.encoded import EncodedNetwork
from repro.reporting import ReportEnvelope, StreamingReport
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import solve

#: Format version for the JSON verification reports.
VERIFICATION_REPORT_VERSION = 2

#: Structured counterexamples kept per property per class (the failing
#: node *lists* are always complete; only the path-level witnesses are
#: capped to keep reports small).
MAX_COUNTEREXAMPLES = 3


class VerificationTimeout(Exception):
    """Raised when a verification run exceeds its time budget.

    ``partial`` carries the :class:`VerificationReport` the run produced
    before the budget ran out, so a caller that catches the timeout still
    sees the work that finished -- the timeout is reported, never
    swallowed.
    """

    def __init__(self, message: str = "verification timed out", partial=None):
        super().__init__(message)
        self.partial = partial


# ----------------------------------------------------------------------
# Suite selection
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PropertySuite:
    """A selection of registered properties plus their parameters.

    Parameters
    ----------
    names:
        Registered property names, evaluated in this order.
    path_bound:
        Hop bound for ``bounded-path-length``.  ``None`` defaults to the
        *concrete* network's node count (shared by both networks so the
        verdicts stay comparable).
    waypoints:
        Device names for ``waypointing``.  ``None`` defaults to each
        class's originating devices; explicit waypoints are mapped through
        the abstraction (``f`` plus case-split copies) on the abstract side.
    register_modules:
        Importable module names that call
        :func:`~repro.analysis.properties.register_property` at import
        time.  Pool workers resolve property names against *their own*
        registry, so a suite using user-registered properties must name
        the registering modules here (the built-in catalogue needs
        nothing); each worker imports them before evaluating.
    """

    names: Tuple[str, ...]
    path_bound: Optional[int] = None
    waypoints: Optional[Tuple[str, ...]] = None
    register_modules: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        for module in self.register_modules:
            importlib.import_module(module)
        for name in self.names:
            get_property(name)  # raises on unknown names

    @classmethod
    def default(cls, **params) -> "PropertySuite":
        """The full registered catalogue."""
        return cls(names=tuple(registered_properties()), **params)

    @classmethod
    def from_names(cls, names: Sequence[str], **params) -> "PropertySuite":
        """A suite of explicitly selected properties (order preserved)."""
        if not names:
            raise ValueError("a property suite needs at least one property")
        return cls(names=tuple(names), **params)

    def specs(self) -> List[PropertySpec]:
        return [get_property(name) for name in self.names]

    # Pickleable wire form handed to pool workers via task options.
    def to_options(self) -> Dict[str, object]:
        return {
            "properties": list(self.names),
            "path_bound": self.path_bound,
            "waypoints": None if self.waypoints is None else list(self.waypoints),
            "register_modules": list(self.register_modules),
        }

    @classmethod
    def from_options(cls, options: Dict[str, object]) -> "PropertySuite":
        names = options.get("properties") or registered_properties()
        waypoints = options.get("waypoints")
        return cls(
            names=tuple(names),
            path_bound=options.get("path_bound"),
            waypoints=None if waypoints is None else tuple(waypoints),
            register_modules=tuple(options.get("register_modules") or ()),
        )


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass
class PropertyVerdict:
    """Differential outcome of one property on one equivalence class.

    The three node lists use *concrete* node names: ``abstract_failing``
    holds the concrete nodes whose verdict, lifted from their abstract
    copies, is False.  ``mismatched`` is the soundness oracle -- it must
    stay empty for every effective abstraction.
    """

    property: str
    nodes_checked: int
    concrete_failing: List[str] = field(default_factory=list)
    abstract_failing: List[str] = field(default_factory=list)
    mismatched: List[str] = field(default_factory=list)
    counterexamples: List[Dict] = field(default_factory=list)
    #: False when the property's parameters cannot be expressed on the
    #: abstract network (e.g. a waypoint set that is not a union of
    #: abstraction groups): the abstract verdict is then informational
    #: only and excluded from the soundness oracle.  ``note`` says why.
    comparable: bool = True
    note: str = ""

    @property
    def concrete_passed(self) -> int:
        return self.nodes_checked - len(self.concrete_failing)

    @property
    def abstract_passed(self) -> int:
        return self.nodes_checked - len(self.abstract_failing)

    def agrees(self) -> bool:
        """Whether the abstract and concrete verdicts coincide on every node
        (vacuously true for non-comparable parameterisations)."""
        return (not self.comparable) or not self.mismatched

    def canonical(self) -> Tuple:
        """Everything except witnesses, for executor parity checks."""
        return (
            self.property,
            self.nodes_checked,
            self.comparable,
            tuple(self.concrete_failing),
            tuple(self.abstract_failing),
            tuple(self.mismatched),
        )


@dataclass
class ClassVerificationRecord:
    """All property verdicts for one destination equivalence class."""

    prefix: str
    origins: List[str]
    concrete_nodes: int
    abstract_nodes: int
    concrete_seconds: float
    abstract_seconds: float
    compression_seconds: float
    verdicts: List[PropertyVerdict] = field(default_factory=list)
    timed_out: bool = False
    #: The solves taken from the family's representative instead of
    #: solved (``"concrete"``, ``"abstract"``): telemetry of how this
    #: executor's worker got there, like the timings, so not canonical.
    orbit_mapped: List[str] = field(default_factory=list)

    def agrees(self) -> bool:
        return all(verdict.agrees() for verdict in self.verdicts)

    def canonical(self) -> Tuple:
        return (
            self.prefix,
            tuple(self.origins),
            self.timed_out,
            tuple(verdict.canonical() for verdict in self.verdicts),
        )


# ----------------------------------------------------------------------
# Aggregated report
# ----------------------------------------------------------------------
@dataclass
class VerificationReport(StreamingReport, ReportEnvelope):
    """Run-level aggregation of every per-class verification record.

    ``speedup`` is the paper-style headline number and the repo's one
    definition of it (Figure 12 and the §8 query print it): total concrete
    verification seconds over total abstract seconds, where the abstract
    side *includes* the compression time (as in Figure 12), summed over
    the classes that solved both sides themselves (a class whose solutions
    were mapped from its orbit's representative measures the mapping,
    not abstract against concrete solving).  The once-per-network policy
    encode is ``encode_seconds``, on neither side.
    """

    kind = "verification"

    network_name: str
    executor: str
    workers: int
    num_classes: int
    properties: List[str]
    path_bound: Optional[int]
    encode_seconds: float
    total_seconds: float
    records: List[ClassVerificationRecord] = field(default_factory=list)
    timed_out: bool = False
    version: int = VERIFICATION_REPORT_VERSION

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def concrete_seconds(self) -> float:
        return sum(r.concrete_seconds for r in self.iter_records())

    @property
    def abstract_seconds(self) -> float:
        return sum(r.abstract_seconds for r in self.iter_records())

    @property
    def speedup(self) -> Optional[float]:
        solved = [r for r in self.iter_records() if not r.orbit_mapped]
        abstract = sum(r.abstract_seconds for r in solved)
        if abstract <= 0:
            return None
        return sum(r.concrete_seconds for r in solved) / abstract

    def orbit_counts(self) -> Tuple[int, int]:
        """How many classes took their concrete and their abstract
        solution from a representative."""
        mapped = [side for r in self.iter_records() for side in r.orbit_mapped]
        return mapped.count("concrete"), mapped.count("abstract")

    def verdicts_agree(self) -> bool:
        """The executable soundness theorem: no node disagrees anywhere."""
        return all(record.agrees() for record in self.iter_records())

    def mismatches(self) -> List[Tuple[str, str, List[str]]]:
        """Every divergence as ``(prefix, property, nodes)`` triples."""
        out = []
        for record in self.iter_records():
            for verdict in record.verdicts:
                if verdict.mismatched:
                    out.append((record.prefix, verdict.property, list(verdict.mismatched)))
        return out

    _TOTAL_KEYS = (
        "checked",
        "concrete_passed",
        "concrete_failed",
        "abstract_passed",
        "abstract_failed",
        "mismatched",
    )

    def property_totals(self) -> Dict[str, Dict[str, int]]:
        """Per-property pass/fail/mismatch counts summed over all classes."""
        totals: Dict[str, Dict[str, int]] = {
            name: dict.fromkeys(self._TOTAL_KEYS, 0) for name in self.properties
        }
        for record in self.iter_records():
            for verdict in record.verdicts:
                bucket = totals.setdefault(
                    verdict.property, dict.fromkeys(self._TOTAL_KEYS, 0)
                )
                bucket["checked"] += verdict.nodes_checked
                bucket["concrete_passed"] += verdict.concrete_passed
                bucket["concrete_failed"] += len(verdict.concrete_failing)
                bucket["abstract_passed"] += verdict.abstract_passed
                bucket["abstract_failed"] += len(verdict.abstract_failing)
                bucket["mismatched"] += len(verdict.mismatched)
        return totals

    def canonical_records(self) -> Tuple[Tuple, ...]:
        """Timing-free per-class outcomes, in prefix order, for parity checks."""
        return tuple(
            record.canonical()
            for record in sorted(self.iter_records(), key=lambda r: r.prefix)
        )

    def ok(self) -> bool:
        """The report-level gate: verdicts agree and nothing timed out."""
        return self.verdicts_agree() and not self.timed_out

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def record_from_payload(cls, payload: Dict) -> ClassVerificationRecord:
        raw = dict(payload)
        verdicts = [PropertyVerdict(**verdict) for verdict in raw.pop("verdicts", [])]
        return ClassVerificationRecord(verdicts=verdicts, **raw)

    def aggregate(self) -> Dict[str, object]:
        return {
            "concrete_seconds": self.concrete_seconds,
            "abstract_seconds": self.abstract_seconds,
            "speedup": self.speedup,
            "verdicts_agree": self.verdicts_agree(),
            "property_totals": self.property_totals(),
        }

    def to_json(self, indent: int = 2, handle=None) -> Optional[str]:
        # Defined here, not just inherited: the e2e benchmark's layer
        # ledger wraps it through this class's own ``__dict__``.
        return super().to_json(indent, handle)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def summary_lines(self) -> List[str]:
        agree = self.verdicts_agree()
        lines = [
            f"network: {self.network_name}",
            self.executor_line(),
            f"equivalence classes: {self.num_classes}",
            f"properties: {', '.join(self.properties)}",
            f"concrete verification: {self.concrete_seconds:.3f}s",
            f"abstract verification (incl. compression): {self.abstract_seconds:.3f}s",
        ]
        if self.speedup is not None:
            lines.append(f"abstract-vs-concrete speedup: {self.speedup:.2f}x")
            lines.append(
                "  (concrete check over compression + abstract check; the "
                f"once-per-network encode, {self.encode_seconds:.3f}s, is in "
                "neither. Both checks simulate the control plane in "
                "near-linear time, so compression costs about what it "
                "saves and below 1x is expected)"
            )
        concrete, abstract = self.orbit_counts()
        lines.append(
            f"class orbits: {concrete} concrete and {abstract} abstract solves of "
            f"{self.record_count()} classes mapped from a symmetric class"
        )
        totals = self.property_totals()
        for name in self.properties:
            bucket = totals[name]
            lines.append(
                f"  {name}: {bucket['concrete_passed']}/{bucket['checked']} pass "
                f"(abstract {bucket['abstract_passed']}/{bucket['checked']}, "
                f"mismatches {bucket['mismatched']})"
            )
        lines.append(
            "abstract and concrete verdicts AGREE on every node"
            if agree
            else f"VERDICTS DIVERGE: {self.mismatches()}"
        )
        if self.timed_out:
            lines.append("run TIMED OUT before checking every class")
        return lines


# ----------------------------------------------------------------------
# Counterexample lifting
# ----------------------------------------------------------------------
def lift_counterexample(
    abstraction: NetworkAbstraction, counterexample: Counterexample
) -> Dict[str, object]:
    """Map an abstract counterexample back through the abstraction mapping.

    Every abstract node mentioned by the witness (its offending node, path
    and cycle) is expanded to the sorted set of concrete nodes it stands
    for, so a report on the compressed network can name real devices.
    """
    mentioned = set(counterexample.path) | set(counterexample.cycle)
    if counterexample.node is not None:
        mentioned.add(counterexample.node)
    candidates: Dict[str, List[str]] = {}
    for abstract_node in sorted(mentioned, key=str):
        members = abstraction.concrete_nodes(str(abstract_node))
        candidates[str(abstract_node)] = sorted(str(node) for node in members)
    return {
        "abstract": counterexample.to_dict(),
        "concrete_candidates": candidates,
    }


# ----------------------------------------------------------------------
# The per-class "verify" task (runs inside pipeline workers)
# ----------------------------------------------------------------------
def waypoints_for(
    suite: PropertySuite, equivalence_class: EquivalenceClass
) -> FrozenSet[str]:
    """The suite's waypoints, or else the class's originating devices."""
    if suite.waypoints is not None:
        return frozenset(suite.waypoints)
    return frozenset(str(origin) for origin in equivalence_class.origins)


def lift_verdicts(
    abstraction: NetworkAbstraction,
    specs: Sequence[PropertySpec],
    abstract_verdicts: VerdictMap,
    concrete_nodes: Sequence,
) -> VerdictMap:
    """Each concrete node's verdict from those of its abstract copies:
    the spec's ``any``/``all`` over the copies ``abstract_verdicts``
    covers (a node none of whose copies survived fails either way)."""
    copies_of = {str(n): abstraction.copies_of(abstraction.f(n)) for n in concrete_nodes}
    lifted: VerdictMap = {}
    for spec in specs:
        holds = abstract_verdicts[spec.name]
        lift = any if spec.lift == "any" else all
        per_node = lifted[spec.name] = {}
        for name, copies in copies_of.items():
            surviving = [holds[copy] for copy in copies if copy in holds]
            per_node[name] = bool(surviving) and lift(surviving)
    return lifted


def abstract_arm(
    abstraction: NetworkAbstraction,
    abstract_srp: SRP,
    specs: Sequence[PropertySpec],
    concrete_nodes: Sequence,
    waypoints: FrozenSet[str],
    path_bound: int,
    solver: Callable[[SRP], Solution] = solve,
) -> Tuple[PropertyContext, VerdictMap]:
    """The abstract side of one class check: solve ``abstract_srp`` (with
    ``solver``: the verify task's class orbit may map it instead),
    evaluate ``specs`` on its nodes and lift the verdicts to
    ``concrete_nodes`` (:func:`lift_verdicts`).

    ``abstract_srp`` is whichever SRP ``abstraction`` is checked on, as
    :func:`~repro.abstraction.equivalence.build_abstract_srp` derives it
    from the partition: the class's own, a failure mapped onto it, or a
    re-compression's.  It carries the abstract class: the prefix,
    originated at the abstract nodes whose members include an origin.
    ``waypoints`` (concrete names) map through ``f`` and the case-split
    copies.

    Returns the abstract table's :class:`PropertyContext` (what abstract
    witnesses are drawn from) and the lifted verdicts.
    """
    abstract_class = EquivalenceClass(
        prefix=abstract_srp.transfer.destination,
        origins=frozenset(srp_origins(abstract_srp)),
    )
    context = PropertyContext(
        table=forwarding_table_from_solution(solver(abstract_srp), abstract_class),
        waypoints=frozenset(
            copy
            for node in waypoints
            if node in abstraction.node_map
            for copy in abstraction.copies_of(abstraction.f(node))
        ),
        path_bound=path_bound,
    )
    nodes = sorted(
        (node for node in abstract_srp.graph.nodes if node != VIRTUAL_DESTINATION), key=str
    )
    verdicts = evaluate_suite(specs, context.table, nodes, context.waypoints, path_bound)
    return context, lift_verdicts(abstraction, specs, verdicts, concrete_nodes)


def compare_verdicts(
    concrete: VerdictMap, lifted: VerdictMap
) -> Dict[str, List[str]]:
    """``{property: [nodes]}`` where lifted and concrete verdicts differ."""
    mismatched: Dict[str, List[str]] = {}
    for name, per_node in concrete.items():
        lifted_holds = lifted.get(name, {})
        bad = [
            node
            for node, holds in sorted(per_node.items())
            if lifted_holds.get(node, holds) != holds
        ]
        if bad:
            mismatched[name] = bad
    return mismatched


def verify_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Differentially verify one equivalence class (the ``"verify"`` task).

    The concrete side is the class's
    :class:`~repro.pipeline.perturb.TaskBaseline`, the one the failure and
    change sweeps compare against: solved here, or validated from (and
    kept by) the :class:`~repro.pipeline.perturb.WarmBaselines` in
    ``options["baseline"]`` over a stored artifact.  The abstract side
    compresses the class (a validated stored compression stands in) and
    runs :func:`abstract_arm` on the abstract SRP of its partition.  The record
    holds failures, mismatches and structured counterexamples.

    Without a stored baseline the class goes through its orbit
    (:mod:`repro.abstraction.orbit`): a class that is a checked image of
    its family's representative takes its partition and both solutions
    from it through one σ, and the record's ``orbit_mapped`` names the
    solves that were mapped.

    A ``deadline`` (epoch seconds) in ``options`` turns classes reached
    after the budget into ``timed_out`` marker records instead of silently
    dropping them.
    """
    # perturb imports this module; by the time a task runs it is loaded.
    from repro.pipeline.perturb import TaskBaseline

    with trace.span("verify", cls=str(equivalence_class.prefix)):
        deadline = options.get("deadline")
        record = ClassVerificationRecord(
            prefix=str(equivalence_class.prefix),
            origins=sorted(str(origin) for origin in equivalence_class.origins),
            concrete_nodes=0,
            abstract_nodes=0,
            concrete_seconds=0.0,
            abstract_seconds=0.0,
            compression_seconds=0.0,
        )
        if deadline is not None and time.time() >= deadline:
            record.timed_out = True
            return record

        # -- concrete side ---------------------------------------------------
        concrete_start = time.perf_counter()
        warm = options.get("baseline")
        if warm is None:
            orbit = ClassOrbit(bonsai, equivalence_class)
            baseline = TaskBaseline(bonsai, equivalence_class, options, solver=orbit.solve_concrete)
        else:
            orbit = None
            baseline = warm.task_baseline(bonsai, equivalence_class, options)
        record.concrete_seconds = time.perf_counter() - concrete_start

        # -- abstract side (compression included in the timing) --------------
        abstract_start = time.perf_counter()
        result, record.compression_seconds = baseline.compression(bonsai, orbit)
        abstraction = result.abstraction
        abstract_context, lifted = abstract_arm(
            abstraction, build_abstract_srp(baseline.solution.srp, abstraction),
            baseline.specs, baseline.node_names, baseline.waypoints, baseline.path_bound,
            solver=solve if orbit is None else orbit.solve_abstract,
        )
        record.abstract_seconds = time.perf_counter() - abstract_start

        record.concrete_nodes = len(baseline.node_names)
        record.abstract_nodes = result.abstract_nodes
        record.verdicts = class_verdicts(baseline, abstraction, abstract_context, lifted)
        if orbit is not None:
            orbit.count()
            record.orbit_mapped = list(orbit.mapped)
        return record


def class_verdicts(
    baseline, abstraction: NetworkAbstraction, abstract_context: PropertyContext, lifted: VerdictMap
) -> List[PropertyVerdict]:
    """One :class:`PropertyVerdict` per property of ``baseline``'s suite:
    the concrete and lifted abstract failures, their mismatches and up to
    :data:`MAX_COUNTEREXAMPLES` witnesses from each side."""
    nodes, waypoints = baseline.node_names, baseline.waypoints
    # Explicit waypoint sets are only expressible on the abstract network
    # when they are a union of abstraction groups (f⁻¹(f(W)) == W); the
    # class's own origins always are.  A non-closed set still gets both
    # verdicts, but they are flagged as non-comparable rather than counted
    # as a soundness violation.
    waypoints_closed = True
    if baseline.suite.waypoints is not None:
        closure = {
            str(member)
            for waypoint in waypoints
            if waypoint in abstraction.node_map
            for member in abstraction.concrete_nodes(abstraction.f(waypoint))
        }
        waypoints_closed = closure <= set(waypoints)

    # Counterexamples are evaluated for the failing nodes reported only.
    concrete_context = PropertyContext(
        table=baseline.table, waypoints=waypoints, path_bound=baseline.path_bound
    )
    mismatches = compare_verdicts(baseline.verdicts, lifted)

    verdicts: List[PropertyVerdict] = []
    for spec in baseline.specs:
        comparable = (not spec.uses_waypoints) or waypoints_closed
        note = (
            ""
            if comparable
            else "waypoint set is not a union of abstraction groups; "
            "abstract verdict is informational only"
        )
        concrete_holds = baseline.verdicts[spec.name]
        lifted_holds = lifted[spec.name]
        failing = [
            node for node in nodes if not (concrete_holds[node] and lifted_holds[node])
        ]
        counterexamples: List[Dict] = []
        for node in failing[:MAX_COUNTEREXAMPLES]:
            concrete_witness = failure_witness(spec, concrete_context, (node,))
            abstract_witness = failure_witness(
                spec, abstract_context, abstraction.copies_of(abstraction.f(node))
            )
            counterexamples.append(
                {
                    "node": node,
                    "concrete": (
                        None if concrete_witness is None else concrete_witness.to_dict()
                    ),
                    "abstract": (
                        None
                        if abstract_witness is None
                        else lift_counterexample(abstraction, abstract_witness)
                    ),
                }
            )
        verdicts.append(
            PropertyVerdict(
                property=spec.name,
                nodes_checked=len(nodes),
                concrete_failing=[n for n in failing if not concrete_holds[n]],
                abstract_failing=[n for n in failing if not lifted_holds[n]],
                mismatched=list(mismatches.get(spec.name, [])) if comparable else [],
                counterexamples=counterexamples,
                comparable=comparable,
                note=note,
            )
        )
    return verdicts


# ----------------------------------------------------------------------
# The batch engine
# ----------------------------------------------------------------------
class BatchVerifier:
    """Run a property suite differentially over every equivalence class.

    The per-class work is dispatched through the pipeline's
    :class:`~repro.pipeline.core.ClassFanOut` engine, so it scales over the
    same ``auto`` / ``serial`` / ``process`` executors as compression,
    and the one-time :class:`~repro.pipeline.encoded.EncodedNetwork`
    artifact can be shared between arms.

    ``network``, ``artifact``, ``executor``, ``workers`` and ``limit`` are
    :class:`~repro.pipeline.core.ClassFanOut`'s, which validates them on
    construction.  Plus:

    suite:
        The :class:`PropertySuite` to run (default: the full catalogue).
    timeout_seconds:
        Wall-clock budget.  Classes started after the budget become
        ``timed_out`` marker records; by default :meth:`run` then raises
        :class:`VerificationTimeout` carrying the
        partial report on its ``partial`` attribute (pass
        ``raise_on_timeout=False`` to get the flagged report back instead
        -- the timeout is reported either way, never swallowed).
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        suite: Optional[PropertySuite] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        limit: Optional[int] = None,
        timeout_seconds: Optional[float] = None,
    ):
        self._fanout = ClassFanOut(
            network,
            artifact=artifact,
            task="verify",
            executor=executor,
            workers=workers,
            limit=limit,
        )
        self.network = self._fanout.network
        self.suite = suite or PropertySuite.default()
        self.timeout_seconds = timeout_seconds
        #: What the class tasks get as ``options["baseline"]``: a
        #: :class:`~repro.api.Session` puts the
        #: :class:`~repro.pipeline.perturb.WarmBaselines` it keeps here.
        self.warm = None

    def run(self, raise_on_timeout: bool = True) -> VerificationReport:
        """Verify every class and aggregate the differential verdicts."""
        fanout = self._fanout
        fanout.task_options = self.suite.to_options()
        if self.timeout_seconds is not None:
            fanout.task_options["deadline"] = time.time() + self.timeout_seconds
        if self.warm is not None:
            fanout.task_options["baseline"] = self.warm
        report = fanout.run_report(
            partial(
                VerificationReport,
                properties=list(self.suite.names),
                path_bound=self.suite.path_bound,
            )
        )
        skipped = sum(1 for record in report.iter_records() if record.timed_out)
        report.timed_out = skipped > 0
        if report.timed_out and raise_on_timeout:
            raise VerificationTimeout(
                f"batch verification of {report.network_name} exceeded "
                f"{self.timeout_seconds}s ({skipped}/{report.record_count()} classes "
                f"not checked)",
                partial=report,
            )
        return report
