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
same serial/process/auto executors as compression itself.

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
import json
import time
from dataclasses import asdict, dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.abstraction.mapping import NetworkAbstraction
from repro.analysis.dataplane import compute_forwarding_table, forwarding_table_from_solution
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
from repro.analysis.verifier import VerificationTimeout
from repro.config.network import Network
from repro.obs import trace
from repro.pipeline.core import EXECUTORS, ClassFanOut
from repro.pipeline.encoded import EncodedNetwork
from repro.reporting import ReportEnvelope, register_report, report_dict
from repro.srp.solver import solve

#: Format version for the JSON verification reports.
VERIFICATION_REPORT_VERSION = 1

#: Structured counterexamples kept per property per class (the failing
#: node *lists* are always complete; only the path-level witnesses are
#: capped to keep reports small).
MAX_COUNTEREXAMPLES = 3


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
@register_report
@dataclass
class VerificationReport(ReportEnvelope):
    """Run-level aggregation of every per-class verification record.

    ``speedup`` is the paper-style headline number: total concrete
    verification seconds over total abstract seconds, where the abstract
    side *includes* the compression time (as in Figure 12).
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
        return sum(r.concrete_seconds for r in self.records)

    @property
    def abstract_seconds(self) -> float:
        return sum(r.abstract_seconds for r in self.records)

    @property
    def speedup(self) -> Optional[float]:
        if self.abstract_seconds <= 0:
            return None
        return self.concrete_seconds / self.abstract_seconds

    def verdicts_agree(self) -> bool:
        """The executable soundness theorem: no node disagrees anywhere."""
        return all(record.agrees() for record in self.records)

    def mismatches(self) -> List[Tuple[str, str, List[str]]]:
        """Every divergence as ``(prefix, property, nodes)`` triples."""
        out = []
        for record in self.records:
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
        for record in self.records:
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
            for record in sorted(self.records, key=lambda r: r.prefix)
        )

    def ok(self) -> bool:
        """The report-level gate: verdicts agree and nothing timed out."""
        return self.verdicts_agree() and not self.timed_out

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict:
        data = report_dict(self, [asdict(record) for record in self.records])
        data.update(self.envelope_dict())
        data["aggregate"] = {
            "concrete_seconds": self.concrete_seconds,
            "abstract_seconds": self.abstract_seconds,
            "speedup": self.speedup,
            "verdicts_agree": self.verdicts_agree(),
            "property_totals": self.property_totals(),
        }
        return data

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_dict(cls, data: Dict) -> "VerificationReport":
        payload = cls.strip_envelope(data)
        payload.pop("aggregate", None)
        records = []
        for raw in payload.pop("records", []):
            raw = dict(raw)
            verdicts = [PropertyVerdict(**verdict) for verdict in raw.pop("verdicts", [])]
            records.append(ClassVerificationRecord(verdicts=verdicts, **raw))
        return cls(records=records, **payload)

    @classmethod
    def from_json(cls, text: str) -> "VerificationReport":
        return cls.from_dict(json.loads(text))

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


def _abstract_waypoints(
    abstraction: NetworkAbstraction, waypoints: FrozenSet[str]
) -> FrozenSet[str]:
    lifted = set()
    for waypoint in waypoints:
        if waypoint not in abstraction.node_map:
            continue
        for copy in abstraction.copies_of(abstraction.f(waypoint)):
            lifted.add(copy)
    return frozenset(lifted)


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


def verify_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Differentially verify one equivalence class (the ``"verify"`` task).

    Steps: simulate the concrete forwarding table, evaluate every suite
    property on every node; compress the class (``build_network=True``),
    simulate the abstract forwarding table, evaluate the same properties
    on the abstract nodes and lift the verdicts back to concrete nodes via
    the abstraction mapping; record failures, mismatches and structured
    counterexamples.

    A ``deadline`` (epoch seconds) in ``options`` turns classes reached
    after the budget into ``timed_out`` marker records instead of silently
    dropping them.
    """
    with trace.span("verify", cls=str(equivalence_class.prefix)):
        suite = PropertySuite.from_options(options)
        deadline = options.get("deadline")
        prefix = equivalence_class.prefix
        origins = sorted(str(origin) for origin in equivalence_class.origins)

        if deadline is not None and time.time() >= deadline:
            return ClassVerificationRecord(
                prefix=str(prefix),
                origins=origins,
                concrete_nodes=0,
                abstract_nodes=0,
                concrete_seconds=0.0,
                abstract_seconds=0.0,
                compression_seconds=0.0,
                timed_out=True,
            )

        network: Network = bonsai.network
        nodes = sorted(network.graph.nodes, key=str)
        waypoints = waypoints_for(suite, equivalence_class)
        path_bound = (
            suite.path_bound if suite.path_bound is not None else network.graph.num_nodes()
        )
        specs = suite.specs()

        # -- concrete side ---------------------------------------------------
        concrete_start = time.perf_counter()
        # ``compute_forwarding_table`` on the SRP the compression below
        # refines: one compilation, and the per-``Bonsai`` class invariants
        # instead of a walk over every device's communities per class.
        concrete_srp = bonsai.concrete_srp(equivalence_class)
        concrete_table = forwarding_table_from_solution(
            network, solve(concrete_srp), equivalence_class
        )
        concrete_verdicts = evaluate_suite(specs, concrete_table, nodes, waypoints, path_bound)
        concrete_seconds = time.perf_counter() - concrete_start

        # -- abstract side (compression included in the timing) --------------
        abstract_start = time.perf_counter()
        result = bonsai.compress(equivalence_class, build_network=True, srp=concrete_srp)
        abstraction = result.abstraction
        abstract_network = result.abstract_network
        abstract_ec = next(
            candidate
            for candidate in routable_equivalence_classes(abstract_network)
            if candidate.prefix.overlaps(prefix)
        )
        abstract_table = compute_forwarding_table(abstract_network, abstract_ec)
        abstract_waypoints = _abstract_waypoints(abstraction, waypoints)
        # Every property on every abstract node *inside* the timed window,
        # so abstract_seconds measures compression + abstract verification
        # only; the differential comparison below (which scales with the
        # concrete node count) is untimed -- otherwise the reported speedup
        # would measure harness overhead.
        abstract_verdicts = evaluate_suite(
            specs, abstract_table, sorted(abstract_network.graph.nodes, key=str),
            abstract_waypoints, path_bound,
        )
        abstract_seconds = time.perf_counter() - abstract_start

        # Explicit waypoint sets are only expressible on the abstract network
        # when they are a union of abstraction groups (f⁻¹(f(W)) == W); the
        # class's own origins always are.  A non-closed set still gets both
        # verdicts, but they are flagged as non-comparable rather than counted
        # as a soundness violation.
        waypoints_closed = True
        if suite.waypoints is not None:
            closure = {
                str(member)
                for waypoint in waypoints
                if waypoint in abstraction.node_map
                for member in abstraction.concrete_nodes(abstraction.f(waypoint))
            }
            waypoints_closed = closure <= set(waypoints)

        # Counterexamples are evaluated for the failing nodes reported only.
        concrete_context = PropertyContext(
            table=concrete_table, waypoints=waypoints, path_bound=path_bound
        )
        abstract_context = PropertyContext(
            table=abstract_table, waypoints=abstract_waypoints, path_bound=path_bound
        )
        lifted_verdicts = lift_verdicts(abstraction, specs, abstract_verdicts, nodes)

        verdicts: List[PropertyVerdict] = []
        for spec in specs:
            comparable = (not spec.uses_waypoints) or waypoints_closed
            note = (
                ""
                if comparable
                else "waypoint set is not a union of abstraction groups; "
                "abstract verdict is informational only"
            )
            concrete_holds = concrete_verdicts[spec.name]
            lifted_holds = lifted_verdicts[spec.name]
            failing = [
                node for node in nodes
                if not (concrete_holds[str(node)] and lifted_holds[str(node)])
            ]
            counterexamples: List[Dict] = []
            for node in failing[:MAX_COUNTEREXAMPLES]:
                concrete_witness = failure_witness(spec, concrete_context, (node,))
                abstract_witness = failure_witness(
                    spec, abstract_context, abstraction.copies_of(abstraction.f(node))
                )
                counterexamples.append(
                    {
                        "node": str(node),
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
            names = [str(node) for node in failing]
            concrete_failing = [name for name in names if not concrete_holds[name]]
            abstract_failing = [name for name in names if not lifted_holds[name]]
            mismatched = [
                name for name in names if concrete_holds[name] != lifted_holds[name]
            ] if comparable else []
            verdicts.append(
                PropertyVerdict(
                    property=spec.name,
                    nodes_checked=len(nodes),
                    concrete_failing=concrete_failing,
                    abstract_failing=abstract_failing,
                    mismatched=mismatched,
                    counterexamples=counterexamples,
                    comparable=comparable,
                    note=note,
                )
            )

        return ClassVerificationRecord(
            prefix=str(prefix),
            origins=origins,
            concrete_nodes=network.graph.num_nodes(),
            abstract_nodes=result.abstract_nodes,
            concrete_seconds=concrete_seconds,
            abstract_seconds=abstract_seconds,
            compression_seconds=result.compression_seconds,
            verdicts=verdicts,
        )



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

    Parameters mirror :class:`~repro.pipeline.core.ClassFanOut`, plus:

    suite:
        The :class:`PropertySuite` to run (default: the full catalogue).
    timeout_seconds:
        Wall-clock budget.  Classes started after the budget become
        ``timed_out`` marker records; by default :meth:`run` then raises
        :class:`~repro.analysis.verifier.VerificationTimeout` carrying the
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
        use_bdds: bool = True,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        self.suite = suite or PropertySuite.default()
        self.timeout_seconds = timeout_seconds
        self._fanout_kwargs = dict(
            artifact=artifact,
            executor=executor,
            workers=workers,
            limit=limit,
            use_bdds=use_bdds,
        )
        self.network = network
        self.executor = executor
        self.workers = workers

    def run(self, raise_on_timeout: bool = True) -> VerificationReport:
        """Verify every class and aggregate the differential verdicts."""
        from repro import obs

        counters_before = obs.snapshot_run()
        start = time.perf_counter()
        options = self.suite.to_options()
        if self.timeout_seconds is not None:
            options["deadline"] = time.time() + self.timeout_seconds
        fanout = ClassFanOut(
            self.network,
            task="verify",
            task_options=options,
            **self._fanout_kwargs,
        )
        records: List[ClassVerificationRecord] = fanout.execute()
        artifact = fanout.artifact
        num_classes = len(fanout.last_classes)
        report = VerificationReport(
            network_name=fanout.network.name,
            executor=self.executor,
            workers=1 if self.executor == "serial" else fanout.workers,
            num_classes=num_classes,
            properties=list(self.suite.names),
            path_bound=self.suite.path_bound,
            encode_seconds=artifact.encode_seconds,
            total_seconds=time.perf_counter() - start,
            records=records,
            timed_out=any(record.timed_out for record in records),
        )
        obs.finish_run(report, counters_before, fanout.last_selection)
        if report.timed_out and raise_on_timeout:
            skipped = sum(1 for record in records if record.timed_out)
            raise VerificationTimeout(
                f"batch verification of {report.network_name} exceeded "
                f"{self.timeout_seconds}s ({skipped}/{len(records)} classes "
                f"not checked)",
                partial=report,
            )
        return report


def verify_network(
    network: Network,
    properties: Optional[Sequence[str]] = None,
    **kwargs,
) -> VerificationReport:
    """One-call batch verification (serial by default).

    ``properties`` selects registry names; remaining keyword arguments are
    forwarded to :class:`BatchVerifier`.
    """
    suite = (
        PropertySuite.default()
        if properties is None
        else PropertySuite.from_names(properties)
    )
    kwargs.setdefault("executor", "serial")
    return BatchVerifier(network, suite=suite, **kwargs).run()
