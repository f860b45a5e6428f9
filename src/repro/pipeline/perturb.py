"""The perturbation engine shared by failure sweeps and change sweeps.

The paper's guarantee -- an effective abstraction keeps abstract and
concrete control-plane solutions in correspondence -- does not care
whether the concrete network was perturbed by a link going down or by an
operator editing a config.  Neither does this module: it holds everything
a sweep of *perturbations x destination classes* needs regardless of the
perturbation's kind, and :mod:`repro.failures.sweep` /
:mod:`repro.delta.sweep` are thin kinds on top of it.

A kind supplies three things, inside its own per-class task loop:

* **apply** -- the perturbed network for one unit (a failure view that
  shares device configs by identity; a copy-on-write changed network);
* **diff** -- what the unit removed/added/changed, handed to the seeded
  re-solve (:func:`repro.failures.incremental.incremental_resolve` /
  :func:`repro.delta.incremental.delta_resolve`, one body);
* **abstraction decision** -- whether the baseline Bonsai abstraction
  still stands for the perturbed network (a failure's structural
  representability; a change's refinement-signature match), the reuse
  side it is checked on, and the ``Bonsai`` a re-compression runs on.

Everything else is here, once: the outcome/record/report base classes
(every aggregate, the wire format, the summary head), the abstraction
check both kinds' decisions feed (:func:`check_abstraction`: reuse or
re-compress, lift, compare, one :class:`AbstractionCheck`), the per-class
baseline prologue with its scratch-oracle bookkeeping and verdict-delta
and witness tail (:class:`TaskBaseline`), and the sweep driver
(:class:`PerturbationSweep`).  The shared code reads each
kind's field and aggregate names (``scenario`` vs ``step``,
``soundness`` vs ``reuse``) from class attributes of the kind's view
classes, so the two JSON report formats stay exactly what they were.

This module must not import :mod:`repro.failures` or :mod:`repro.delta`:
both import it.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import (
    Callable, ClassVar, Dict, FrozenSet, List, NamedTuple, Optional, Sequence, Tuple,
)

from repro.abstraction.bonsai import CompressionResult
from repro.abstraction.ec import EquivalenceClass
from repro.abstraction.equivalence import build_abstract_srp
from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.orbit import ClassOrbit
from repro.analysis.batch import PropertySuite, abstract_arm, compare_verdicts, waypoints_for
from repro.analysis.dataplane import ForwardingTable, forwarding_table_from_solution
from repro.analysis.properties import (
    PropertyContext,
    PropertySpec,
    VerdictMap,
    evaluate_suite,
    failure_witness,
    verdict_delta,
)
from repro.config.network import Network
from repro.pipeline.core import ClassFanOut
from repro.reporting import ReportEnvelope, StreamingReport
from repro.srp.instance import SRP
from repro.srp.solution import Solution
from repro.srp.solver import ConvergenceError, TransferCache, solve, solve_seeded

# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class PerturbationOutcome:
    """What every (equivalence class, perturbation unit) pair records.

    A kind's outcome class adds its own fields and names three of them:
    ``NAME_FIELD`` (the unit's name), ``HELD_FIELD`` (did the baseline
    abstraction stand: ``None`` when unchecked or unroutable) and
    ``CHECK_FIELD`` (the abstraction check's wire dict).
    """

    #: Kind-specific fields that belong in :meth:`canonical`.
    CANONICAL_FIELDS: ClassVar[Tuple[str, ...]] = ()

    #: Nothing originates the class any more: nothing is solved, and every
    #: property trivially fails on every remaining node.
    unroutable: bool = False
    #: Whether the seeded incremental path produced the solution (False
    #: when the origin set changed, the seed could not converge, or the
    #: unit was unroutable).
    incremental_used: bool = False
    #: Incremental labeling is identical to the scratch oracle's (``None``
    #: when the oracle was skipped or incremental did not run).
    incremental_matches_scratch: Optional[bool] = None
    divergent: List[str] = field(default_factory=list)
    incremental_seconds: float = 0.0
    scratch_seconds: float = 0.0
    tainted: int = 0
    dirty: int = 0
    #: Per-property verdict delta vs. the unperturbed baseline, over the
    #: nodes the perturbed network still has.
    newly_failing: Dict[str, List[str]] = field(default_factory=dict)
    newly_passing: Dict[str, List[str]] = field(default_factory=dict)
    #: One structured counterexample (offending path/cycle) per newly
    #: broken property, from its first failing node.
    witnesses: Dict[str, Dict] = field(default_factory=dict)

    @property
    def name(self) -> str:
        return getattr(self, self.NAME_FIELD)

    @property
    def abstraction_held(self) -> Optional[bool]:
        return getattr(self, self.HELD_FIELD)

    @property
    def abstraction_check(self) -> Optional[Dict]:
        return getattr(self, self.CHECK_FIELD)

    def abstract_agrees(self) -> Optional[bool]:
        check = self.abstraction_check
        return None if check is None else check.get("agrees")

    def record_check(self, check: "AbstractionCheck", wire: Dict[str, object]) -> None:
        """Write ``check`` under the kind's ``HELD_FIELD`` and, as a wire
        dict with the kind's own ``wire`` keys added, its ``CHECK_FIELD``."""
        setattr(self, self.HELD_FIELD, check.held)
        setattr(self, self.CHECK_FIELD, {**check.to_dict(self.HELD_FIELD), **wire})

    def canonical(self) -> Tuple:
        """Timing-free outcome, for executor-parity comparisons."""
        return (
            self.name,
            self.unroutable,
            self.incremental_matches_scratch,
            self.abstract_agrees(),
            tuple(getattr(self, name) for name in self.CANONICAL_FIELDS),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_failing.items())),
            tuple(sorted((k, tuple(v)) for k, v in self.newly_passing.items())),
        )


@dataclass
class ClassPerturbationRecord:
    """All unit outcomes for one destination equivalence class.

    A kind's record class adds the outcome list itself under its own wire
    name and points ``OUTCOMES_FIELD`` / ``OUTCOME_CLASS`` at it.
    """

    prefix: str
    origins: List[str]
    baseline_seconds: float
    compression_seconds: float
    baseline_failing: Dict[str, List[str]] = field(default_factory=dict)

    @property
    def outcomes(self) -> List[PerturbationOutcome]:
        return getattr(self, self.OUTCOMES_FIELD)

    def canonical(self) -> Tuple:
        return (
            self.prefix,
            tuple(self.origins),
            tuple(sorted((k, tuple(v)) for k, v in self.baseline_failing.items())),
            tuple(outcome.canonical() for outcome in self.outcomes),
        )


@dataclass(kw_only=True)
class PerturbationReport(StreamingReport, ReportEnvelope):
    """Run-level aggregation of a perturbation sweep.

    A kind's report class adds its own header fields and names the parts
    of the wire format that differ: ``RECORD_CLASS``, ``NAMES_FIELD``
    (the header list of unit names, in sweep order), the aggregate
    block's keys (``CHECK_KEY`` / ``HELD_KEY`` / ``FIRST_BREAK_KEY`` /
    ``BREAK_COUNTS_KEY``) and ``UNIT_NOUN`` (what the summary calls one
    unit).
    """

    network_name: str
    executor: str
    workers: int
    num_classes: int
    properties: List[str]
    path_bound: Optional[int]
    oracle: bool
    encode_seconds: float
    total_seconds: float
    records: List[ClassPerturbationRecord] = field(default_factory=list)
    #: Peak resident set of the producing run in MiB, when measured
    #: (``--memory-budget`` runs and the scale benchmark fill this).
    peak_rss_mb: Optional[float] = None

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    def _outcomes(self):
        for record in self.iter_records():
            for outcome in record.outcomes:
                yield record, outcome

    def _rank(self) -> Callable[[str], int]:
        """Sweep-order position of a unit name (unnamed units sort last)."""
        order = {name: i for i, name in enumerate(getattr(self, self.NAMES_FIELD))}
        return lambda name: order.get(name, 1 << 30)

    @property
    def incremental_seconds(self) -> float:
        return sum(o.incremental_seconds for _, o in self._outcomes())

    @property
    def scratch_seconds(self) -> float:
        return sum(o.scratch_seconds for _, o in self._outcomes())

    @property
    def incremental_speedup(self) -> Optional[float]:
        """Scratch-vs-incremental wall-clock ratio over compared units."""
        compared = [
            o for _, o in self._outcomes() if o.incremental_used and o.scratch_seconds > 0
        ]
        inc = sum(o.incremental_seconds for o in compared)
        scratch = sum(o.scratch_seconds for o in compared)
        if inc <= 0 or scratch <= 0:
            return None
        return scratch / inc

    def incremental_all_match(self) -> bool:
        """Every compared unit re-solved bit-identically to scratch."""
        return all(
            o.incremental_matches_scratch is not False for _, o in self._outcomes()
        )

    def incremental_divergences(self) -> List[Tuple[str, str, List[str]]]:
        return [
            (record.prefix, outcome.name, list(outcome.divergent))
            for record, outcome in self._outcomes()
            if outcome.incremental_matches_scratch is False
        ]

    def abstraction_counts(self) -> Dict[str, int]:
        """How (class, unit) pairs fared against the baseline abstraction:
        checked, held (under the kind's ``HELD_KEY``), re-compressed, and
        lifted-vs-concrete verdict disagreements."""
        counts = {"checked": 0, self.HELD_KEY: 0, "recompressed": 0, "disagreed": 0}
        for _, outcome in self._outcomes():
            held = outcome.abstraction_held
            if held is None:
                continue
            counts["checked"] += 1
            if held:
                counts[self.HELD_KEY] += 1
            if (outcome.abstraction_check or {}).get("recompressed"):
                counts["recompressed"] += 1
            if outcome.abstract_agrees() is False:
                counts["disagreed"] += 1
        return counts

    def abstraction_disagreements(self) -> List[Tuple[str, str, Dict]]:
        return [
            (record.prefix, outcome.name, dict(outcome.abstraction_check or {}))
            for record, outcome in self._outcomes()
            if outcome.abstract_agrees() is False
        ]

    def first_break(self) -> Dict[str, Optional[str]]:
        """Per property: the first unit (sweep order) breaking it anywhere."""
        rank = self._rank()
        first: Dict[str, Optional[str]] = {name: None for name in self.properties}
        for _, outcome in self._outcomes():
            for prop, nodes in outcome.newly_failing.items():
                if not nodes:
                    continue
                current = first.get(prop)
                if current is None or rank(outcome.name) < rank(current):
                    first[prop] = outcome.name
        return first

    def break_counts(self) -> Dict[str, int]:
        """Per property: how many (class, unit) pairs newly break it."""
        counts = {name: 0 for name in self.properties}
        for _, outcome in self._outcomes():
            for prop, nodes in outcome.newly_failing.items():
                if nodes:
                    counts[prop] = counts.get(prop, 0) + 1
        return counts

    def ok(self) -> bool:
        """The sweep-level gate: no divergence, no abstract disagreement."""
        return self.incremental_all_match() and not self.abstraction_disagreements()

    def canonical_records(self) -> Tuple[Tuple, ...]:
        return tuple(
            record.canonical()
            for record in sorted(self.iter_records(), key=lambda r: r.prefix)
        )

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def record_from_payload(cls, payload: Dict) -> ClassPerturbationRecord:
        raw = dict(payload)
        record_class = cls.RECORD_CLASS
        raw[record_class.OUTCOMES_FIELD] = [
            record_class.OUTCOME_CLASS(**outcome)
            for outcome in raw.get(record_class.OUTCOMES_FIELD, [])
        ]
        return record_class(**raw)

    def aggregate(self) -> Dict[str, object]:
        """The ``aggregate`` block of :meth:`to_dict` (kinds add to it)."""
        return {
            "incremental_seconds": self.incremental_seconds,
            "scratch_seconds": self.scratch_seconds,
            "incremental_speedup": self.incremental_speedup,
            "incremental_all_match": self.incremental_all_match(),
            self.CHECK_KEY: self.abstraction_counts(),
            self.FIRST_BREAK_KEY: self.first_break(),
            self.BREAK_COUNTS_KEY: self.break_counts(),
        }

    @classmethod
    def from_dict(cls, data: Dict):
        # ``version`` is each kind's own field; its default is the version
        # this build writes, and the only one it reads.
        version = data.get("version", cls.version)
        if version != cls.version:
            raise ValueError(
                f"{cls.kind} report version {version!r}: this build reads "
                f"version {cls.version}"
            )
        return super().from_dict(data)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def _summary_head(self, shape: str, oracle_line: str) -> List[str]:
        """The lines every kind's summary opens with; ``shape`` says what
        was swept, ``oracle_line`` compares the two re-solve arms."""
        lines = [
            f"network: {self.network_name}",
            self.executor_line(),
            shape,
            f"properties: {', '.join(self.properties)}",
        ]
        if self.oracle:
            lines.append(oracle_line)
            lines.append(
                "incremental labelings IDENTICAL to the scratch oracle"
                if self.incremental_all_match()
                else f"INCREMENTAL DIVERGED: {self.incremental_divergences()}"
            )
        return lines

    def _summary_breaks(self) -> List[str]:
        first = self.first_break()
        return [
            f"  {prop}: "
            + (
                f"survives every {self.UNIT_NOUN}"
                if first.get(prop) is None
                else f"first broken by {first[prop]}"
            )
            for prop in self.properties
        ]


# ----------------------------------------------------------------------
# The abstraction check
# ----------------------------------------------------------------------
@dataclass
class AbstractionCheck:
    """Whether the baseline abstraction stood for one perturbed unit, and
    the differential comparison against whichever abstraction was used."""

    #: The kind's decision: the baseline abstraction stands for the
    #: perturbed network, so the check ran against it.
    held: bool
    #: Why not, when it did not ("" when it did).
    reason: str = ""
    #: The check ran against a re-compression of the perturbed network.
    recompressed: bool = False
    #: Differential result: lifted abstract verdicts equal concrete ones.
    agrees: Optional[bool] = None
    #: ``{property: [nodes]}`` where they do not.
    mismatched: Dict[str, List[str]] = field(default_factory=dict)
    #: Abstract node count of whichever abstraction was checked against.
    abstract_nodes: int = 0
    #: The reuse side's lifted verdicts, when it held (not serialised: a
    #: kind hands them to later units whose reuse side is this unit's).
    lifted: Optional[VerdictMap] = field(default=None, repr=False)

    def to_dict(self, held_key: str) -> Dict[str, object]:
        return {
            held_key: self.held,
            "reason": self.reason,
            "recompressed": self.recompressed,
            "agrees": self.agrees,
            "mismatched": dict(self.mismatched),
            "abstract_nodes": self.abstract_nodes,
        }


class AbstractSide(NamedTuple):
    """An abstraction a check compares against: the partition, its abstract
    node count, and its abstract SRP's builder (called only when the
    lifted verdicts are not already known)."""

    abstraction: NetworkAbstraction
    abstract_nodes: int
    abstract_srp: Callable[[], SRP]

    @classmethod
    def of(cls, result: CompressionResult) -> "AbstractSide":
        return cls(
            result.abstraction,
            result.abstract_nodes,
            partial(build_abstract_srp, result.concrete_srp, result.abstraction),
        )


def check_abstraction(
    reason: str,
    reuse: Callable[[], AbstractSide],
    recompress: Callable[[], CompressionResult],
    concrete_verdicts: VerdictMap,
    specs: Sequence[PropertySpec],
    nodes: Sequence[str],
    waypoints: FrozenSet[str],
    path_bound: int,
    lifted: Optional[VerdictMap] = None,
) -> AbstractionCheck:
    """Check one perturbed unit against the baseline abstraction or, when
    the kind's decision gives a ``reason`` it does not stand, against a
    re-compression of the perturbed network.

    ``reuse()`` is the kind's baseline side; ``recompress()`` compresses
    the perturbed class.  Either way the abstract verdicts are lifted to
    ``nodes`` (:func:`~repro.analysis.batch.abstract_arm`, the verifier's
    own abstract side) and compared with ``concrete_verdicts``, the
    perturbed network's, so a wrong decision surfaces as ``agrees=False``
    rather than passing silently.  ``lifted`` hands in the reuse side's
    lifted verdicts when an earlier unit has them: its abstract SRP is
    then neither built nor solved.
    """
    held = not reason
    if held:
        side = reuse()
    else:
        side, lifted = AbstractSide.of(recompress()), None
    if lifted is None:
        _, lifted = abstract_arm(
            side.abstraction, side.abstract_srp(), specs, nodes, waypoints, path_bound
        )
    mismatched = compare_verdicts(concrete_verdicts, lifted)
    return AbstractionCheck(
        held=held,
        reason=reason,
        recompressed=not held,
        agrees=not mismatched,
        mismatched=mismatched,
        abstract_nodes=side.abstract_nodes,
        lifted=lifted if held else None,
    )


# ----------------------------------------------------------------------
# The per-class task's shared halves (run inside pipeline workers)
# ----------------------------------------------------------------------
class TaskBaseline:
    """One class solved and evaluated on the unperturbed network: the
    verify task's concrete side, and what every unit of a failure or
    change task is compared against.

    ``stored`` (the class's :class:`~repro.store.artifact.ClassBaseline`)
    supplies the labeling without a scratch solve: a zero-dirty seeded
    solve validates it against the live SRP (the no-update round plus the
    O(E) stability scan, every offer a hit in the stored transfer memo).
    A labeling that does not validate (``ConvergenceError``) falls back to
    the scratch solve and leaves :attr:`stored` ``None``.  The scratch
    solve is ``solver``: the cold verify task hands in its class orbit's
    (:mod:`repro.abstraction.orbit`), which may map the solution from a
    symmetric class instead, and :meth:`compression` takes the partition
    through that orbit too.

    Read-only once built, because a :class:`WarmBaselines` hands one
    instance to every request thread of a service: the methods write only
    into the ``outcome`` they are handed, and the seeded re-solves copy
    the solution's transfer memo before use.  (:attr:`index`, built on
    first use, and :attr:`check`, set by the first unit that runs it,
    hold one result each: racing threads may both build it, equal
    results, last wins.)

    Building the baseline opens no span of its own, so a trace shows its
    time as the class span's self time.
    """

    def __init__(
        self,
        bonsai,
        equivalence_class: EquivalenceClass,
        options: dict,
        stored=None,
        solver: Callable[[SRP], Solution] = solve,
    ):
        self.equivalence_class = equivalence_class
        self.network = network = bonsai.network
        self.suite = suite = PropertySuite.from_options(options)
        self.specs = suite.specs()
        nodes = sorted(network.graph.nodes, key=str)
        self.node_names = [str(n) for n in nodes]
        self.path_bound = (
            suite.path_bound if suite.path_bound is not None else network.graph.num_nodes()
        )
        self.waypoints = waypoints_for(suite, equivalence_class)
        srp = bonsai.concrete_srp(equivalence_class)
        solution = None
        if stored is not None:
            try:
                memo = TransferCache().seeded_from(stored.transfer_memo)
                solution = solve_seeded(srp, stored.labeling, dirty=(), transfer_cache=memo)
            except ConvergenceError:
                stored = None
        #: The stored baseline the labeling was validated from, if any.
        self.stored = stored
        #: The stored compression, standing in for compressing anew.
        self.stored_compression = None if stored is None else stored.compression
        #: The kind's abstraction check of the unperturbed network against
        #: :attr:`stored_compression`, lifted verdicts included, once a unit
        #: whose SRP is the baseline's has run it.
        self.check = None
        self.solution: Solution = solution if solution is not None else solver(srp)
        #: The unperturbed forwarding table (the verify task's witnesses).
        self.table = forwarding_table_from_solution(self.solution, equivalence_class)
        self.verdicts = evaluate_suite(
            self.specs, self.table, nodes, self.waypoints, self.path_bound
        )
        if stored is not None:
            # Every reader copies the memo before solving and validation hit
            # only entries the artifact holds: keep its dict, not our copy.
            self.solution.transfer_cache = stored.transfer_memo

    def compression(self, bonsai, orbit=None) -> Tuple[CompressionResult, float]:
        """The class's compression and the seconds it cost here: the
        stored one, or compressed anew through the class's orbit
        (``orbit``: the one its solve went through, if any; the partition,
        no configured abstract network is emitted)."""
        if self.stored_compression is not None:
            return self.stored_compression, 0.0
        if orbit is None:
            orbit = ClassOrbit(bonsai, self.equivalence_class)
        result = orbit.compress(self.solution.srp)
        return result, result.compression_seconds

    @cached_property
    def index(self):
        """Forwarding views of :attr:`solution` for the units' taint
        queries, built on the first one (the verify task never asks)."""
        # failures imports this module; by the time a unit asks it is loaded.
        from repro.failures.incremental import BaselineIndex

        return BaselineIndex.from_solution(self.solution)

    def record_fields(self) -> Dict[str, object]:
        """The :class:`ClassPerturbationRecord` fields the baseline fixes."""
        return dict(
            prefix=str(self.equivalence_class.prefix),
            origins=sorted(str(origin) for origin in self.equivalence_class.origins),
            baseline_failing={
                prop: [n for n in self.node_names if not per_node[n]]
                for prop, per_node in self.verdicts.items()
            },
        )

    def resolve(
        self,
        outcome: PerturbationOutcome,
        build_srp: Callable,
        seeded: Optional[Callable],
        oracle: bool,
    ) -> Solution:
        """Solve one unit's perturbed SRP, recording both arms on ``outcome``.

        ``seeded()`` runs the kind's incremental re-solve and returns its
        :class:`~repro.failures.incremental.IncrementalSolve`; pass
        ``None`` when the SRP's destination structure (virtual node,
        initial edges) no longer lines up with the seed's, so the scratch
        result has to stand; a unit whose SRP provably *is* the seed's hands
        back the seed's own solution, unsolved (:meth:`carry_forward`).  The
        scratch arm runs whenever it is the answer or the ``oracle`` option
        asks for the label-for-label comparison; it stays cold on purpose
        (it is the "what a fresh solve costs" yardstick).
        """
        scratch = None
        if oracle or seeded is None:
            scratch_srp = build_srp()
            scratch_start = time.perf_counter()
            scratch = solve(scratch_srp)
            outcome.scratch_seconds = time.perf_counter() - scratch_start
        if seeded is None:
            return scratch
        result = seeded()
        solution = result.solution
        outcome.incremental_used = result.incremental_used
        outcome.incremental_seconds = result.seconds
        outcome.tainted = len(result.tainted)
        outcome.dirty = result.dirty_count
        if scratch is not None:
            labels, oracle_labels = solution.labeling, scratch.labeling
            matches = outcome.incremental_matches_scratch = labels == oracle_labels
            if not matches:
                outcome.divergent = sorted(
                    str(n)
                    for n in set(labels) | set(oracle_labels)
                    if labels.get(n) != oracle_labels.get(n)
                )
        return solution

    def carry_forward(
        self, outcome: PerturbationOutcome, seed: Optional[PerturbationOutcome]
    ) -> None:
        """Answer a unit whose SRP provably equals an earlier unit's
        (``seed``; ``None``: the baseline's own) with that unit's answer.

        The kind supplies the predicate -- same class, node set, origin
        set and waypoints, no edge differing -- and, from its re-solve,
        the seed's own solution; the forwarding table, the verdicts (the
        kind holds the seed's), the verdict delta and the witnesses are
        functions of inputs that did not change.  They are taken by
        reference; nothing is extracted or evaluated."""
        if seed is not None:
            outcome.newly_failing = seed.newly_failing
            outcome.newly_passing = seed.newly_passing
            outcome.witnesses = dict(seed.witnesses)

    def _compare(self, outcome, table, network, waypoints, surviving) -> VerdictMap:
        verdicts = evaluate_suite(
            self.specs, table, network.graph.nodes, waypoints, self.path_bound
        )
        outcome.newly_failing, outcome.newly_passing = verdict_delta(
            self.verdicts, verdicts, surviving
        )
        return verdicts

    def mark_unroutable(
        self, outcome: PerturbationOutcome, network: Network, waypoints, surviving
    ) -> None:
        """Nothing originates the class on ``network`` any more: there is
        no control plane to solve, and every property trivially fails on
        every ``surviving`` node."""
        outcome.unroutable = True
        empty = ForwardingTable(
            destination=self.equivalence_class.prefix,
            origins=set(),
            next_hops={node: set() for node in network.graph.nodes},
        )
        self._compare(outcome, empty, network, waypoints, surviving)

    def record_verdicts(
        self,
        outcome: PerturbationOutcome,
        network: Network,
        solution: Solution,
        equivalence_class: EquivalenceClass,
        waypoints: FrozenSet[str],
        surviving: Sequence[str],
    ) -> VerdictMap:
        """Evaluate the suite on the perturbed solution; record the verdict
        delta vs. the baseline over ``surviving`` and one witness per newly
        broken property.  Returns the perturbed network's verdicts (the
        abstraction check compares lifted abstract verdicts against them)."""
        table = forwarding_table_from_solution(solution, equivalence_class)
        verdicts = self._compare(outcome, table, network, waypoints, surviving)
        if outcome.newly_failing:
            context = PropertyContext(
                table=table, waypoints=waypoints, path_bound=self.path_bound
            )
            for spec in self.specs:
                broken = outcome.newly_failing.get(spec.name, ())
                witness = failure_witness(spec, context, broken[:1])
                if witness is not None:
                    outcome.witnesses[spec.name] = witness.to_dict()
        return verdicts


class WarmBaselines:
    """A stored artifact's per-class baselines as the class tasks get them
    (``options["baseline"]``), plus every :class:`TaskBaseline` validated
    from them so far, keyed by class and property suite.

    A sweep over a :class:`~repro.store.BaselineArtifact` makes one for
    its run; a :class:`~repro.api.Session` keeps one for its life (its
    network never changes), so validating the stored labeling, the
    baseline verdicts and the forwarding index are paid on a class's first
    query, not on every request.  Filled lazily, cleared wholesale on
    overflow, never pickled (pool workers get the stored baselines only;
    the artifact is not touched).  No lock is held while a baseline is
    built: racing threads may both build it (equal results, last wins).
    """

    #: Kept baselines (classes x distinct suites) before the memo clears.
    LIMIT = 1024

    def __init__(self, stored: Dict[str, object]):
        #: ``str(prefix) -> ClassBaseline``, the artifact's own dict.
        self.stored = stored
        self._kept: Dict[Tuple[str, PropertySuite], TaskBaseline] = {}

    def __getstate__(self) -> Dict[str, object]:
        return {"stored": self.stored, "_kept": {}}

    def task_baseline(self, bonsai, equivalence_class: EquivalenceClass, options: dict):
        prefix = str(equivalence_class.prefix)
        key = (prefix, PropertySuite.from_options(options))
        kept = self._kept.get(key)
        # A pool thread's Bonsai works on its own copy of the network; the
        # change kind shares configuration objects with it by identity.
        if kept is not None and kept.network is bonsai.network:
            return kept
        built = TaskBaseline(bonsai, equivalence_class, options, self.stored.get(prefix))
        if built.stored is not None:  # a scratch fallback is not a validated baseline
            if len(self._kept) >= self.LIMIT:
                self._kept.clear()
            self._kept[key] = built
        return built


def task_baseline(bonsai, equivalence_class: EquivalenceClass, options: dict) -> TaskBaseline:
    """The baseline a class task compares its units against: kept by, or
    validated from, the :class:`WarmBaselines` in ``options["baseline"]``
    when the sweep runs over a stored artifact; solved here otherwise."""
    warm = options.get("baseline")
    if warm is None:
        return TaskBaseline(bonsai, equivalence_class, options)
    return warm.task_baseline(bonsai, equivalence_class, options)


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class PerturbationSweep:
    """Fan a perturbation kind's per-class task out over every class.

    network and the ``fanout`` keywords (``artifact``, ``workers``,
    ``limit``) are :class:`~repro.pipeline.core.ClassFanOut`'s, which
    validates them on construction, ``executor`` (default ``"auto"``)
    included.  Plus:

    suite:
        The :class:`~repro.analysis.batch.PropertySuite` to evaluate
        (default: the full registered catalogue).
    oracle:
        Also scratch-solve every unit and compare labelings (default
        True -- this is the incremental solver's soundness gate and the
        source of the reported speedup).
    baseline:
        A stored :class:`~repro.store.BaselineArtifact` to seed from: its
        encoding, labelings, compressions and fingerprint are not redone.
    spill / spill_path:
        Stream per-class records to a JSONL spill instead of holding
        them in memory.

    A kind sets ``TASK`` (its registered per-class task) and
    ``REPORT_CLASS``, and its ``run()`` hands :meth:`_sweep` the task
    options and report header fields that are its own.
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        suite: Optional[PropertySuite] = None,
        oracle: bool = True,
        artifact=None,
        baseline=None,
        spill: bool = False,
        spill_path: Optional[str] = None,
        **fanout,
    ):
        if baseline is not None:
            if artifact is None:
                artifact = baseline.encoded
            # A network passed alongside must be the artifact's own network
            # by content, or the stored labelings would be silently wrong.
            if network is not None and network is not baseline.network:
                if not baseline.matches(network):
                    raise ValueError(
                        "stored baseline artifact does not match the network "
                        "(content fingerprints differ); rebuild the artifact"
                    )
        self._fanout = ClassFanOut(network, task=self.TASK, artifact=artifact, **fanout)
        self.baseline = baseline
        #: What the class tasks get as ``options["baseline"]``; a
        #: :class:`~repro.api.Session` puts the one it keeps here.
        self.warm = None if baseline is None else WarmBaselines(baseline.baselines)
        self.network = self._fanout.network
        self.suite = suite or PropertySuite.default()
        self.oracle = oracle
        self.spill = spill
        self.spill_path = spill_path

    @classmethod
    def over(cls, network: Network, properties: Optional[Sequence[str]], **kwargs):
        """One-call sweep of the named properties (default: all)."""
        suite = (
            PropertySuite.default()
            if properties is None
            else PropertySuite.from_names(properties)
        )
        return cls(network, suite=suite, **kwargs).run()

    def _sweep(self, task_options: Dict, header: Dict) -> PerturbationReport:
        fanout = self._fanout
        fanout.task_options = {
            **self.suite.to_options(), "oracle": self.oracle, **task_options
        }
        if self.warm is not None:
            fanout.task_options["baseline"] = self.warm
        return fanout.run_report(
            partial(
                self.REPORT_CLASS,
                properties=list(self.suite.names),
                path_bound=self.suite.path_bound,
                oracle=self.oracle,
                **header,
            ),
            spill=self.spill,
            spill_path=self.spill_path,
        )
