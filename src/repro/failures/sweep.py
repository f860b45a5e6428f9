"""Failure sweeps: scenarios x equivalence classes through the pipeline.

:class:`FailureSweep` is the driver that makes failure analysis a batch
workload like compression and verification before it: enumerate (or
sample) the scenarios once, then fan the per-class work out through the
generic :class:`~repro.pipeline.core.ClassFanOut` engine as the
``"failures"`` task.  Each task invocation handles *all* scenarios of one
destination equivalence class, because that is where the reuse lives --
the baseline is solved once, its labeling and transfer memo seed every
scenario's incremental re-solve, and one baseline compression serves
every scenario's soundness check.

Per (class, scenario) the task records:

* the **incremental re-solve** outcome -- label-for-label agreement with
  the scratch oracle (when ``oracle`` is on), the taint/dirty set sizes,
  and both wall-clock times (the report's headline incremental-vs-scratch
  speedup);
* the **verdict delta vs. the failure-free baseline** for every suite
  property (which nodes newly fail, which newly pass);
* the **abstraction-soundness outcome** (:mod:`repro.failures.soundness`):
  whether the baseline Bonsai abstraction can represent the scenario
  (``sound_under_failure``), and the differential abstract-vs-concrete
  comparison against either the mapped abstract failure or a per-scenario
  re-compression.

The aggregated :class:`FailureReport` is JSON-serialisable and consumed
by ``python -m repro.pipeline failures``, the failure-sweep benchmark
stage and the CI smoke job.

Failures are one *kind* on the shared perturbation engine
(:mod:`repro.pipeline.perturb`, which holds everything kind-neutral).
This module adds the failure kind's own: scenario enumeration, the
scenario loop (a failure shares device configs with the baseline by
identity, so the perturbed compilation is a dict filter, not a
recompile), structural soundness and k-resilience.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.abstraction.ec import EquivalenceClass
from repro.config.network import Network
from repro.config.transfer import build_srp_from_network
from repro.failures.incremental import incremental_resolve
from repro.failures.scenario import FailureScenario, scenarios_for
from repro.failures.soundness import check_scenario_soundness
from repro.obs import trace
from repro.pipeline.core import CLASS_TASKS
from repro.pipeline.perturb import (
    ClassPerturbationRecord,
    PerturbationOutcome,
    PerturbationReport,
    PerturbationSweep,
    task_baseline,
    unit_range,
)
from repro.pipeline.shard import register_unit_splitter
from repro.reporting import register_report
from repro.srp.solver import TransferCache

#: Format version of the JSON failure reports.
FAILURE_REPORT_VERSION = 1


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ScenarioOutcome(PerturbationOutcome):
    """Everything recorded for one (equivalence class, scenario) pair."""

    NAME_FIELD = "scenario"
    HELD_FIELD = "sound_under_failure"
    CHECK_FIELD = "soundness"
    CANONICAL_FIELDS = ("sound_under_failure",)

    scenario: str
    failed_links: List[str] = field(default_factory=list)
    failed_nodes: List[str] = field(default_factory=list)
    #: Structural soundness flag (``None`` when soundness checking was
    #: off or the scenario was unroutable).
    sound_under_failure: Optional[bool] = None
    #: Full :class:`~repro.failures.soundness.SoundnessOutcome` wire form.
    soundness: Optional[Dict] = None


@dataclass
class ClassFailureRecord(ClassPerturbationRecord):
    """All scenario outcomes for one destination equivalence class."""

    OUTCOMES_FIELD = "scenarios"
    OUTCOME_CLASS = ScenarioOutcome

    #: Every node verdicts were evaluated on (the k-resilience universe).
    nodes: List[str] = field(default_factory=list)
    scenarios: List[ScenarioOutcome] = field(default_factory=list)


@register_report
@dataclass(kw_only=True)
class FailureReport(PerturbationReport):
    """Run-level aggregation of a failure sweep."""

    kind = "failures"
    RECORD_CLASS = ClassFailureRecord
    NAMES_FIELD = "scenario_names"
    CHECK_KEY = "soundness"
    HELD_KEY = "sound"
    FIRST_BREAK_KEY = "first_failing_scenario"
    BREAK_COUNTS_KEY = "property_failure_counts"
    UNIT_NOUN = "scenario"

    k: int
    num_scenarios: int
    soundness: bool
    scenario_names: List[str] = field(default_factory=list)
    #: Whether the scenario list covers *every* ``≤k`` failure (False under
    #: sampling or an explicit scenario list): k-resilience verdicts are
    #: only proofs when it does.
    exhaustive: bool = False
    version: int = FAILURE_REPORT_VERSION

    def k_resilience(self, prop: str = "reachability") -> Dict[str, object]:
        """Evaluate "``prop`` holds under every ≤k cut" over the sweep records.

        A node is *k-resilient* for a destination class when the property
        holds on it at the failure-free baseline and no swept scenario
        newly breaks it; fragile nodes are reported with the first
        scenario (sweep order) that breaks them.  The verdict is evaluated
        directly on the existing records -- no extra simulation -- and is
        a proof only when the sweep enumerated exhaustively
        (``complete=True``); under sampling it is an upper bound on
        resilience.
        """
        rank = self._rank()
        per_class: Dict[str, Dict[str, object]] = {}
        for record in self.iter_records():
            baseline_failing = set(record.baseline_failing.get(prop, []))
            # The node universe: recorded explicitly; reports written
            # before the field existed fall back to the nodes the verdict
            # lists mention (an under-approximation).
            candidates = set(record.nodes)
            for nodes in record.baseline_failing.values():
                candidates.update(nodes)
            first_break: Dict[str, str] = {}
            for outcome in record.scenarios:
                for node in outcome.newly_failing.get(prop, []):
                    candidates.add(node)
                    current = first_break.get(node)
                    if current is None or rank(outcome.scenario) < rank(current):
                        first_break[node] = outcome.scenario
            fragile = {
                node: scenario
                for node, scenario in first_break.items()
                if node not in baseline_failing
            }
            resilient = sorted(
                node
                for node in candidates
                if node not in baseline_failing and node not in fragile
            )
            per_class[record.prefix] = {
                "resilient": resilient,
                "fragile": {node: fragile[node] for node in sorted(fragile)},
                "baseline_failing": sorted(baseline_failing),
            }
        return {
            "property": prop,
            "k": self.k,
            "complete": bool(self.exhaustive),
            "per_class": per_class,
        }

    def aggregate(self) -> Dict[str, object]:
        block = super().aggregate()
        if "reachability" in self.properties:
            block["k_resilience"] = self.k_resilience()
        return block

    def to_json(self, indent: int = 2) -> str:
        # Defined here, not just inherited: the e2e benchmark's layer
        # ledger wraps it through this class's own ``__dict__``.
        return super().to_json(indent)

    def summary_lines(self) -> List[str]:
        speedup = self.incremental_speedup
        lines = self._summary_head(
            f"scenarios: {self.num_scenarios} (k={self.k}) x {self.num_classes} classes",
            f"incremental re-solve: {self.incremental_seconds:.3f}s vs "
            f"scratch {self.scratch_seconds:.3f}s"
            + (f" ({speedup:.2f}x)" if speedup is not None else ""),
        )
        if self.soundness:
            counts = self.abstraction_counts()
            lines.append(
                f"abstraction soundness: {counts['sound']}/{counts['checked']} "
                f"scenarios representable by the baseline abstraction, "
                f"{counts['recompressed']} re-compressed, "
                f"{counts['disagreed']} verdict disagreements"
            )
        lines.extend(self._summary_breaks())
        if "reachability" in self.properties:
            resilience = self.k_resilience()
            resilient = sum(
                len(entry["resilient"]) for entry in resilience["per_class"].values()
            )
            fragile = sum(
                len(entry["fragile"]) for entry in resilience["per_class"].values()
            )
            qualifier = "" if resilience["complete"] else " (sampled: upper bound only)"
            lines.append(
                f"{self.k}-resilience (reachability under every <={self.k} cut): "
                f"{resilient} (class, node) pairs resilient, {fragile} fragile"
                f"{qualifier}"
            )
        return lines


# ----------------------------------------------------------------------
# The per-class "failures" task (runs inside pipeline workers)
# ----------------------------------------------------------------------
def failure_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Run every failure scenario against one equivalence class."""
    oracle = bool(options.get("oracle", True))
    # Over a stored artifact the labeling (validated, not re-solved) and
    # the compression come from the store.
    start = time.perf_counter()
    baseline = task_baseline(bonsai, equivalence_class, options)
    baseline_seconds = time.perf_counter() - start
    network = baseline.network
    prefix = equivalence_class.prefix
    compression = None
    compression_seconds = 0.0
    if options.get("soundness", True):
        compression = baseline.stored_compression
        if compression is None:
            compression = bonsai.compress(equivalence_class, srp=baseline.solution.srp)
            compression_seconds = compression.compression_seconds

    # One bounded transfer memo shared by every scenario's incremental
    # re-solve, seeded once from the baseline and never evicted: scenarios
    # are independent views of one baseline, so every entry stays exact.
    # The baseline's forwarding index likewise amortises taint queries.
    shared_cache = TransferCache().seeded_from(baseline.solution.transfer_cache)

    record = ClassFailureRecord(
        **baseline.record_fields(),
        baseline_seconds=baseline_seconds,
        compression_seconds=compression_seconds,
        nodes=list(baseline.node_names),
    )
    # Sub-class chunking: scenarios are independent, so a chunk is
    # just the same task over its ``unit_range`` slice of the list.
    raw_scenarios = options.get("scenarios", [])
    for index in unit_range(options, len(raw_scenarios)):
        scenario = FailureScenario.from_dict(raw_scenarios[index])
        # One span per scenario; chunks hold disjoint scenario slices, so
        # their spans concatenate back in scenario order.
        with trace.span("scenario", name=scenario.name):
            outcome = ScenarioOutcome(
                scenario=scenario.name,
                failed_links=[f"{u}|{v}" for u, v in sorted(scenario.links)],
                failed_nodes=sorted(scenario.nodes),
            )
            record.scenarios.append(outcome)
            surviving_origins = {
                origin
                for origin in equivalence_class.origins
                if str(origin) not in scenario.nodes
            }
            failed_network = scenario.apply(network)
            surviving = [n for n in baseline.node_names if n not in scenario.nodes]
            if not surviving_origins:
                # Every origin of the class failed.  (A change removing the
                # same devices instead falls back to the covering prefix's
                # class -- ``repro.delta.sweep._class_on``.)
                baseline.mark_unroutable(
                    outcome, failed_network, baseline.waypoints, surviving
                )
                continue

            # Device configs are shared with the baseline by identity, so
            # the failed compilation is a filter, not a recompile.
            removed = scenario.directed_edges(network.graph)
            compiled_failed = {
                edge: info
                for edge, info in baseline.compiled.items()
                if edge not in removed
            }
            failed_ec = EquivalenceClass(
                prefix=prefix, origins=frozenset(surviving_origins)
            )

            # Unused communities and local preferences read device configs
            # alone: a link failure keeps the baseline's, a failed device
            # drops out of them (``None``: derived from the failed view).
            unused_communities, local_prefs = (
                (None, None) if scenario.nodes else bonsai._class_invariants
            )

            @functools.cache
            def build_failed_srp():
                # Once per unit: the scratch arm solves it first, cold.
                return build_srp_from_network(
                    failed_network,
                    prefix,
                    set(surviving_origins),
                    ignore_communities=unused_communities,
                    compiled=compiled_failed,
                    include_syntactic_keys=False,
                    local_prefs=local_prefs,
                )

            def seeded():
                return incremental_resolve(
                    build_failed_srp(),
                    baseline.solution,
                    removed,
                    frozenset(scenario.nodes),
                    transfer_cache=shared_cache,
                    index=baseline.index,
                )

            # A changed origin set reshapes the SRP's destination structure:
            # the baseline labeling does not line up node-for-node.
            origins_changed = surviving_origins != set(equivalence_class.origins)
            solution = baseline.resolve(
                outcome, build_failed_srp, None if origins_changed else seeded, oracle
            )
            scenario_waypoints = frozenset(
                w for w in baseline.waypoints if w not in scenario.nodes
            )
            verdicts = baseline.record_verdicts(
                outcome, failed_network, solution, failed_ec, scenario_waypoints, surviving
            )
            if compression is not None:
                sound = check_scenario_soundness(
                    bonsai,
                    compression,
                    scenario,
                    failed_network,
                    failed_ec,
                    verdicts,
                    baseline.specs,
                    scenario_waypoints,
                    baseline.path_bound,
                    failed_srp=build_failed_srp(),
                )
                outcome.sound_under_failure = sound.sound_under_failure
                outcome.soundness = sound.to_dict()
    return record


register_unit_splitter(CLASS_TASKS["failures"], "scenarios", "scenarios")


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class FailureSweep(PerturbationSweep):
    """Run a failure sweep over every destination equivalence class.

    Takes :class:`~repro.pipeline.perturb.PerturbationSweep`'s parameters
    (network / ``artifact``, ``baseline``, ``suite``, ``oracle``, the
    fan-out and spill knobs), plus:

    k:
        Enumerate all scenarios of at most ``k`` simultaneous failures.
    scenarios:
        An explicit scenario list (overrides enumeration).
    sample:
        Deterministically sample this many scenarios instead of
        enumerating (seeded by ``seed``).
    include_nodes:
        Also enumerate node failures (default: links only).
    soundness:
        Run the per-scenario abstraction-soundness checker (default True).
    """

    TASK = "failures"
    REPORT_CLASS = FailureReport

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        k: int = 1,
        scenarios: Optional[Sequence[FailureScenario]] = None,
        sample: Optional[int] = None,
        seed: int = 0,
        include_nodes: bool = False,
        soundness: bool = True,
        **common,
    ):
        super().__init__(network, **common)
        self.k = k
        self.exhaustive = scenarios is None and sample is None
        if scenarios is None:
            scenarios = scenarios_for(
                self.network, k=k, sample=sample, seed=seed, include_nodes=include_nodes
            )
        self.scenarios: List[FailureScenario] = list(scenarios)
        for scenario in self.scenarios:
            scenario.assert_valid(self.network)
        self.soundness = soundness

    def run(self) -> FailureReport:
        return self._sweep(
            {
                "scenarios": [s.to_dict() for s in self.scenarios],
                "soundness": self.soundness,
            },
            dict(
                k=self.k,
                num_scenarios=len(self.scenarios),
                soundness=self.soundness,
                scenario_names=[s.name for s in self.scenarios],
                exhaustive=self.exhaustive,
            ),
        )


def sweep_network(
    network: Network, k: int = 1, properties: Optional[Sequence[str]] = None, **kwargs
) -> FailureReport:
    """One-call failure sweep (``FailureSweep``'s defaults)."""
    return FailureSweep.over(network, properties, k=k, **kwargs)
