"""What-if change sweeps: change scripts x equivalence classes.

:class:`DeltaSweep` makes configuration change validation a batch
workload like compression, verification and failure analysis before it:
take an **ordered change script** (a list of
:class:`~repro.delta.changeset.ChangeSet` steps, applied cumulatively),
fan the per-class work out through the generic
:class:`~repro.pipeline.core.ClassFanOut` engine as the ``"delta"``
task, and aggregate a JSON :class:`DeltaReport`.

Each task invocation handles *all* steps of one destination equivalence
class, because that is where the reuse lives: the baseline is solved and
compressed once; each step's incremental re-solve is seeded from the
previous step's solution through the compiled-edge diff
(:func:`repro.delta.incremental.delta_resolve`); and the baseline
abstraction is revalidated per step -- reused outright when the class's
refinement signature is unchanged, re-compressed only when dirty
(:func:`repro.delta.revalidate.revalidate_class`).

Per (class, step) the task records:

* the **incremental re-solve** outcome -- label-for-label agreement with
  the scratch oracle (when ``oracle`` is on), taint/dirty/edge-diff
  sizes, and both wall-clock times;
* the **verdict delta vs. the unchanged baseline** for every suite
  property, with one structured witness per newly broken property;
* the **revalidation** outcome -- abstraction reused or re-compressed,
  and the differential lifted-abstract-vs-concrete comparison either way.

Changes are one *kind* on the shared perturbation engine
(:mod:`repro.pipeline.perturb`, which holds everything kind-neutral).
This module adds the change kind's own: the per-worker script state (a
changed network really is recompiled, unlike a failure view), the chained
step loop, stored-baseline seeding and signature revalidation.
"""

from __future__ import annotations

import functools
import json
import time
import weakref
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.analysis.properties import VerdictMap
from repro.config.network import Network
from repro.config.transfer import syntactic_policy_keys
from repro.delta.changeset import ChangeSet
from repro.delta.incremental import delta_resolve, diff_network_edges
from repro.delta.revalidate import class_signature, revalidate_class
from repro.failures.incremental import BaselineIndex, IncrementalSolve
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace
from repro.pipeline.perturb import (
    AbstractionCheck,
    ClassPerturbationRecord,
    PerturbationOutcome,
    PerturbationReport,
    PerturbationSweep,
    task_baseline,
)
from repro.srp.solution import Solution

#: Format version of the JSON delta reports.
DELTA_REPORT_VERSION = 2


# ----------------------------------------------------------------------
# Records
# ----------------------------------------------------------------------
@dataclass(kw_only=True)
class ChangeOutcome(PerturbationOutcome):
    """Everything recorded for one (equivalence class, change step) pair."""

    NAME_FIELD = "step"
    HELD_FIELD = "reused"
    CHECK_FIELD = "revalidation"
    CANONICAL_FIELDS = ("origins_changed", "partition_changed", "reused", "recompressed")

    step: str
    changes: List[str] = field(default_factory=list)
    #: The origin set (or destination partition) changed: the SRP's
    #: destination structure no longer lines up with the previous step's,
    #: so the scratch result served the solution.
    origins_changed: bool = False
    #: The destination trie no longer has a class at exactly this prefix.
    partition_changed: bool = False
    edges_removed: int = 0
    edges_added: int = 0
    edges_changed: int = 0
    #: Revalidation verdicts (``None`` when revalidation was off or the
    #: step was unroutable).
    reused: Optional[bool] = None
    recompressed: bool = False
    revalidate_seconds: float = 0.0
    #: Re-compression cost (only when the signature mismatched and the
    #: class really was re-compressed).
    recompress_seconds: float = 0.0
    #: The abstraction check's wire form
    #: (:func:`~repro.delta.revalidate.revalidate_class`).
    revalidation: Optional[Dict] = None


@dataclass
class ClassDeltaRecord(ClassPerturbationRecord):
    """All change-step outcomes for one destination equivalence class."""

    OUTCOMES_FIELD = "steps"
    OUTCOME_CLASS = ChangeOutcome

    steps: List[ChangeOutcome] = field(default_factory=list)
    #: True when the baseline labeling (and compression, if revalidating)
    #: came from a stored :class:`~repro.store.BaselineArtifact` instead
    #: of being re-solved in this run.
    baseline_from_store: bool = False


@dataclass(kw_only=True)
class DeltaReport(PerturbationReport):
    """Run-level aggregation of a what-if change sweep."""

    kind = "delta"
    RECORD_CLASS = ClassDeltaRecord
    NAMES_FIELD = "step_names"
    CHECK_KEY = "reuse"
    HELD_KEY = "reused"
    FIRST_BREAK_KEY = "first_breaking_change"
    BREAK_COUNTS_KEY = "property_break_counts"
    UNIT_NOUN = "change"

    num_steps: int
    revalidate: bool
    step_names: List[str] = field(default_factory=list)
    #: Content fingerprint of the stored baseline artifact this run
    #: validated against, when one was supplied.
    baseline_fingerprint: Optional[str] = None
    version: int = DELTA_REPORT_VERSION

    def first_property_broken(self) -> Optional[Tuple[str, str]]:
        """The earliest ``(property, step)`` break of the whole sweep."""
        rank = self._rank()
        breaks = [(p, step) for p, step in self.first_break().items() if step is not None]
        return min(breaks, key=lambda item: rank(item[1]), default=None)

    def pairs_by_diff(self) -> Dict[str, int]:
        """(class, step) pairs by what decided them: ``unchanged`` -- the
        edge diff against the previous step was empty, so that step's
        answer stood -- or why a re-solve was needed."""
        counts = dict.fromkeys(("unchanged", "diff_nonempty", "origins_changed", "unroutable"), 0)
        for _, o in self._outcomes():
            if o.unroutable:
                counts["unroutable"] += 1
            elif o.origins_changed:
                counts["origins_changed"] += 1
            elif o.edges_removed or o.edges_added or o.edges_changed or o.tainted or o.dirty:
                counts["diff_nonempty"] += 1
            else:
                counts["unchanged"] += 1
        return counts

    def aggregate(self) -> Dict[str, object]:
        block = super().aggregate()
        block["first_property_broken"] = self.first_property_broken()
        return block

    def to_json(self, indent: int = 2, handle=None) -> Optional[str]:
        # Defined here, not just inherited: the e2e benchmark's layer
        # ledger wraps it through this class's own ``__dict__``.
        return super().to_json(indent, handle)

    def summary_lines(self) -> List[str]:
        lines = []
        if self.baseline_fingerprint is not None:
            warm = sum(1 for r in self.iter_records() if r.baseline_from_store)
            lines.append(
                f"warm baseline {self.baseline_fingerprint[:12]}...: "
                f"{warm}/{self.record_count()} classes seeded from the store"
            )
        lines += self._summary_head(
            f"change script: {self.num_steps} steps x {self.num_classes} classes",
            f"incremental re-verify: {self.incremental_seconds:.3f}s vs "
            f"scratch solve {self.scratch_seconds:.3f}s",
        )
        if self.revalidate:
            counts = self.abstraction_counts()
            lines.append(
                f"abstraction revalidation: {counts['reused']}/{counts['checked']} "
                f"(class, step) pairs reused the baseline abstraction, "
                f"{counts['recompressed']} re-compressed, "
                f"{counts['disagreed']} verdict disagreements"
            )
        pairs = self.pairs_by_diff()
        lines.append(
            f"unchanged by the edge diff: {pairs['unchanged']}/{sum(pairs.values())} "
            "(class, step) pairs carried forward"
        )
        return lines + self._summary_breaks()


# ----------------------------------------------------------------------
# Per-worker script state (shared across the classes one worker handles)
# ----------------------------------------------------------------------
#: Step index standing for the unchanged baseline network in the script
#: state's per-network caches.
_BASELINE_STEP = -1


class _ScriptState:
    """The cumulative changed networks (and per-network caches) of one
    script, cached on the worker's Bonsai so every class the worker
    handles shares the applied networks, each step's Bonsai -- policy
    encoder, compilations, class invariants -- and class list.  Nothing
    per class lives here: a class task's route-map specialization memos
    are its own."""

    def __init__(self, key, bonsai: Bonsai, steps):
        self.key = key
        #: ``[(ChangeSet, changed Network)]``, cumulative.
        self.steps = steps
        #: ``step index -> Bonsai`` over that step's network (lazy); the
        #: baseline step's is the worker's own (which owns this state: a
        #: strong reference back would leave both to the cycle collector).
        self.bonsais: Dict[int, Bonsai] = {_BASELINE_STEP: weakref.proxy(bonsai)}
        #: ``step index -> routable equivalence classes``.
        self.classes: Dict[int, List[EquivalenceClass]] = {}
        #: ``step index -> edges`` :meth:`touched_edges` found.
        self.touched: Dict[int, Optional[set]] = {}

    def bonsai_for(self, step: int) -> Bonsai:
        """The Bonsai over one step's network (built lazily).  Everything
        per step and not per class is its to hold: the base compilation
        and the specialized one of the current class (one class runs all
        its steps back to back; both oracle arms and the policy keys share
        it), the unused communities and per-device local preferences."""
        bonsai = self.bonsais.get(step)
        if bonsai is None:
            bonsai = self.bonsais[step] = Bonsai(self.steps[step][1])
        return bonsai

    def class_on(self, step: int, prefix) -> Tuple[Optional[EquivalenceClass], bool]:
        """One step network's class for ``prefix``: ``(class, reshaped)``.

        ``reshaped`` is True when the destination partition no longer has a
        class at exactly this prefix (origination churn refined or merged the
        trie); the most specific overlapping routable class stands in, so the
        swept destination still gets verdicts.
        """
        classes = self.classes.get(step)
        if classes is None:
            classes = self.classes[step] = routable_equivalence_classes(self.steps[step][1])
        for candidate in classes:
            if candidate.prefix == prefix:
                return candidate, False
        overlapping = [c for c in classes if c.prefix.overlaps(prefix)]
        if not overlapping:
            return None, True
        return max(overlapping, key=lambda c: c.prefix.length), True

    def touched_edges(self, step: int) -> Optional[set]:
        """The edges whose specialized key can differ from the step
        before's, or ``None`` when any can.

        A key reads the edge's two endpoint ``DeviceConfig``s, the
        destination and the unused communities, and ``ChangeSet.apply`` is
        copy-on-write: between two step networks with the same edges,
        device names and unused communities, only an edge with an endpoint
        whose configuration object was replaced can have changed key.
        """
        if step not in self.touched:
            before, after = self.bonsai_for(step - 1), self.bonsai_for(step)
            old, new = before.network, after.network
            edges = None
            if (
                old.devices.keys() == new.devices.keys()
                and set(old.graph.edges) == set(new.graph.edges)
                and before._class_invariants[0] == after._class_invariants[0]
            ):
                edges = {
                    edge
                    for name, device in new.devices.items()
                    if old.devices[name] is not device and new.graph.has_node(name)
                    for edge in new.graph.out_edges(name) + new.graph.in_edges(name)
                }
            self.touched[step] = edges
        return self.touched[step]

    def policy_keys(
        self, step: int, prefix, before: Optional[Dict] = None, spec_caches: Optional[Dict] = None
    ) -> Dict:
        """The specialized syntactic policy keys of one step's network.

        ``spec_caches`` is the calling class task's ``(ignore set, prefix)
        -> specialize_route_map memo`` map (default: one for this call):
        one memo per destination and ignore set, as the memo contract
        requires, shared across the task's steps, since the copy-on-write
        views share the unchanged route-map and device objects.

        ``before`` is the same prefix's key map on the step just before,
        when the caller holds it: only :meth:`touched_edges` are re-keyed
        then, and when none of them changed ``before`` itself comes back
        -- the *same* object, so the edge diff is empty without a scan.
        """
        bonsai = self.bonsai_for(step)
        ignore = bonsai._class_invariants[0]
        compiled = bonsai.compile_for(prefix)
        memo = {} if spec_caches is None else spec_caches.setdefault((ignore, prefix), {})
        touched = None if before is None else self.touched_edges(step)
        _metrics.counter(f"delta.keys.{'full' if touched is None else 'localised'}").inc()
        if touched is not None:
            compiled = {edge: compiled[edge] for edge in touched}
        keys = syntactic_policy_keys(
            bonsai.network,
            prefix,
            compiled,
            ignore,
            specialize_cache=memo,
        )
        if touched is None:
            return keys
        if all(before[edge] == key for edge, key in keys.items()):
            return before
        return {**before, **keys}


def _script_state(bonsai: Bonsai, script: Sequence[ChangeSet]) -> _ScriptState:
    key = tuple(json.dumps(cs.to_dict(), sort_keys=True) for cs in script)
    state = getattr(bonsai, "_delta_script_state", None)
    if state is None or state.key != key:
        steps = []
        current = bonsai.network
        for changeset in script:
            current = changeset.apply(current)
            steps.append((changeset, current))
        state = _ScriptState(key, bonsai, steps)
        bonsai._delta_script_state = state
    return state


# ----------------------------------------------------------------------
# The per-class "delta" task (runs inside pipeline workers)
# ----------------------------------------------------------------------
class _ChainLink(NamedTuple):
    """Where a class's incremental chain stands: what the next step's
    re-solve seeds from."""

    step: int
    network: Network
    #: The class simulated at this step (``None``: nothing routable).
    simulated: Optional[EquivalenceClass]
    #: ``None`` after an unroutable step: the chain cannot seed from it.
    solution: Optional[Solution]
    #: The step's specialized policy keys, when already computed.
    keys: Optional[Dict] = None
    #: The step's verdicts, outcome (``None``: the baseline) and
    #: revalidation: what a later step the edge diff leaves unchanged
    #: carries forward.
    verdicts: Optional[VerdictMap] = None
    outcome: Optional[ChangeOutcome] = None
    check: Optional[AbstractionCheck] = None


def delta_class_task(bonsai, equivalence_class: EquivalenceClass, options: dict):
    """Run every change step against one equivalence class."""
    script = [ChangeSet.from_dict(raw) for raw in options.get("script", [])]
    revalidate_on = bool(options.get("revalidate", True))
    oracle = bool(options.get("oracle", True))

    network: Network = bonsai.network
    prefix = equivalence_class.prefix

    # Over a stored artifact the labeling (validated, not re-solved), the
    # compression and the baseline step's policy keys come from the store.
    start = time.perf_counter()
    baseline = task_baseline(bonsai, equivalence_class, options)
    baseline_seconds = time.perf_counter() - start
    stored = baseline.stored

    state = _script_state(bonsai, script)
    # This class's route-map specialization memos (``policy_keys``):
    # shared by its steps, dropped with the task -- no other class
    # specializes for its destination.
    spec_caches: Dict[Tuple[frozenset, object], Dict] = {}

    keys = None if stored is None else stored.signature[1]
    compression = None
    baseline_signature = None
    compression_seconds = 0.0
    if revalidate_on:
        compression, compression_seconds = baseline.compression(bonsai)
        if stored is not None:
            baseline_signature = stored.signature
        else:
            keys = state.policy_keys(_BASELINE_STEP, prefix, spec_caches=spec_caches)
            baseline_signature = class_signature(
                network,
                prefix,
                equivalence_class.origins,
                keys=keys,
            )
    #: The baseline revalidated against its own stored compression: what a
    #: step carried from the baseline link takes, kept (with the baseline)
    #: across a session's requests.  Its reuse-side lifted verdicts are
    #: fixed across steps by a matching signature.
    keep_check = compression is not None and compression is baseline.stored_compression
    kept = baseline.check if keep_check else None
    baseline_lifted = None if kept is None else kept.lifted

    record = ClassDeltaRecord(
        **baseline.record_fields(),
        baseline_seconds=baseline_seconds,
        compression_seconds=compression_seconds,
        baseline_from_store=stored is not None,
    )

    def srp_on(step: int, ec: EquivalenceClass):
        # Every SRP build of one (step, class) -- both oracle arms --
        # shares the step Bonsai's specialized compilation; compiling is
        # destination-work a real rebuild pays once, not per arm.
        return state.bonsai_for(step).concrete_srp(ec)

    # The incremental chain: each step seeds from the previous step's
    # solution, so a ten-step script never re-solves from scratch.
    prev = _ChainLink(
        _BASELINE_STEP, network, equivalence_class, baseline.solution, keys,
        verdicts=baseline.verdicts, check=kept,
    )

    for step_index, (changeset, changed_network) in enumerate(state.steps):
        with trace.span("step", name=changeset.name):
            outcome = ChangeOutcome(
                step=changeset.name,
                changes=[change.describe() for change in changeset.changes],
            )
            record.steps.append(outcome)
            changed_ec, reshaped = state.class_on(step_index, prefix)
            outcome.partition_changed = reshaped
            # The delta universe is the *changed* network's nodes: devices a
            # change removed drop out, devices it added are included (an
            # added device failing a property is newly failing -- absent
            # baseline nodes default to passing in verdict_delta).
            surviving = sorted(str(n) for n in changed_network.graph.nodes)
            # Default waypoints follow the *changed* class's origins (the batch
            # verifier convention: origin sets are unions of abstraction
            # groups by construction, arbitrary sets need not be); explicit
            # suite waypoints are kept, restricted to surviving devices.
            if baseline.suite.waypoints is None and changed_ec is not None:
                step_waypoints = frozenset(str(o) for o in changed_ec.origins)
            else:
                step_waypoints = frozenset(
                    w for w in baseline.waypoints if changed_network.graph.has_node(w)
                )

            if changed_ec is None:
                # No routable class overlaps the destination any more.
                baseline.mark_unroutable(
                    outcome, changed_network, step_waypoints, surviving
                )
                prev = _ChainLink(step_index, changed_network, None, None)
                _metrics.counter("delta.class_steps.resolved").inc()
                continue

            # Seeding needs the SRP's destination structure (prefix, origin
            # set) to line up with the previous step's.
            can_seed = prev.solution is not None and changed_ec == prev.simulated
            outcome.origins_changed = not can_seed
            # The previous link's keys for the same destination, when it has
            # one: what this step's keys are derived from and diffed against.
            old_keys = None
            if prev.simulated is not None and prev.simulated.prefix == changed_ec.prefix:
                old_keys = prev.keys or state.policy_keys(
                    prev.step, changed_ec.prefix, spec_caches=spec_caches
                )
            new_keys = state.policy_keys(
                step_index, changed_ec.prefix, old_keys, spec_caches=spec_caches
            )

            def seeded():
                started = time.perf_counter()
                diff = diff_network_edges(
                    prev.network,
                    changed_network,
                    changed_ec.prefix,
                    old_keys=old_keys,
                    new_keys=new_keys,
                )
                outcome.edges_removed = len(diff.removed)
                outcome.edges_added = len(diff.added)
                outcome.edges_changed = len(diff.changed)
                if diff.is_empty():
                    # Same class, origins, nodes, edges and per-edge keys:
                    # this step's SRP is the seed's.  A seeded solve would
                    # read every offer from the seed's own memo and
                    # re-derive its labeling; take the solution instead.
                    return IncrementalSolve(
                        prev.solution, True, frozenset(), 0, time.perf_counter() - started
                    )
                return delta_resolve(
                    srp_on(step_index, changed_ec),
                    prev.solution,
                    diff,
                    index=(
                        baseline.index
                        if prev.solution is baseline.solution
                        else BaselineIndex.from_solution(prev.solution)
                    ),
                )

            solution = baseline.resolve(
                outcome,
                functools.partial(srp_on, step_index, changed_ec),
                seeded if can_seed else None,
                oracle,
            )
            # The seed's own solution back: same SRP, and so (waypoints follow
            # the origins, or the surviving nodes) the seed's answer.
            carried = solution is prev.solution
            if carried:
                verdicts = prev.verdicts
                baseline.carry_forward(outcome, prev.outcome)
            else:
                verdicts = baseline.record_verdicts(
                    outcome, changed_network, solution, changed_ec, step_waypoints, surviving
                )
            _metrics.counter(
                f"delta.class_steps.{'carried' if carried else 'resolved'}"
            ).inc()

            check = None
            if compression is not None:
                factory = functools.partial(state.bonsai_for, step_index)
                # Carried, with the previous step's local preferences: every
                # input of that step's revalidation is this step's too.
                same_inputs = carried and (
                    factory()._class_invariants[1]
                    == state.bonsai_for(prev.step)._class_invariants[1]
                )
                if same_inputs and prev.check is not None:
                    check, timing = prev.check, {"seconds": 0.0, "recompress_seconds": 0.0}
                else:
                    check, timing = revalidate_class(
                        compression,
                        baseline_signature,
                        changed_network,
                        changed_ec,
                        verdicts,
                        baseline.specs,
                        step_waypoints,
                        baseline.path_bound,
                        recompress_bonsai=factory,
                        changed_keys=new_keys,
                        baseline_lifted=baseline_lifted,
                    )
                    if same_inputs and keep_check and prev.step == _BASELINE_STEP:
                        baseline.check = check
                if check.held and baseline_lifted is None:
                    baseline_lifted = check.lifted
                outcome.record_check(check, timing)
                outcome.recompressed = check.recompressed
                outcome.revalidate_seconds = timing["seconds"]
                outcome.recompress_seconds = timing["recompress_seconds"]
            prev = _ChainLink(
                step_index, changed_network, changed_ec, solution, new_keys,
                verdicts=verdicts, outcome=outcome, check=check,
            )

    return record


# ----------------------------------------------------------------------
# The sweep driver
# ----------------------------------------------------------------------
class DeltaSweep(PerturbationSweep):
    """Run a change script over every destination equivalence class.

    Takes :class:`~repro.pipeline.perturb.PerturbationSweep`'s parameters
    (network / ``artifact``, ``baseline``, ``suite``, ``oracle``, the
    fan-out and spill knobs), plus:

    script:
        The ordered change script: a sequence of
        :class:`~repro.delta.changeset.ChangeSet` steps applied
        cumulatively.  Every step is validated against the network state
        the previous steps produce before any work is dispatched.
    revalidate:
        Run the per-step abstraction revalidator (default True).
    """

    TASK = "delta"
    REPORT_CLASS = DeltaReport

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        script: Sequence[ChangeSet] = (),
        revalidate: bool = True,
        **common,
    ):
        super().__init__(network, **common)
        self.script: List[ChangeSet] = list(script)
        if not self.script:
            raise ValueError("a delta sweep needs at least one change step")
        current = self.network
        for changeset in self.script:
            current = changeset.apply(current)  # raises ChangeError when invalid
        self.revalidate = revalidate

    def run(self) -> DeltaReport:
        report = self._sweep(
            {
                "script": [changeset.to_dict() for changeset in self.script],
                "revalidate": self.revalidate,
            },
            dict(
                num_steps=len(self.script),
                revalidate=self.revalidate,
                step_names=[changeset.name for changeset in self.script],
                baseline_fingerprint=(
                    self.baseline.fingerprint if self.baseline is not None else None
                ),
            ),
        )
        if _events.enabled():
            pairs = report.pairs_by_diff()
            del pairs["unchanged"]
            carried = report.envelope_dict()["obs_metrics"]["counters"].get(
                "delta.class_steps.carried", 0
            )
            _events.emit("delta.carried", carried=carried, **pairs)
        return report


def sweep_changes(
    network: Network,
    script: Sequence[ChangeSet],
    properties: Optional[Sequence[str]] = None,
    **kwargs,
) -> DeltaReport:
    """One-call change-impact sweep (``DeltaSweep``'s defaults)."""
    return DeltaSweep.over(network, properties, script=script, **kwargs)
