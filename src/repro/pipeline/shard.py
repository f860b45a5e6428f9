"""Cost-aware shard coordinator: shared-queue work stealing for sweeps.

:class:`~repro.pipeline.core.ClassFanOut`'s original process executor
pre-batched the classes into contiguous slices -- fine when classes cost
about the same, but destination classes are *wildly* unequal (a fat-tree
edge class touches a handful of pods, a WAN core class the whole
backbone), so the slowest pre-cut batch bottlenecks the sweep while the
other workers idle.  :class:`ShardCoordinator` replaces the pre-cut with
a shared work queue:

* the classes are turned into **cost-weighted work units** -- whole
  classes, or (for tasks whose per-class work is a sequence of units: a
  list of independent scenarios, a chainable list of steps) sub-class
  chunks, for tasks that called :func:`register_unit_splitter`;
* unit costs come from **observed wall-clock of prior runs**, recorded
  per ``(network fingerprint, task)`` into an in-process cache and --
  when a cost store is configured -- a schema-versioned ``costs.json``
  sidecar in the :class:`~repro.store.ArtifactStore` entry (see
  :meth:`~repro.store.ArtifactStore.record_costs`); a cold store falls
  back to a size heuristic;
* units are dispatched **largest-first** into the pool's shared call
  queue, cheap tail units greedily bundled to amortise dispatch
  overhead; whichever worker goes idle steals the next costliest unit,
  so a straggler class can no longer serialise the sweep;
* results **stream back** to the coordinator as they complete --
  sub-class chunks are re-merged in chunk order, so downstream reports
  stay bit-identical to a serial run -- and per-class observed costs are
  collected for the next run's schedule.

The coordinator is an engine-room class: :class:`ClassFanOut` routes its
process executor through it by default (``scheduler="stealing"``), so
every pillar riding the fan-out -- compress, verify, failures, delta,
baseline bakes -- gets the scheduler without code changes.
"""

from __future__ import annotations

import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs import trace
from repro.pipeline import core as _core
from repro.pipeline.encoded import EncodedNetwork

#: The schedulers :class:`~repro.pipeline.core.ClassFanOut` understands.
SCHEDULERS = _core.SCHEDULERS


# ----------------------------------------------------------------------
# Cost model
# ----------------------------------------------------------------------
#: ``(network fingerprint, task path) -> {class prefix: observed seconds}``,
#: updated after every sweep in this process.  The persistent twin lives
#: in the artifact store's ``costs.json`` sidecars.
_PROCESS_COST_CACHE: Dict[Tuple[str, str], Dict[str, float]] = {}


def resolve_cost_store(store):
    """Normalise a cost-store reference (path / store / None) to an
    :class:`~repro.store.ArtifactStore` or ``None``."""
    if store is None or hasattr(store, "record_costs"):
        return store
    from repro.store import ArtifactStore  # lazy: avoids an import cycle

    return ArtifactStore(store)


def remember_costs(
    fingerprint: str,
    task_path: str,
    unit_seconds: Dict[str, float],
    unit_counts: Optional[Dict[str, int]] = None,
    cost_store=None,
) -> None:
    """Record one sweep's observed per-class costs (cache + store)."""
    if not unit_seconds:
        return
    _PROCESS_COST_CACHE[(fingerprint, task_path)] = dict(unit_seconds)
    store = resolve_cost_store(cost_store)
    if store is not None:
        store.record_costs(fingerprint, task_path, unit_seconds, unit_counts)


def lookup_costs(fingerprint: str, task_path: str, cost_store=None) -> Dict[str, float]:
    """Prior observed per-class costs: the store's sidecar, overlaid with
    anything fresher this process has seen.  Empty on a cold start."""
    merged: Dict[str, float] = {}
    store = resolve_cost_store(cost_store)
    if store is not None:
        stored = store.load_costs(fingerprint).get("tasks", {}).get(task_path, {})
        for prefix, seconds in (stored.get("unit_seconds") or {}).items():
            try:
                merged[str(prefix)] = float(seconds)
            except (TypeError, ValueError):
                continue
    merged.update(_PROCESS_COST_CACHE.get((fingerprint, task_path), {}))
    return merged


def heuristic_cost(equivalence_class: EquivalenceClass) -> float:
    """The cold-store fallback: a size heuristic.  Classes with more
    origins touch more of the graph (bigger SRPs, more verdict rows), so
    they are scheduled earlier; otherwise costs are uniform."""
    return 1.0 + 0.25 * len(equivalence_class.origins)


# ----------------------------------------------------------------------
# Sub-class unit splitting (contiguous ranges of a task's unit sequence)
# ----------------------------------------------------------------------
def _chunk_bounds(total: int, pieces: int) -> List[Tuple[int, int]]:
    """``pieces`` near-equal contiguous ``[start, end)`` ranges of
    ``range(total)`` (fewer when ``total < pieces``), order-preserving."""
    pieces = max(1, min(pieces, total))
    base, extra = divmod(total, pieces)
    bounds = []
    start = 0
    for i in range(pieces):
        end = start + base + (1 if i < extra else 0)
        bounds.append((start, end))
        start = end
    return bounds


def split_units(options: dict, key: str, pieces: int):
    """Cut the unit sequence at ``options[key]`` into ``pieces`` chunks:
    ``(options patches, weight fractions)``, each patch carrying
    ``unit_range=[a, b)`` for the task to run only those units
    (:func:`repro.pipeline.perturb.unit_range`), or ``None`` when the
    sequence is too short to cut in two.  Whether units are independent
    (failure scenarios) or chain (change steps, where a chunk starting
    mid-script first replays its predecessor) is the task's business."""
    total = len(options.get(key) or [])
    bounds = _chunk_bounds(total, pieces)
    if len(bounds) < 2:
        return None
    patches = [{"unit_range": [a, b]} for a, b in bounds]
    fractions = [(b - a) / total for a, b in bounds]
    return patches, fractions


def merge_chunks(chunks: List[object], attr: str) -> object:
    """Chunk 0's record (it carries the class baseline fields) with every
    chunk's ``record.<attr>`` list concatenated in chunk order, which is
    the original unit order."""
    merged = chunks[0]
    for extra in chunks[1:]:
        getattr(merged, attr).extend(getattr(extra, attr))
    return merged


#: ``task path -> (options key of the task's unit sequence, record
#: attribute holding its per-unit results)``, for the tasks whose classes
#: may be split; filled by :func:`register_unit_splitter` as they import.
UNIT_SEQUENCES: Dict[str, Tuple[str, str]] = {}


def register_unit_splitter(task_path: str, options_key: str, record_attr: str) -> None:
    """Let the coordinator split a task's classes into sub-class chunks
    (:func:`split_units` over ``options[options_key]``, re-merged by
    :func:`merge_chunks` over ``record.<record_attr>``)."""
    UNIT_SEQUENCES[task_path] = (options_key, record_attr)


# ----------------------------------------------------------------------
# Work units
# ----------------------------------------------------------------------
@dataclass
class WorkUnit:
    """One schedulable piece of work: a class, or a chunk of one."""

    index: int
    equivalence_class: EquivalenceClass
    #: Chunk id within the class (0 when the class was not split).
    chunk: int = 0
    #: Total chunks the class was split into.
    chunks: int = 1
    #: Task-options overlay for this chunk (``None`` = whole class).
    patch: Optional[dict] = None
    #: Scheduling weight (seconds when warm, heuristic units when cold).
    cost: float = 1.0

    @property
    def uid(self) -> Tuple[int, int]:
        return (self.index, self.chunk)


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
def _run_units(
    task_path: str,
    units: Sequence[Tuple[Tuple[int, int], int, EquivalenceClass, Optional[dict]]],
    options: dict,
    capture_trace: bool = False,
):
    """Run one bundle of units in a pool worker; per-unit wall-clock is
    measured here so the coordinator can record observed costs, and each
    unit's captured span subtree + counter delta ride back with the
    result (``capture_trace`` relays the coordinator's ``trace.active()``
    -- worker processes never saw ``trace.begin()``).  Failures come back
    as markers, like :func:`repro.pipeline.core._run_batch`."""
    bonsai = _core._worker_state.bonsai
    task = _core._import_task(task_path)
    out = []
    for uid, index, equivalence_class, patch in units:
        effective = options if patch is None else {**options, **patch}
        start = time.perf_counter()
        with trace.capture_unit(
            capture_trace, True, cls=str(equivalence_class.prefix)
        ) as obs:
            try:
                result = task(bonsai, equivalence_class, effective)
            except Exception as exc:  # noqa: BLE001 - reported to the coordinator
                result = _core._WorkerFailure(
                    prefix=str(equivalence_class.prefix),
                    error=repr(exc),
                    traceback=traceback.format_exc(),
                )
        out.append((uid, index, result, time.perf_counter() - start, obs))
    return out


# ----------------------------------------------------------------------
# The coordinator
# ----------------------------------------------------------------------
class ShardCoordinator:
    """Dispatch cost-weighted units largest-first into a shared queue.

    The "queue" is the process pool's own call queue: every unit (bundle)
    is submitted up front in descending cost order, and whichever worker
    finishes its current unit pulls the next costliest one -- work
    stealing without hand-rolled IPC, with results streamed back through
    the normal futures machinery.

    Parameters
    ----------
    artifact:
        The built :class:`EncodedNetwork` (pickled once per worker via
        the pool initializer).
    task_path:
        The resolved ``"module:function"`` task.
    options:
        Task options shared by every unit (chunk patches overlay them).
    classes:
        The (already limited) classes, in report order.
    start:
        Index of the first class to run: an ``"auto"`` fan-out has run
        ``classes[:start]`` itself before handing over.
    workers:
        Pool size.
    unit_costs:
        Explicit ``{prefix: seconds}`` schedule weights; overrides the
        store/cache lookup (benchmarks and tests use this).
    fingerprint / cost_store:
        Where prior observed costs are looked up (either may be absent;
        the heuristic covers the gaps).
    split:
        Whether to split classes into sub-units when the class count
        cannot keep the pool busy (needs a registered splitter).
    """

    def __init__(
        self,
        *,
        artifact: EncodedNetwork,
        task_path: str,
        options: dict,
        classes: Sequence[EquivalenceClass],
        workers: int,
        start: int = 0,
        unit_costs: Optional[Dict[str, float]] = None,
        fingerprint: Optional[str] = None,
        cost_store=None,
        split: bool = True,
    ) -> None:
        self.artifact = artifact
        self.task_path = task_path
        self.options = dict(options or {})
        self.classes = list(classes)
        self.start = start
        self.workers = max(1, int(workers))
        self.unit_costs = dict(unit_costs) if unit_costs else None
        self.fingerprint = fingerprint
        self.cost_store = cost_store
        self.split = split
        #: Filled by :meth:`plan`.
        self.units: List[WorkUnit] = []
        self.bundles: List[List[WorkUnit]] = []
        #: Whether any prior observed costs informed the schedule.
        self.warm = False
        #: Filled by :meth:`run`: per-class observed seconds / unit counts.
        self.observed_seconds: Dict[str, float] = {}
        self.observed_units: Dict[str, int] = {}
        #: Per-unit observability captures -- ``(index, chunk, blob)`` --
        #: for :meth:`ClassFanOut._finalize_unit_obs`.
        self.captured_obs: List[Tuple[int, int, dict]] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _known_costs(self) -> Dict[str, float]:
        if self.unit_costs is not None:
            return dict(self.unit_costs)
        if self.fingerprint is None:
            return {}
        return lookup_costs(self.fingerprint, self.task_path, self.cost_store)

    def plan(self) -> List[List[WorkUnit]]:
        """Build the largest-first bundle list (idempotent)."""
        if self.bundles:
            return self.bundles
        known = self._known_costs()
        todo = list(enumerate(self.classes))[self.start :]
        self.warm = any(str(ec.prefix) in known for _, ec in todo)

        # Split classes into chunks only when there are too few of them
        # to keep the pool busy; chunk overhead (each chunk re-pays the
        # class baseline) is only worth paying to kill stragglers.
        pieces = 1
        sequence = UNIT_SEQUENCES.get(self.task_path) if self.split else None
        if sequence is not None and todo:
            if len(todo) < self.workers * 2:
                pieces = -(-self.workers * 2 // len(todo))

        units: List[WorkUnit] = []
        for index, equivalence_class in todo:
            cost = known.get(
                str(equivalence_class.prefix), heuristic_cost(equivalence_class)
            )
            plan = split_units(self.options, sequence[0], pieces) if pieces > 1 else None
            if plan is None:
                units.append(
                    WorkUnit(index=index, equivalence_class=equivalence_class, cost=cost)
                )
                continue
            patches, fractions = plan
            for chunk, (patch, fraction) in enumerate(zip(patches, fractions)):
                units.append(
                    WorkUnit(
                        index=index,
                        equivalence_class=equivalence_class,
                        chunk=chunk,
                        chunks=len(patches),
                        patch=patch,
                        cost=cost * fraction,
                    )
                )

        # Largest-first; ties broken by class order for determinism.
        units.sort(key=lambda u: (-u.cost, u.index, u.chunk))
        self.units = units

        # Greedy tail bundling: walking in dispatch order, pack units
        # into one submission until the bundle is worth a dispatch.
        # Heavy units become singletons; the cheap tail amortises.
        total = sum(unit.cost for unit in units)
        threshold = total / (self.workers * 8) if units else 0.0
        bundles: List[List[WorkUnit]] = []
        current: List[WorkUnit] = []
        current_cost = 0.0
        for unit in units:
            current.append(unit)
            current_cost += unit.cost
            if current_cost >= threshold:
                bundles.append(current)
                current = []
                current_cost = 0.0
        if current:
            bundles.append(current)
        self.bundles = bundles
        _metrics.counter("shard.units").inc(len(units))
        _metrics.counter("shard.bundles").inc(len(bundles))
        _metrics.counter("shard.split_classes").inc(
            len({unit.index for unit in units if unit.chunks > 1})
        )
        if self.warm:
            _metrics.counter("shard.warm_plans").inc()
        # Bundles beyond one per worker are pulled by whichever worker
        # drains its queue first -- the "stolen" share of the schedule.
        stolen = max(0, len(bundles) - min(self.workers, len(bundles)))
        _metrics.counter("shard.steals").inc(stolen)
        if _events.enabled():
            for index in sorted({u.index for u in units if u.chunks > 1}):
                chunks = max(u.chunks for u in units if u.index == index)
                _events.emit(
                    "class.split",
                    task=self.task_path,
                    index=index,
                    cls=str(self.classes[index].prefix),
                    chunks=chunks,
                )
            if stolen:
                _events.emit(
                    "units.stolen",
                    task=self.task_path,
                    bundles=len(bundles),
                    workers=self.workers,
                    stolen=stolen,
                )
        return bundles

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        on_result: Optional[Callable[[int, object, float], None]] = None,
        collect: bool = True,
    ) -> Optional[List[Tuple[int, object]]]:
        """Run every unit; per-class results stream to ``on_result(index,
        record, seconds)`` as their last chunk lands (chunks re-merged in
        chunk order, so merged records match the unsplit task's output).
        Returns the ``(index, record)`` list when ``collect``."""
        # Imported where the pool is created: a sweep that never forks
        # never loads multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

        bundles = self.plan()
        results: Optional[List[Tuple[int, object]]] = [] if collect else None
        self.observed_seconds = {}
        self.observed_units = {}
        self.captured_obs = []
        if not bundles:
            return results
        capture_trace = trace.active()
        # Only a registered task is ever planned into chunks.
        _, results_attr = UNIT_SEQUENCES.get(self.task_path, (None, None))
        #: class index -> {chunk: result} for classes awaiting chunks.
        partial: Dict[int, Dict[int, object]] = {}
        expected: Dict[int, int] = {}
        payload = self.artifact.to_bytes()

        def finish(index: int, unit: WorkUnit, record: object) -> None:
            prefix = str(unit.equivalence_class.prefix)
            # The stealing coordinator bypasses ClassFanOut._note_unit, so
            # it owns the per-class completion event here -- same shape,
            # once per class (after chunk re-merge), keeping the stream's
            # ordered completion set identical across executors.
            _events.emit(
                "class.completed",
                task=self.task_path,
                index=index,
                cls=prefix,
                seconds=round(self.observed_seconds.get(prefix, 0.0), 6),
            )
            if on_result is not None:
                on_result(index, record, self.observed_seconds.get(prefix, 0.0))
            if results is not None:
                results.append((index, record))

        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(bundles)),
                initializer=_core._init_worker,
                initargs=(payload,),
            ) as pool:
                unit_by_uid = {unit.uid: unit for unit in self.units}
                pending = {
                    pool.submit(
                        _run_units,
                        self.task_path,
                        [
                            (unit.uid, unit.index, unit.equivalence_class, unit.patch)
                            for unit in bundle
                        ],
                        self.options,
                        capture_trace,
                    )
                    for bundle in bundles
                }
                try:
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            for uid, index, item, seconds, obs in future.result():
                                unit = unit_by_uid[uid]
                                prefix = str(unit.equivalence_class.prefix)
                                if isinstance(item, _core._WorkerFailure):
                                    raise _core.PipelineError(
                                        f"task {self.task_path!r} on equivalence "
                                        f"class {item.prefix} failed in a process "
                                        f"worker: {item.error}\n{item.traceback}"
                                    )
                                self.captured_obs.append((index, unit.chunk, obs))
                                self.observed_seconds[prefix] = (
                                    self.observed_seconds.get(prefix, 0.0) + seconds
                                )
                                self.observed_units[prefix] = (
                                    self.observed_units.get(prefix, 0) + 1
                                )
                                if unit.chunks == 1:
                                    finish(index, unit, item)
                                    continue
                                chunks = partial.setdefault(index, {})
                                chunks[unit.chunk] = item
                                expected[index] = unit.chunks
                                if len(chunks) == expected[index]:
                                    ordered = [
                                        chunks[i] for i in range(expected[index])
                                    ]
                                    record = merge_chunks(ordered, results_attr)
                                    del partial[index]
                                    finish(index, unit, record)
                except BaseException:
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        except _core.PipelineError:
            raise
        except Exception as exc:  # e.g. BrokenProcessPool
            raise _core.PipelineError(
                f"stealing pool failed while running {self.task_path!r} on "
                f"{self.artifact.network.name}: {exc!r}"
            ) from exc
        return results


# ----------------------------------------------------------------------
# The synthetic skew task (scale benchmark / example)
# ----------------------------------------------------------------------
def sleep_class_task(bonsai, equivalence_class, options: dict) -> str:
    """The ``"bench-sleep"`` task: sleep a configured per-class duration.

    ``options["sleep_seconds"]`` maps class prefixes to seconds (default
    ``options["default_sleep"]``, default 0.01).  Sleeping workers run
    concurrently even on one CPU, so the scale benchmark's skew stage can
    prove the *scheduling* win (stealing vs static sharding) on any
    machine, independent of core count.
    """
    delays = options.get("sleep_seconds") or {}
    seconds = float(
        delays.get(str(equivalence_class.prefix), options.get("default_sleep", 0.01))
    )
    time.sleep(seconds)
    return str(equivalence_class.prefix)

