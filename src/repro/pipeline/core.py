"""The parallel per-class pipeline (§5.1's "classes are independent").

Destination equivalence classes never interact, so any per-class job --
compression, property verification, ... -- can be fanned out over a pool
of workers once the one-time :class:`~repro.pipeline.encoded.EncodedNetwork`
artifact is in hand.  :class:`ClassFanOut` is that generic engine: it
dispatches a *registered task* over the classes and streams the
per-class results back in class order.  Three executors are supported:

* ``"auto"`` (the default) -- probe, then fork: classes start running
  inline like ``"serial"``, every finished class updates the measured
  per-class cost, and the remaining classes go to the ``"process"``
  executor only once the time a pool would save exceeds what starting
  one costs (:data:`POOL_START_SECONDS`).  A run whose classes cost a
  millisecond each never forks; one whose classes cost tens of
  milliseconds forks after its second class;
* ``"process"`` -- a :class:`~concurrent.futures.ProcessPoolExecutor`; the
  one-time artifact is pickled once and handed to each worker process via
  the pool initializer, so every process owns a private, fully hash-consed
  :class:`~repro.bdd.manager.BddManager`.  :meth:`ClassFanOut.plan` cuts
  the classes into work bundles, all of which are queued up front; an
  idle worker pulls the next;
* ``"serial"`` -- everything runs inline on the caller's objects, in class
  order, with no pickling.  This is the deterministic fallback and the
  baseline the scaling benchmark compares against.

Tasks are module-level callables ``task(bonsai, equivalence_class,
options) -> result`` addressed by a ``"module:function"`` path, so worker
processes can resolve them by import regardless of which modules the
coordinator happened to load.  :data:`CLASS_TASKS` maps short names
(``"compress"``, ``"verify"``) to those paths.

Every batch driver is one :meth:`ClassFanOut.run_report` call: the task's
results fold into one report as they arrive.  :class:`CompressionPipeline`
is the ``"compress"`` task plus that report; the batch verifier
(:class:`repro.analysis.batch.BatchVerifier`, the ``"verify"`` task) and
the perturbation sweeps (:class:`repro.pipeline.perturb.PerturbationSweep`)
hold a fan-out of their own.
"""

from __future__ import annotations

import importlib
import os
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.abstraction.bonsai import Bonsai, CompressionResult
from repro.abstraction.ec import EquivalenceClass
from repro.config.network import Network
from repro.obs import events as _events
from repro.obs import finish_run, snapshot_run
from repro.obs import metrics as _metrics
from repro.obs import trace
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import EcRecord, PipelineReport

#: The executors understood by :class:`ClassFanOut`.
EXECUTORS = ("auto", "serial", "process")

#: What a process pool costs before it saves anything, in seconds of
#: wall clock: fork, one unpickle of the artifact and one warm-up class
#: per worker, shutdown.  Measured, not tuned: the e2e ledger's
#: ``pipeline.run_default_s`` - ``pipeline.run_serial_s`` / 2 on
#: ``compress-fattree-pool`` (0.32 - 0.11 / 2 = 0.26 s; README,
#: "Start-up and executor selection") while that workload's default
#: executor still forked.  Under ``"auto"`` it no longer does (72 classes
#: of ~1.5 ms stay inline), so no benchmark workload runs the pool and
#: none re-measures this.  The ``"auto"`` executor forks only when the
#: pool is estimated to save more than this.
POOL_START_SECONDS = 0.25

#: What the pool adds per class, in seconds: dispatch, the result pickled
#: in the worker, unpickled and merged by the coordinator.  A class
#: cheaper than this is not worth shipping however many there are.
#: Measured with the constant above: a 2-worker fat-tree compress costs
#: 0.22 / 0.50 / 0.86 s more than half its serial run at k=12 / 16 / 24
#: (72 / 128 / 288 classes), i.e. 0.25 s + 2 ms a class.
POOL_UNIT_SECONDS = 0.002

#: One unit of pool work: ``(class index, class)``.
Unit = Tuple[int, EquivalenceClass]


class PipelineError(RuntimeError):
    """A worker failed while running a per-class task."""


# ----------------------------------------------------------------------
# Task registry
# ----------------------------------------------------------------------
#: Short task name -> ``"module:function"`` path of a per-class callable
#: ``task(bonsai, equivalence_class, options) -> result``.  The *path* is
#: what gets shipped to workers, so fresh processes resolve the callable
#: by import without needing the registering module pre-loaded.  The
#: built-in tasks are listed here rather than registered as their modules
#: import, so a name resolves whichever pillars the process has loaded.
CLASS_TASKS: Dict[str, str] = {
    "compress": "repro.pipeline.core:compress_class_task",
    "verify": "repro.analysis.batch:verify_class_task",
    "failures": "repro.failures.sweep:failure_class_task",
    "delta": "repro.delta.sweep:delta_class_task",
    "baseline": "repro.store.artifact:baseline_class_task",
}


def resolve_class_task(name_or_path: str) -> str:
    """Normalise a task reference to its ``"module:function"`` path."""
    if not isinstance(name_or_path, str) or not name_or_path.strip():
        raise ValueError(
            "task name must be a non-empty string (a registered name or a "
            "'module:function' path)"
        )
    if name_or_path in CLASS_TASKS:
        return CLASS_TASKS[name_or_path]
    if ":" in name_or_path:
        return name_or_path
    known = ", ".join(sorted(CLASS_TASKS))
    raise ValueError(f"unknown task {name_or_path!r}; registered: {known}")


def _import_task(path: str) -> Callable[[Bonsai, EquivalenceClass, dict], object]:
    module_name, _, attr = path.partition(":")
    module = importlib.import_module(module_name)
    try:
        return getattr(module, attr)
    except AttributeError:
        raise PipelineError(f"task {path!r} does not exist") from None


def compress_class_task(
    bonsai: Bonsai, equivalence_class: EquivalenceClass, options: dict
) -> CompressionResult:
    """The ``"compress"`` task: Bonsai compression of one class, or its
    class orbit's mapped partition (:mod:`repro.abstraction.orbit`)."""
    from repro.abstraction.orbit import ClassOrbit  # set-up runs no class: not loaded
    with trace.span("compress", cls=str(equivalence_class.prefix)):
        srp = bonsai.concrete_srp(equivalence_class)
        result = ClassOrbit(bonsai, equivalence_class).compress(srp)
    if options.get("detach_srp"):  # CompressionPipeline._with_concrete_srp puts it back
        result.concrete_srp = None
    return result


# ----------------------------------------------------------------------
# Worker side
# ----------------------------------------------------------------------
#: The pool worker's own Bonsai over its private copy of the artifact.
_worker_bonsai: Optional[Bonsai] = None


def _init_worker(payload: bytes) -> None:
    """Pool initializer: unpickle a private copy of the one-time artifact."""
    global _worker_bonsai
    _worker_bonsai = EncodedNetwork.from_bytes(payload).make_bonsai()


def _run_units(
    task_path: str, units: Sequence[Unit], options: dict, capture_trace: bool
) -> List[Tuple[int, object, float, dict]]:
    """Run one bundle of classes in a pool worker.

    Each class comes back as ``(index, result, seconds, obs)``:
    ``obs`` carries the unit's captured span subtree (when the
    coordinator's ``trace.active()``, relayed as ``capture_trace``: worker
    processes never saw ``trace.begin()``) and its worker-local counter
    delta back across the pool boundary.  Failures are returned as
    :class:`_WorkerFailure` markers rather than raised, so one bad class
    produces a clean coordinator-side error naming the class instead of a
    bare pickled traceback from the pool.
    """
    task = _import_task(task_path)
    out = []
    for index, equivalence_class in units:
        start = time.perf_counter()
        with trace.capture_unit(
            capture_trace, True, cls=str(equivalence_class.prefix)
        ) as obs:
            try:
                result = task(_worker_bonsai, equivalence_class, options)
            except Exception as exc:  # noqa: BLE001 - reported to the coordinator
                result = _WorkerFailure(
                    prefix=str(equivalence_class.prefix),
                    error=repr(exc),
                    traceback=traceback.format_exc(),
                )
        out.append((index, result, time.perf_counter() - start, obs))
    return out


@dataclass
class _WorkerFailure:
    """A pickleable stand-in for an exception raised inside a worker."""

    prefix: str
    error: str
    traceback: str


# ----------------------------------------------------------------------
# Coordinator side
# ----------------------------------------------------------------------
class ClassFanOut:
    """Fan a registered per-class task out over the equivalence classes.

    Parameters
    ----------
    network:
        The configured network (ignored when ``artifact`` is given).
    artifact:
        A pre-built :class:`EncodedNetwork`; building one up front lets
        several runs (e.g. serial and parallel benchmark arms) share the
        one-time encoding.
    task:
        A registered task name (see :data:`CLASS_TASKS`) or an explicit
        ``"module:function"`` path.
    task_options:
        A pickleable dictionary passed verbatim to every task invocation.
    executor:
        ``"auto"`` (default), ``"serial"`` or ``"process"``.
    workers:
        Worker count for the process pool (default: one per CPU; a pool
        never starts more workers than it has work bundles).
    limit:
        Run only the first ``limit`` classes.
    pool_task_options:
        Overlaid on ``task_options`` for the classes a *process* worker
        runs (what must not cross the result pipe, say).
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        task: str = "compress",
        task_options: Optional[dict] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        limit: Optional[int] = None,
        pool_task_options: Optional[dict] = None,
    ):
        if executor not in EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; expected one of {EXECUTORS}"
            )
        if network is None and artifact is None:
            raise ValueError("either a network or an EncodedNetwork is required")
        if workers is None:
            workers = os.cpu_count() or 1
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if limit is not None and limit < 0:
            raise ValueError("limit must be >= 0")
        self.network = artifact.network if artifact is not None else network
        self.artifact = artifact
        self.task = resolve_class_task(task)
        self.task_options = dict(task_options or {})
        self.pool_task_options = dict(pool_task_options or {})
        self.executor = executor
        self.workers = workers
        self.limit = limit
        #: What the most recent :meth:`execute` actually ran.
        self.last_classes: List[EquivalenceClass] = []
        self.last_batches: List[List[Tuple[int, EquivalenceClass]]] = []
        #: What the ``"auto"`` executor chose on the last execute, as the
        #: reports' summaries print it ("" under an explicit executor).
        self.last_selection: str = ""
        #: Observed wall-clock per class prefix of the last execute.
        self.last_unit_seconds: Dict[str, float] = {}
        self._unit_obs: List[Tuple[int, dict]] = []

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _ensure_artifact(self) -> EncodedNetwork:
        if self.artifact is None:
            with trace.span("encode", network=self.network.name):
                self.artifact = EncodedNetwork.build(self.network)
        return self.artifact

    def plan(self, indexed: Sequence[Unit]) -> List[List[Unit]]:
        """Cut ``(index, class)`` pairs into the bundles a pool runs:
        contiguous runs of ``ceil(n / (4 x workers))`` classes in class
        order -- about four per worker, large enough to amortise
        dispatch, small enough that a straggler cannot idle the pool."""
        size = max(1, -(-len(indexed) // (4 * self.workers)))
        return [list(indexed[i : i + size]) for i in range(0, len(indexed), size)]

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def prepare(self) -> Tuple[EncodedNetwork, List[EquivalenceClass]]:
        """Build (or reuse) the artifact and resolve the classes to run.

        Streaming drivers call this before :meth:`execute` so report
        skeletons (class counts, encode time) exist before the first
        result arrives.
        """
        artifact = self._ensure_artifact()
        classes = artifact.classes
        if self.limit is not None:
            classes = classes[: self.limit]
        self.last_classes = classes
        return artifact, classes

    def run_report(
        self,
        make_report: Callable[..., object],
        to_record: Optional[Callable[[int, object], object]] = None,
        spill: bool = False,
        spill_path: Optional[str] = None,
    ):
        """The run every batch driver shares: :meth:`prepare`, build the
        report with ``make_report(**header)`` (the fields every kind
        shares), merge ``to_record(index, result)`` (default: the result)
        into it as each class completes, then stamp ``total_seconds`` and
        :func:`repro.obs.finish_run`.  With ``spill`` the records go to a
        :class:`~repro.pipeline.stream.RecordSpill` at ``spill_path`` (or
        a temp file) instead of memory.
        """
        counters_before = snapshot_run()
        start = time.perf_counter()
        artifact, classes = self.prepare()
        report = make_report(
            network_name=self.network.name,
            executor=self.executor,
            workers=1 if self.executor == "serial" else self.workers,
            num_classes=len(classes),
            encode_seconds=artifact.encode_seconds,
            total_seconds=0.0,
        )
        if spill:
            from repro.pipeline.stream import RecordSpill

            report.attach_spill(RecordSpill(spill_path))

        # Records merge in class order whatever order the pool completes
        # them in (StreamingReport.merge_partial).
        def on_result(index: int, result, seconds: float) -> None:
            report.merge_partial(index, result if to_record is None else to_record(index, result))

        self.execute(on_result)
        report.total_seconds = time.perf_counter() - start
        finish_run(report, counters_before, self.last_selection)
        return report

    def execute(
        self, on_result: Optional[Callable[[int, object, float], None]] = None
    ) -> Optional[List[object]]:
        """Run the task on every class.

        With ``on_result`` the per-class results *stream*: the callback
        receives ``(class index, result, observed seconds)`` as each
        class completes (completion order, not class order), and nothing
        is collected -- the driver holds O(1) results in memory.  Without
        it, the full result list comes back in class order.

        The classes and batches actually used are kept on
        ``last_classes`` / ``last_batches`` so aggregators report exactly
        what ran instead of re-deriving (and possibly diverging from) the
        batching; observed per-class wall-clock lands on
        ``last_unit_seconds``.
        """
        artifact, classes = self.prepare()
        self.last_unit_seconds = {}
        self.last_batches = []
        self.last_selection = ""
        sweep_t0 = time.perf_counter()
        _events.emit(
            "sweep.start",
            task=self.task,
            network=self.network.name,
            executor=self.executor,
            workers=1 if self.executor == "serial" else self.workers,
            classes=len(classes),
        )

        #: Per-class observability captures -- ``(index, blob)`` --
        #: buffered during the run and folded in *sorted by index*
        #: afterwards, so the attached trace subtrees (and merged counter
        #: deltas) are independent of completion order.
        self._unit_obs = []
        out: Optional[List[Tuple[int, object]]] = [] if on_result is None else None
        indexed = list(enumerate(classes))
        probed = 0
        if self.executor == "serial":
            self.last_batches = self.plan(indexed)
            probed = self._run_serial(artifact, indexed, on_result, out)
        elif self.executor == "auto" and classes:
            probed = self._probe(artifact, classes, on_result, out)
        pooled = probed < len(classes)
        if pooled:
            self._run_pool(artifact, indexed[probed:], on_result, out)
        _metrics.counter(f"pipeline.executor.{'pool' if pooled else 'serial'}").inc()
        self._finalize_unit_obs()
        _events.emit(
            "sweep.end",
            task=self.task,
            network=self.network.name,
            classes=len(classes),
            seconds=round(time.perf_counter() - sweep_t0, 6),
        )

        if out is None:
            return None
        return [result for _, result in sorted(out, key=lambda p: p[0])]

    def _note_unit(
        self,
        index: int,
        equivalence_class: EquivalenceClass,
        result: object,
        seconds: float,
        on_result,
        out,
    ) -> None:
        """One class finished."""
        prefix = str(equivalence_class.prefix)
        self.last_unit_seconds[prefix] = seconds
        _events.emit(
            "class.completed",
            task=self.task,
            index=index,
            cls=prefix,
            seconds=round(seconds, 6),
        )
        if on_result is not None:
            on_result(index, result, seconds)
        if out is not None:
            out.append((index, result))

    def _finalize_unit_obs(self) -> None:
        """Fold the buffered per-unit captures into the coordinator.

        Counter deltas merge into the global registry: only units a
        process worker ran carry one (inline units, the probed prefix of
        an ``"auto"`` run included, counted in this registry as they ran).
        Captured span subtrees attach under the current span sorted by
        class index, so the resulting trace tree is bit-identical across
        serial, process and auto runs.
        """
        entries = sorted(self._unit_obs, key=lambda entry: entry[0])
        self._unit_obs = []
        for _, blob in entries:
            delta = blob.get("metrics")
            if delta:
                _metrics.merge_counters(delta)
        for prefix, seconds in sorted(self.last_unit_seconds.items()):
            _metrics.histogram("pipeline.class_seconds").observe(seconds)
        _metrics.counter("pipeline.classes_completed").inc(len(self.last_unit_seconds))
        if not trace.active():
            return
        for _, blob in entries:
            if blob.get("span") is not None:
                trace.attach(blob["span"])

    def _probe(self, artifact: EncodedNetwork, classes, on_result, out) -> int:
        """The first half of ``"auto"``: run classes inline until handing
        the rest to a process pool is estimated to pay.  Returns how many
        classes ran: all of them when a pool never pays.

        The estimate is ``remaining x (mean x (1 - 1/w) - POOL_UNIT_SECONDS)``
        against :data:`POOL_START_SECONDS`, with ``w`` the workers that
        could be busy (at most one per CPU and per remaining class) and
        ``mean`` taken over every probed class but the first: that one
        pays the per-``Bonsai`` caches (compiled base, class family,
        specialised BDDs -- 13 ms against 1.5 ms on a k=12 fat-tree),
        which every pool worker would pay again.
        """
        cpus = os.cpu_count() or 1
        first = total = mean = 0.0

        def pool_pays(done: int, seconds: float) -> bool:
            nonlocal first, total, mean
            total += seconds
            remaining = len(classes) - done
            if done == 1:
                first = seconds
            if done == 1 or not remaining:
                return False
            mean = (total - first) / (done - 1)
            width = min(self.workers, cpus, remaining)
            saved = remaining * (mean * (1 - 1 / width) - POOL_UNIT_SECONDS)
            return saved > POOL_START_SECONDS

        probed = self._run_serial(
            artifact, list(enumerate(classes)), on_result, out, pool_pays
        )
        self.last_batches = [list(enumerate(classes[:probed]))]
        remaining = len(classes) - probed
        _events.emit(
            "executor.selected",
            task=self.task,
            decision="pool" if remaining else "serial",
            probed=probed,
            mean_seconds=round(mean, 6),
            remainder_seconds=round(remaining * mean, 6),
            break_even_seconds=POOL_START_SECONDS,
        )
        if remaining:
            self.last_selection = (
                f"pool after {probed} of {len(classes)} classes "
                f"({mean:.4f} s/class, {remaining * mean:.2f} s left; "
            )
        else:
            self.last_selection = f"serial ({probed} classes, {total:.2f} s; "
        self.last_selection += f"pool break-even {POOL_START_SECONDS} s)"
        return probed

    def _run_serial(
        self,
        artifact: EncodedNetwork,
        indexed: Sequence[Tuple[int, EquivalenceClass]],
        on_result,
        out: Optional[List[Tuple[int, object]]],
        stop: Optional[Callable[[int, float], bool]] = None,
    ) -> int:
        """Run ``indexed`` classes inline, in order, on one ``Bonsai`` of
        this process; returns how many ran.  ``stop(done, seconds)`` is
        asked after every class whether to leave the rest to someone else.
        """
        bonsai = artifact.make_bonsai()
        task = _import_task(self.task)
        capture = trace.active()
        try:
            for done, (index, equivalence_class) in enumerate(indexed, 1):
                start = time.perf_counter()
                # Even inline units go through capture_unit: spans buffer
                # and attach index-sorted afterwards, exactly like pool
                # units, so serial and pooled trace trees are identical.
                with trace.capture_unit(
                    capture, False, cls=str(equivalence_class.prefix)
                ) as obs:
                    try:
                        result = task(bonsai, equivalence_class, self.task_options)
                    except Exception as exc:
                        raise PipelineError(
                            f"task {self.task!r} on equivalence class "
                            f"{equivalence_class.prefix} failed: {exc!r}"
                        ) from exc
                if capture:
                    self._unit_obs.append((index, obs))
                seconds = time.perf_counter() - start
                self._note_unit(index, equivalence_class, result, seconds, on_result, out)
                if stop is not None and stop(done, seconds):
                    return done
            return len(indexed)
        finally:
            bonsai.orbits.clear()

    def _run_pool(
        self,
        artifact: EncodedNetwork,
        indexed: Sequence[Unit],
        on_result,
        out: Optional[List[Tuple[int, object]]],
    ) -> None:
        """Run ``indexed`` classes on a process pool, one :meth:`plan`
        bundle per submission, passing each class on as it lands."""
        # Imported where a pool is created: a run that never forks never
        # loads multiprocessing.
        from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
        from concurrent.futures.process import BrokenProcessPool

        # Before forking, so the workers inherit the task's module.
        _import_task(self.task)
        bundles = self.plan(indexed)
        self.last_batches += bundles
        class_by_index = dict(indexed)
        options = {**self.task_options, **self.pool_task_options}
        payload = artifact.to_bytes()
        capture = trace.active()
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(bundles)),
                initializer=_init_worker,
                initargs=(payload,),
            ) as pool:
                pending = {
                    pool.submit(_run_units, self.task, bundle, options, capture)
                    for bundle in bundles
                }
                try:
                    while pending:
                        done, pending = wait(pending, return_when=FIRST_COMPLETED)
                        for future in done:
                            for index, result, seconds, obs in future.result():
                                if isinstance(result, _WorkerFailure):
                                    raise PipelineError(
                                        f"task {self.task!r} on equivalence class "
                                        f"{result.prefix} failed in a process "
                                        f"worker: {result.error}\n{result.traceback}"
                                    )
                                self._unit_obs.append((index, obs))
                                self._note_unit(
                                    index, class_by_index[index], result, seconds,
                                    on_result, out,
                                )
                except BaseException:
                    # Surface the error now rather than after every queued
                    # bundle has run to completion.
                    pool.shutdown(wait=False, cancel_futures=True)
                    raise
        except PipelineError:
            raise
        except BrokenProcessPool as exc:
            _metrics.counter("pipeline.pool_failures").inc()
            _events.emit(
                "pool.failed", task=self.task, network=self.network.name, error=repr(exc)
            )
            raise PipelineError(
                f"task {self.task!r} on {self.network.name}: a worker process "
                f"died ({exc})"
            ) from exc
        except Exception as exc:
            raise PipelineError(
                f"process pool failed while running {self.task!r} on "
                f"{self.network.name}: {exc!r}"
            ) from exc


@dataclass
class PipelineRun:
    """The outcome of one compression-pipeline execution."""

    #: Full per-class results, in equivalence-class order.
    results: List[CompressionResult]
    #: Aggregated, JSON-serialisable view of the run.
    report: PipelineReport


class CompressionPipeline(ClassFanOut):
    """Batch, fan out, and aggregate per-class compression.

    This is :class:`ClassFanOut` specialised to the ``"compress"`` task,
    plus aggregation of the per-class outcomes into a
    :class:`~repro.pipeline.report.PipelineReport`.  The parameters are
    :class:`ClassFanOut`'s minus ``task`` and its options.
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        executor: str = "auto",
        workers: Optional[int] = None,
        limit: Optional[int] = None,
    ):
        super().__init__(
            network,
            artifact=artifact,
            task="compress",
            pool_task_options={"detach_srp": True},
            executor=executor,
            workers=workers,
            limit=limit,
        )
        self._srp_bonsai: Optional[Bonsai] = None

    def _with_concrete_srp(self, result: CompressionResult) -> CompressionResult:
        """Rebuild the concrete SRP a process worker's result left behind.

        Its transfer function holds the network and the compiled edges:
        350 KB in every result message on a k=12 fat-tree, which made the
        result pipe what a pooled run waited for.  The coordinator has both.
        """
        if result.concrete_srp is None:
            if self._srp_bonsai is None:
                self._srp_bonsai = self.artifact.make_bonsai()
            result.concrete_srp = self._srp_bonsai.concrete_srp(result.equivalence_class)
        return result

    @classmethod
    def from_bonsai(cls, bonsai: Bonsai, **kwargs) -> "CompressionPipeline":
        """A pipeline reusing a ``Bonsai``'s network and (built) encoder."""
        artifact = EncodedNetwork.build(bonsai.network, encoder=bonsai.encoder)
        return cls(artifact=artifact, **kwargs)

    def run(self) -> PipelineRun:
        """Compress every class and aggregate the results."""
        results: Dict[int, CompressionResult] = {}

        def to_record(index: int, result: CompressionResult) -> EcRecord:
            results[index] = result = self._with_concrete_srp(result)
            return EcRecord.from_result(result)

        report = self._compress(to_record)
        return PipelineRun(results=[results[i] for i in sorted(results)], report=report)

    def run_streaming(
        self, spill: bool = True, spill_path: Optional[str] = None
    ) -> PipelineReport:
        """Compress every class, keeping only the records: with ``spill``
        (default) each record goes to a JSONL spill file the moment it
        arrives, so the driver holds O(1) records in memory regardless of
        network size.  Callers needing the full ``CompressionResult``
        objects want :meth:`run`.
        """
        return self._compress(
            lambda index, result: EcRecord.from_result(self._with_concrete_srp(result)),
            spill,
            spill_path,
        )

    def _compress(self, to_record, spill: bool = False, spill_path=None) -> PipelineReport:
        report = self.run_report(
            lambda **header: PipelineReport(batch_size=0, num_batches=0, **header),
            to_record,
            spill,
            spill_path,
        )
        batches = self.last_batches
        report.batch_size = len(batches[0]) if batches else 0
        report.num_batches = len(batches)
        return report
