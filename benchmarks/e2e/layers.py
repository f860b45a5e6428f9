"""The traced pass: spans around each layer's public calls, recorded here.

End-to-end numbers come from untraced child processes (:mod:`measure`).
This module replays a workload's input *in this process* through the
same entry point the child runs, after wrapping the public functions
listed in :data:`SPANS` so that every call opens a span (name, start,
end, parent) in the benchmark's own :class:`Recorder`.  Nothing under
``src/`` is edited; spans inside the program are a later change.

A layer is a ``src/repro/`` module; a span is named ``<layer>.<call>``.
A span's *self time* is its duration minus the time its child spans
cover, so the self times of a replay add up to its wall clock.

The recorder is single-threaded by design: the replays run the serial
executor, and under the default process executor the workers are forked
copies whose spans are not collected -- the coordinator then sees the
whole fan-out as ``pipeline.execute`` self time, which is what blocks it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import importlib.util
import io
import json
import random
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from harness import HERE, OUT, ServeChild, median, python_cmd, request, run_child, work_dir
from measure import Outcome, measure_batch, measure_serve
from serveload import VERIFY_PER_DELTA, request_plan
from workloads import Workload, check_report, load_expected, report_facts, store_save_args


class Recorder:
    """In-memory span store: ``[name, start, end, parent index, size]``.

    ``size`` is the node count of the SRP or forwarding table a call
    worked on (0 when not applicable); it separates work on the concrete
    network from work on the far smaller abstract one.
    """

    def __init__(self, concrete_nodes: int) -> None:
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Node count of the workload's input network.
        self.concrete_nodes = concrete_nodes

    def _open(self, name: str, size: int) -> list:
        record = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, size]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name: str, function: Callable, size_of: Optional[Callable] = None):
        """``function``, opening a span named ``name`` around every call."""

        @functools.wraps(function)
        def traced(*args, **kwargs):
            # A call nested directly in a span of its own name (a per-node
            # check inside evaluate_suite) adds no information: stay in it.
            if self._stack and self.spans[self._stack[-1]][0] == name:
                return function(*args, **kwargs)
            record = self._open(name, size_of(*args, **kwargs) if size_of else 0)
            try:
                return function(*args, **kwargs)
            finally:
                self._close(record)

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """A span around a block of benchmark code (a replay's root)."""
        record = self._open(name, 0)
        try:
            yield
        finally:
            self._close(record)

    def self_times(self) -> List[float]:
        """Per span: duration minus the time covered by its direct children."""
        selfs = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                selfs[parent] -= end - start
        return selfs

    def root_of(self) -> List[str]:
        """Per span: the name of the root span it descends from."""
        roots: List[str] = []
        for name, _, _, parent, _ in self.spans:
            roots.append(name if parent < 0 else roots[parent])
        return roots


# ----------------------------------------------------------------------
# Which calls open which span
# ----------------------------------------------------------------------
def _srp_size(srp, *args, **kwargs) -> int:
    return srp.graph.num_nodes()


def _table_size(table, *args, **kwargs) -> int:
    return len(table.next_hops)


def _suite_table_size(specs, table, *args, **kwargs) -> int:
    return len(table.next_hops)


#: ``(span name, module, attribute path, size_of)``.  A plain function is
#: replaced in every ``repro`` module that imported it by name; a
#: ``Class.method`` path is replaced on the class.
SPANS: Sequence[Tuple[str, str, str, Optional[Callable]]] = (
    ("netgen.build", "repro.netgen.families", "build_topology", None),
    ("netgen.build", "repro.netgen.fattree", "fattree_network", None),
    ("abstraction.ec", "repro.abstraction.ec", "routable_equivalence_classes", None),
    ("bdd.encode", "repro.bdd.policy", "PolicyBddEncoder.__init__", None),
    ("bdd.encode", "repro.bdd.policy", "PolicyBddEncoder.encode_all_edges", None),
    ("config.compile", "repro.abstraction.bonsai", "Bonsai.compile_for", None),
    ("config.build_srp", "repro.config.transfer", "build_srp_from_network", None),
    ("bdd.specialise", "repro.abstraction.bonsai", "Bonsai.policy_keys", None),
    ("abstraction.compress_glue", "repro.abstraction.bonsai", "Bonsai.compress", None),
    ("abstraction.refine", "repro.abstraction.refinement", "compute_abstraction", None),
    ("abstraction.build_abstract", "repro.abstraction.bonsai",
     "Bonsai.build_abstract_network", None),
    ("srp.solve", "repro.srp.solver", "solve", _srp_size),
    ("srp.solve", "repro.srp.solver", "solve_seeded", _srp_size),
    ("analysis.table", "repro.analysis.dataplane", "forwarding_table_from_solution", None),
    ("analysis.check", "repro.analysis.properties", "evaluate_suite", _suite_table_size),
    # The batch verifier evaluates properties one node at a time through
    # the registry, so its checks are caught one level further down.
    *(
        ("analysis.check", "repro.analysis.properties", name, _table_size)
        for name in (
            "check_reachability", "check_all_paths_reach", "check_black_hole",
            "check_routing_loop", "check_bounded_path_length", "check_waypointing",
            "check_multipath_consistency",
        )
    ),
    ("failures.apply", "repro.failures.scenario", "FailureScenario.apply", None),
    ("failures.incremental", "repro.failures.incremental", "incremental_resolve", None),
    ("failures.soundness", "repro.failures.soundness", "check_scenario_soundness", None),
    ("delta.apply", "repro.delta.changeset", "ChangeSet.apply", None),
    ("delta.diff", "repro.delta.incremental", "diff_network_edges", None),
    ("delta.resolve", "repro.delta.incremental", "delta_resolve", None),
    ("delta.revalidate", "repro.delta.revalidate", "revalidate_class", None),
    ("pipeline.execute", "repro.pipeline.core", "ClassFanOut.execute", None),
    ("pipeline.run", "repro.pipeline.core", "CompressionPipeline.run", None),
    ("pipeline.run", "repro.analysis.batch", "BatchVerifier.run", None),
    ("pipeline.run", "repro.failures.sweep", "FailureSweep.run", None),
    ("pipeline.run", "repro.delta.sweep", "DeltaSweep.run", None),
    ("pipeline.report", "repro.pipeline.report", "PipelineReport.to_json", None),
    ("pipeline.report", "repro.analysis.batch", "VerificationReport.to_json", None),
    ("pipeline.report", "repro.failures.sweep", "FailureReport.to_json", None),
    ("pipeline.report", "repro.delta.sweep", "DeltaReport.to_json", None),
    ("store.save", "repro.store.store", "ArtifactStore.save", None),
    ("store.load", "repro.store.store", "ArtifactStore.load", None),
    ("serve.engine", "repro.serve.service", "VerificationService.verify", None),
    ("serve.engine", "repro.serve.service", "VerificationService.delta", None),
)

#: Layers in blocking order: the rows of the ledger.
LAYERS = (
    "netgen", "abstraction", "bdd", "config", "srp", "analysis", "failures",
    "delta", "pipeline", "store", "serve",
)


def install(recorder: Recorder) -> None:
    """Wrap every call in :data:`SPANS`.  Never undone: a process that
    traces is used for nothing else."""
    import repro  # noqa: F401 - imports every layer
    import repro.pipeline.cli  # noqa: F401

    for name, module_name, path, size_of in SPANS:
        module = importlib.import_module(module_name)
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(recorder.wrap(name, raw.__func__, size_of))
            else:
                wrapped = recorder.wrap(name, raw, size_of)
            setattr(owner, attr, wrapped)
            continue
        original = getattr(module, attr)
        wrapped = recorder.wrap(name, original, size_of)
        for candidate in list(sys.modules.values()):
            if (
                getattr(candidate, "__name__", "").startswith("repro")
                and candidate.__dict__.get(attr) is original
            ):
                setattr(candidate, attr, wrapped)


# ----------------------------------------------------------------------
# Replaying a workload's entry point in this process
# ----------------------------------------------------------------------
def entry_point(entry: str) -> Callable[[List[str]], int]:
    if entry == "verify_policy":
        spec = importlib.util.spec_from_file_location(
            "verify_policy", HERE / "children" / "verify_policy.py"
        )
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        return module.main
    from repro.pipeline import cli

    return cli.main


def replay(main: Callable[[List[str]], int], argv: List[str]) -> float:
    """Wall clock of ``main(argv)`` with stdout discarded.  A non-zero
    status is an error: the replay must do the work the child did."""
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        status = main(argv)
    if status != 0:
        raise RuntimeError(f"in-process replay {argv} returned {status}")
    return time.perf_counter() - start


# ----------------------------------------------------------------------
# Reference checks: never only the code under test
# ----------------------------------------------------------------------
#: Classes per workload on which the reference checks run.
REFERENCE_SAMPLE = 4


def reference_checks(workload: Workload, artifact, seed: int, outcome: Outcome) -> None:
    """On a seeded sample of classes, check CP-equivalence of the
    compression and the worklist solver against the full-sweep oracle."""
    from repro.abstraction.equivalence import check_cp_equivalence
    from repro.srp.solver import solve, solve_sweep

    bonsai = artifact.make_bonsai()
    classes = random.Random(f"reference:{seed}").sample(
        artifact.classes, min(REFERENCE_SAMPLE, len(artifact.classes))
    )
    for equivalence_class in classes:
        prefix = equivalence_class.prefix
        result = bonsai.compress(equivalence_class, build_network=False)
        srp = result.concrete_srp
        outcome.attempt(
            solve(srp).labeling == solve_sweep(srp).labeling, f"{prefix}: solve != solve_sweep"
        )
        try:
            report = check_cp_equivalence(srp, result.abstraction)
        except KeyError as exc:
            problem = f"{prefix}: check_cp_equivalence cannot map labels (KeyError {exc})"
            if workload.family == "wan":
                # Finding, not fixed here: an iBGP AS number in an AS path
                # is not a node, and the label mapping h raises.  Anywhere
                # else the same error is a failed check.
                outcome.notes.append(problem + "; skipped")
            else:
                outcome.attempt(False, problem)
            continue
        outcome.attempt(
            report.cp_equivalent,
            f"{prefix}: abstraction is not CP-equivalent: {report.violations[:2]}",
        )


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def self_seconds(recorder: Recorder, roots: Sequence[str]) -> Dict[str, float]:
    """Self seconds per span name below the given roots (roots excluded).

    ``srp.solve`` and ``analysis.check`` are split into ``_concrete`` and
    ``_abstract`` by the size of what they worked on: anything smaller
    than the input network is an abstract network.
    """
    out: Dict[str, float] = defaultdict(float)
    for (name, _, _, parent, size), self_s, root in zip(
        recorder.spans, recorder.self_times(), recorder.root_of()
    ):
        if parent < 0 or root not in roots:
            continue
        if name in ("srp.solve", "analysis.check"):
            name += "_concrete" if size >= recorder.concrete_nodes else "_abstract"
        out[name] += self_s
    return out


def by_layer(by_name: Dict[str, float]) -> Dict[str, float]:
    layers = dict.fromkeys(LAYERS, 0.0)
    for name, seconds in by_name.items():
        layers[name.split(".", 1)[0]] += seconds
    return layers


def inclusive_seconds(recorder: Recorder, name: str, root: str) -> float:
    """Total duration of the ``name`` spans directly below root ``root``."""
    spans = recorder.spans
    return sum(
        end - start
        for span_name, start, end, parent, _ in spans
        if span_name == name and parent >= 0 and spans[parent][3] < 0
        and spans[parent][0] == root
    )


def write_trace(recorder: Recorder, workload: str) -> None:
    """Write the spans kept in memory; called once, when the pass ends."""
    OUT.mkdir(exist_ok=True)
    origin = recorder.spans[0][1] if recorder.spans else 0.0
    with open(OUT / f"trace-{workload}.jsonl", "w", encoding="utf-8") as handle:
        for index, (name, start, end, parent, size) in enumerate(recorder.spans):
            handle.write(json.dumps({
                "workload": workload, "id": index, "parent": parent, "name": name,
                "start": round(start - origin, 7), "end": round(end - origin, 7),
                "size": size,
            }) + "\n")


def hit_ratio(counters: Dict[str, float], cache: str) -> float:
    hits = counters.get(f"{cache}.hits", 0)
    total = hits + counters.get(f"{cache}.misses", 0)
    return hits / total if total else 0.0


def ledger(outcome: Outcome, recorder: Recorder, wall_s: float, setup_s: float) -> None:
    """The per-workload ledger: ``wall_s = setup_s + sum of ledger.<layer>_s
    + harness.unattributed_s``, where a layer's share is its self time in
    the ``workload`` replay beyond its self time in the ``setup`` replay."""
    full = by_layer(self_seconds(recorder, ["workload"]))
    setup = by_layer(self_seconds(recorder, ["setup"]))
    attributed = 0.0
    for layer in LAYERS:
        outcome.metrics[f"ledger.{layer}_s"] = full[layer] - setup[layer]
        attributed += full[layer] - setup[layer]
    outcome.metrics["harness.wall_s"] = wall_s
    outcome.metrics["harness.setup_s"] = setup_s
    outcome.metrics["harness.unattributed_s"] = wall_s - setup_s - attributed


# ----------------------------------------------------------------------
# The traced pass of a batch workload
# ----------------------------------------------------------------------
def trace_batch(workload: Workload, seed: int, smoke: bool) -> Outcome:
    from repro.pipeline.core import CompressionPipeline
    from repro.pipeline.encoded import EncodedNetwork

    # The ledger needs this run's own untraced wall clock and set-up time.
    outcome = measure_batch(workload, seed, 0.0, smoke, min_runs=1 if smoke else 3)
    if "wall_s" not in outcome.metrics:
        return outcome
    wall_s, setup_s = outcome.metrics.pop("wall_s"), outcome.metrics.pop("setup_s")
    del outcome.metrics["peak_rss_mb"]
    metrics = outcome.metrics
    # What the fastest run hides: slow runs and added variance.
    metrics["harness.wall_median_s"] = median(outcome.samples["wall_s"])
    metrics["pipeline.cli.import_s"] = median([
        run_child(python_cmd("-c", "import repro.pipeline.cli")).wall_s
        for _ in range(1 if smoke else 3)
    ])

    main = entry_point(workload.entry)
    argv = workload.argv(seed, smoke)
    with work_dir() as tmp:
        report_path = tmp / "report.json"
        full_argv = argv + ["--output", str(report_path)]
        untraced_s = replay(main, full_argv)

        # Facts about the one-time artifact, and the reference checks, on
        # an artifact of our own: before tracing, so they leave no spans.
        network = workload.network(smoke)
        artifact = EncodedNetwork.build(network)
        metrics["abstraction.classes"] = len(artifact.classes)
        metrics["bdd.nodes"] = artifact.encoder.stats()["bdd_nodes"]
        start = time.perf_counter()
        payload = artifact.to_bytes()
        EncodedNetwork.from_bytes(payload)
        metrics["pipeline.payload_pickle_s"] = time.perf_counter() - start
        metrics["pipeline.payload_bytes"] = len(payload)
        reference_checks(workload, artifact, seed, outcome)

        recorder = Recorder(network.graph.num_nodes())
        install(recorder)
        with recorder.root("setup"):
            replay(main, argv + workload.setup_flags)
        with recorder.root("workload"):
            traced_s = replay(main, full_argv)
        with open(report_path, "r", encoding="utf-8") as handle:
            report = json.load(handle)
        outcome.absorb(*check_report(report, load_expected(workload.name, smoke), seed))

        executor = report.get("executor")
        if report["kind"] == "compression":
            inclusive = inclusive_seconds(recorder, "pipeline.run", "workload")
            if executor == "serial":
                metrics["pipeline.run_serial_s"] = inclusive
            else:
                # The default executor hides per-class work in forked
                # workers; a serial twin on our artifact shows it, and is
                # the number the default executor has to beat.
                metrics["pipeline.run_default_s"] = inclusive
                with recorder.root("serial-twin"):
                    CompressionPipeline(artifact=artifact, executor="serial").run()
                metrics["pipeline.run_serial_s"] = inclusive_seconds(
                    recorder, "pipeline.run", "serial-twin"
                )

    by_name = self_seconds(recorder, ["workload", "serial-twin"])
    for name, seconds in by_name.items():
        metrics[f"{name}_s"] = seconds
    serial_root = "workload" if executor == "serial" else "serial-twin"
    serial = self_seconds(recorder, [serial_root])
    metrics["pipeline.class_overhead_s"] = serial["pipeline.run"] + serial["pipeline.execute"]
    metrics["harness.trace_overhead_share"] = (traced_s - untraced_s) / untraced_s
    ledger(outcome, recorder, wall_s, setup_s)

    counters = report.get("obs_metrics", {}).get("counters", {})
    metrics["bdd.specialise_cache_hit_ratio"] = hit_ratio(counters, "bdd.specialize_cache")
    metrics["abstraction.refine_cache_hit_ratio"] = hit_ratio(
        counters, "abstraction.refinement_cache"
    )
    metrics["srp.transfer_cache_hit_ratio"] = hit_ratio(counters, "srp.transfer_cache")
    metrics["failures.scratch_fallbacks"] = counters.get("incremental.scratch_fallbacks", 0)
    facts = report_facts(report)
    for fact, metric in (
        ("abstract_edges_mean", "abstraction.abstract_edges_mean"),
        ("scenarios", "failures.scenarios"),
    ):
        if fact in facts:
            metrics[metric] = facts[fact]
    if report["kind"] == "failures":
        metrics["failures.scratch_s"] = report["aggregate"]["scratch_seconds"]
    elif report["kind"] == "delta":
        metrics["delta.recompressed_classes"] = sum(
            1 for r in report["records"] if any(step["recompressed"] for step in r["steps"])
        )
    write_trace(recorder, workload.name)
    return outcome


# ----------------------------------------------------------------------
# The traced pass of serve-mixed
# ----------------------------------------------------------------------
#: Sequential requests per HTTP probe (persistent, then fresh connections).
HTTP_PROBES = 40


def trace_serve(workload: Workload, seed: int, seconds: float, smoke: bool) -> Outcome:
    """Engine in this process under spans; transport against a child.

    The ledger column is one 100-request slice of the seeded mix (98
    ``/verify``, 2 ``/delta``) answered by the service in this process;
    what the untraced clients see beyond it -- HTTP, the socket, waiting
    for the interpreter lock -- is ``harness.unattributed_s``.
    """
    from repro.api import Session
    from repro.pipeline import cli
    from repro.serve import VerificationService
    from repro.store import ArtifactStore

    # The untraced closed loop first, over the full window: its serve.*
    # numbers are this pass's too, and its wall_s is the ledger's total.
    outcome = measure_serve(workload, seed, seconds, smoke, setup_runs=1)
    if "wall_s" not in outcome.metrics:
        return outcome
    metrics = outcome.metrics
    wall_s, setup_s = metrics.pop("wall_s"), metrics.pop("setup_s")
    del metrics["peak_rss_mb"]
    family, size = workload.family, workload.size_for(smoke)
    plans = request_plan(family, size, seed)
    mix = [step for plan in plans for step in plan[: VERIFY_PER_DELTA + 1]]

    def answer(service, path: str, payload: dict) -> float:
        start = time.perf_counter()
        if path == "/verify":
            body = service.verify(prefix=payload["prefix"])
        else:
            body = service.delta(script=payload["script"])
        elapsed = time.perf_counter() - start
        outcome.attempt(body.get("ok") is True, f"engine {path}: ok={body.get('ok')!r}")
        return elapsed * 1e3

    network = workload.network(smoke)
    recorder = Recorder(network.graph.num_nodes())
    with work_dir() as tmp:
        store = tmp / "store"
        save_argv = store_save_args(family, size, store)
        replay(cli.main, save_argv)
        untraced_service = VerificationService(
            Session(baseline=ArtifactStore(store).load_for(network))
        )
        start = time.perf_counter()
        for path, payload in mix:
            answer(untraced_service, path, payload)
        untraced_s = time.perf_counter() - start

        install(recorder)
        with recorder.root("store"):
            replay(cli.main, save_argv)
            baseline = ArtifactStore(store).load_for(network)
        metrics["store.payload_bytes"] = ArtifactStore(store).meta(baseline.fingerprint)[
            "payload_bytes"
        ]
        service = VerificationService(Session(baseline=baseline))
        engine_ms: Dict[str, List[float]] = {"/verify": [], "/delta": []}
        start = time.perf_counter()
        with recorder.root("workload"):
            for path, payload in mix:
                engine_ms[path].append(answer(service, path, payload))
        traced_s = time.perf_counter() - start
        metrics["serve.engine_verify_ms"] = median(engine_ms["/verify"])
        metrics["serve.engine_delta_ms"] = median(engine_ms["/delta"])

        # Transport: the same query over one persistent connection, then
        # over a new connection per request (the bench_serve.py shape).
        verify = next(step for step in mix if step[0] == "/verify")
        with ServeChild(family, size, store) as server:
            probes: Dict[str, List[float]] = {"persistent": [], "fresh": []}
            connection = server.connect()
            for shape in ("persistent", "fresh"):
                for _ in range(HTTP_PROBES // 4 if smoke else HTTP_PROBES):
                    start = time.perf_counter()
                    if shape == "fresh":
                        connection.close()
                        connection = server.connect()
                    status, body, _ = request(connection, "POST", *verify)
                    probes[shape].append((time.perf_counter() - start) * 1e3)
                    outcome.attempt(
                        status == 200 and body.get("ok") is True, f"probe /verify: {status}"
                    )
            connection.close()
        metrics["serve.http_verify_ms"] = median(probes["persistent"])
        metrics["serve.http_fresh_verify_ms"] = median(probes["fresh"])

    for name, seconds_ in self_seconds(recorder, ["workload", "store"]).items():
        metrics[f"{name}_s"] = seconds_
    metrics["harness.trace_overhead_share"] = (traced_s - untraced_s) / untraced_s
    # Set-up is not part of a request's wall clock: the serve ledger is
    # wall_s = sum of layers + unattributed.
    ledger(outcome, recorder, wall_s, 0.0)
    metrics["harness.setup_s"] = setup_s
    write_trace(recorder, workload.name)
    return outcome


def trace(workload: Workload, seed: int, seconds: float, smoke: bool) -> Outcome:
    if workload.entry == "serve":
        return trace_serve(workload, seed, seconds, smoke)
    return trace_batch(workload, seed, smoke)
