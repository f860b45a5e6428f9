"""Command-line front end: ``python -m repro.pipeline``.

The CLI is organised as subcommands, one per pillar::

    python -m repro.pipeline compress --topo fattree --size 4 --workers 2
    python -m repro.pipeline verify   --family fattree
    python -m repro.pipeline failures --family wan --k 2 --sample 50
    python -m repro.pipeline delta    --family fattree --changes changes.json
    python -m repro.pipeline store    save --topo ring --size 5 --store ./artifacts
    python -m repro.pipeline serve    --topo fattree --store ./artifacts --port 8642

``store`` persists warm baseline artifacts (encoded network, per-class
labelings, transfer memos, signatures, partitions, compressions) keyed by
the network's content fingerprint; ``delta --baseline PATH`` then
validates a change script against a stored baseline with **zero**
baseline re-solves, and ``serve`` answers verify / delta / failure /
k-resilience queries over HTTP off the same warm artifact.

Examples
--------
Compress a k=4 fat-tree over two worker processes and print the summary::

    python -m repro.pipeline compress --topo fattree --size 4 --workers 2

Verify selected properties on every generated family and save the
combined JSON report (exit status 1 if any verdict diverges)::

    python -m repro.pipeline verify --family all \
        --properties reachability,routing-loop-freedom --output verify.json

Sweep every single-link failure of a fat-tree, re-solving incrementally
(scratch-oracle cross-checked) and flagging per-scenario abstraction
soundness::

    python -m repro.pipeline failures --family fattree --k 1 \
        --output failure_report.json

Validate a what-if change script against a *stored* baseline -- no
baseline re-solve, stored compressions reused for revalidation::

    python -m repro.pipeline store save --topo fattree --store ./artifacts
    python -m repro.pipeline delta --family fattree \
        --changes changes.json --baseline ./artifacts
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import List, Optional

# A pillar (verification, sweeps, store, service) is imported inside the
# subcommand that runs it: ``compress`` loads none of them.
from repro.analysis.properties import registered_properties
from repro.netgen.families import (
    TOPOLOGY_FAMILIES,
    build_topology,
    default_failure_sample,
    default_size,
)
from repro.obs import trace
from repro.pipeline.core import EXECUTORS, CompressionPipeline, PipelineError


def _topology_arguments(parser: argparse.ArgumentParser) -> None:
    families = ", ".join(
        f"{name} ({hint})" for name, (_, hint) in sorted(TOPOLOGY_FAMILIES.items())
    )
    parser.add_argument(
        "--topo",
        choices=sorted(TOPOLOGY_FAMILIES),
        help=f"topology family; size parameter per family: {families}",
    )
    parser.add_argument(
        "--family",
        choices=sorted(TOPOLOGY_FAMILIES) + ["all"],
        help="alias for --topo; 'all' runs every family at its default size",
    )
    parser.add_argument(
        "--size",
        type=int,
        default=None,
        help="family size parameter (defaults to a small per-family size)",
    )


def _execution_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker count for parallel executors (default: one per CPU)",
    )
    parser.add_argument(
        "--executor",
        choices=EXECUTORS,
        default="auto",
        help="how to run the per-class work (default: auto -- start inline, "
        "fork a process pool once the measured per-class cost says it pays)",
    )
    parser.add_argument(
        "--limit", type=int, default=None, help="process only the first N classes"
    )
    parser.add_argument(
        "--syntactic",
        action="store_true",
        help="use syntactic policy keys instead of BDDs (ablation mode)",
    )
    parser.add_argument(
        "--memory-budget",
        type=float,
        default=None,
        metavar="MIB",
        help="bound aggregation memory: stream per-class records to a "
        "disk spill and fail (exit 1) if peak RSS exceeds this many MiB",
    )
    _trace_argument(parser)


def _trace_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="PATH",
        help="write a structured trace of the run (spans across all "
        "executors, parent-linked, with per-span metric deltas) as "
        "schema-versioned JSONL; inspect with 'trace summarize PATH'",
    )
    parser.add_argument(
        "--profile",
        default=None,
        metavar="PATH",
        help="sample the run with the span-scoped profiler and write the "
        "profile as schema-versioned JSONL; render a flamegraph with "
        "'profile flamegraph PATH'",
    )
    parser.add_argument(
        "--events",
        default=None,
        metavar="PATH",
        help="write the structured event stream (sweep/class/split/pool/"
        "spill/fallback/store events) as schema-versioned JSONL",
    )
    parser.add_argument(
        "--progress",
        action="store_true",
        help="render a live progress meter on stderr (ETA from the class "
        "completion rate)",
    )


def _sweep_arguments(parser, seed_for: str) -> None:
    """The flags both perturbation sweeps (failures, delta) take."""
    parser.add_argument(
        "--seed", type=int, default=None, help=f"seed for {seed_for} (default 0)"
    )
    parser.add_argument(
        "--no-oracle",
        action="store_true",
        help="skip the scratch-solve oracle cross-check (faster, ungated)",
    )


def _failure_arguments(parser) -> None:
    _sweep_arguments(parser, "--sample")
    parser.add_argument(
        "--k",
        type=int,
        default=None,
        help="enumerate all scenarios of at most k simultaneous failures "
        "(default 1: every single-link failure)",
    )
    parser.add_argument(
        "--sample",
        type=int,
        default=None,
        help="deterministically sample this many scenarios instead of "
        "enumerating (default: per-family cap for k>=2, exhaustive for k=1)",
    )
    parser.add_argument(
        "--fail-nodes",
        action="store_true",
        help="also enumerate node failures (default: links only)",
    )
    parser.add_argument(
        "--no-soundness",
        action="store_true",
        help="skip the per-scenario abstraction-soundness checker",
    )


def _delta_arguments(parser) -> None:
    _sweep_arguments(parser, "the generated change script")
    parser.add_argument(
        "--changes",
        default=None,
        metavar="FILE|generated",
        help="JSON change script (a list of change sets, a single change "
        "set, or {\"script\": [...]}), or the literal 'generated' for the "
        "deterministic per-family change scenarios (the default)",
    )
    parser.add_argument(
        "--steps",
        type=int,
        default=None,
        help="cap the generated change script at this many steps "
        "(default: per-family)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="STORE|ENTRY",
        help="validate against a stored baseline artifact (an artifact "
        "store root, or one entry directory): zero baseline re-solves, "
        "stored compressions reused for revalidation",
    )
    parser.add_argument(
        "--no-revalidate",
        action="store_true",
        help="skip the per-step abstraction revalidator",
    )
    parser.add_argument(
        "--no-rebuild-oracle",
        action="store_true",
        help="skip timing the full-rebuild arm when the abstraction is "
        "reused (faster; the reported speedup loses its denominator)",
    )


def _output_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--output",
        default=None,
        help="write the JSON report to this file (a single report object; "
        "with --family all, a {family: report} map)",
    )
    parser.add_argument(
        "--per-class", action="store_true", help="also print one line per class"
    )


def _suite_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--properties",
        default=None,
        help="comma-separated registered property names "
        f"(default: all of {', '.join(registered_properties())})",
    )
    parser.add_argument(
        "--path-bound",
        type=int,
        default=None,
        help="hop bound for bounded-path-length (default: concrete node count)",
    )
    parser.add_argument(
        "--waypoints",
        default=None,
        help="comma-separated device names for waypointing "
        "(default: each class's originating devices)",
    )


def build_subcommand_parser() -> argparse.ArgumentParser:
    """The subcommand CLI: compress / verify / failures / delta / store / serve."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.pipeline",
        description="Bonsai control-plane compression toolkit: compress, "
        "differentially verify, sweep failures, validate change scripts, "
        "persist warm baseline artifacts and serve them over HTTP.",
    )
    # Subcommands without _trace_argument run with every instrument off.
    parser.set_defaults(trace=None, profile=None, events=None, progress=False)
    commands = parser.add_subparsers(dest="command", required=True)

    compress = commands.add_parser(
        "compress",
        help="compress every destination class and report aggregate statistics",
    )
    _topology_arguments(compress)
    _execution_arguments(compress)
    _output_arguments(compress)
    compress.add_argument(
        "--build-networks",
        action="store_true",
        help="also emit the abstract configured network for every class",
    )

    verify = commands.add_parser(
        "verify",
        help="differentially verify the property catalogue on the concrete "
        "and compressed networks",
    )
    _topology_arguments(verify)
    _execution_arguments(verify)
    _output_arguments(verify)
    _suite_arguments(verify)
    verify.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="total wall-clock budget in seconds, shared across families",
    )

    failures = commands.add_parser(
        "failures",
        help="sweep k-failure scenarios with incremental re-solve and "
        "abstraction-soundness checks",
    )
    _topology_arguments(failures)
    _execution_arguments(failures)
    _output_arguments(failures)
    _suite_arguments(failures)
    _failure_arguments(failures)

    delta = commands.add_parser(
        "delta",
        help="validate a configuration change script (optionally against a "
        "stored baseline artifact: zero baseline re-solves)",
    )
    _topology_arguments(delta)
    _execution_arguments(delta)
    _output_arguments(delta)
    _suite_arguments(delta)
    _delta_arguments(delta)

    store = commands.add_parser(
        "store",
        help="manage the on-disk warm-baseline artifact store",
    )
    store_commands = store.add_subparsers(dest="store_command", required=True)

    store_save = store_commands.add_parser(
        "save",
        help="build the full warm baseline (encode + solve + compress every "
        "class) and persist it keyed by the network's content fingerprint",
    )
    _topology_arguments(store_save)
    store_save.add_argument(
        "--store", required=True, help="artifact store root directory"
    )
    store_save.add_argument(
        "--limit", type=int, default=None,
        help="only bake the first N classes (smoke runs)",
    )
    store_save.add_argument(
        "--no-compress", action="store_true",
        help="skip per-class compressions (delta then recompresses lazily)",
    )
    store_save.add_argument(
        "--syntactic", action="store_true",
        help="use syntactic policy keys instead of BDDs",
    )
    store_save.add_argument(
        "--executor", choices=EXECUTORS, default="serial",
        help="how to parallelise the per-class bake (default: serial)",
    )
    store_save.add_argument(
        "--workers", type=int, default=None,
        help="worker count for process bakes (default: one per CPU)",
    )
    _trace_argument(store_save)

    store_list = store_commands.add_parser(
        "list", help="list every entry's provenance metadata"
    )
    store_list.add_argument(
        "--store", required=True, help="artifact store root directory"
    )

    store_info = store_commands.add_parser(
        "info",
        help="show one entry's metadata and verify it loads (checksum, "
        "schema and fingerprint checks)",
    )
    _topology_arguments(store_info)
    store_info.add_argument(
        "--store", required=True, help="artifact store root directory"
    )
    store_info.add_argument(
        "--fingerprint", default=None,
        help="entry fingerprint (default: computed from --topo/--family)",
    )

    serve = commands.add_parser(
        "serve",
        help="answer verify / delta / failure / k-resilience queries over "
        "HTTP off a warm baseline artifact",
    )
    _topology_arguments(serve)
    serve.add_argument(
        "--store", default=None,
        help="artifact store root: load a matching warm baseline when one "
        "verifies, save fresh builds back",
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8642, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--syntactic", action="store_true",
        help="use syntactic policy keys instead of BDDs",
    )
    serve.add_argument(
        "--max-inflight", type=int, default=None, metavar="N",
        help="reject queries with 503 + Retry-After once N are in flight "
        "(default: unbounded)",
    )
    _trace_argument(serve)

    trace_cmd = commands.add_parser(
        "trace",
        help="inspect structured trace files written by --trace",
    )
    trace_commands = trace_cmd.add_subparsers(dest="trace_command", required=True)
    trace_summarize = trace_commands.add_parser(
        "summarize",
        help="print a trace file's span tree and self-time hotspots",
    )
    trace_summarize.add_argument("path", help="trace JSONL file (from --trace)")
    trace_summarize.add_argument(
        "--top", type=int, default=10, help="hotspot rows to show (default 10)"
    )
    trace_summarize.add_argument(
        "--max-depth", type=int, default=4,
        help="span tree depth to render (default 4)",
    )

    profile_cmd = commands.add_parser(
        "profile",
        help="inspect sampling-profiler files written by --profile",
    )
    profile_commands = profile_cmd.add_subparsers(dest="profile_command", required=True)
    profile_flame = profile_commands.add_parser(
        "flamegraph",
        help="render a profile as collapsed-stack 'folded' lines "
        "(flamegraph.pl / speedscope / inferno input)",
    )
    profile_flame.add_argument("path", help="profile JSONL file (from --profile)")
    profile_flame.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the folded lines here instead of stdout",
    )
    profile_summarize = profile_commands.add_parser(
        "summarize", help="print a profile's hottest leaf frames"
    )
    profile_summarize.add_argument("path", help="profile JSONL file (from --profile)")
    profile_summarize.add_argument(
        "--top", type=int, default=10, help="frames to show (default 10)"
    )

    bench = commands.add_parser(
        "bench",
        help="inspect the append-only benchmark history",
    )
    bench_commands = bench.add_subparsers(dest="bench_command", required=True)
    bench_history = bench_commands.add_parser(
        "history",
        help="print per-stage trend lines from BENCH_HISTORY.jsonl and "
        "check the latest run against a rolling median",
    )
    bench_history.add_argument(
        "--history", default=None, metavar="PATH",
        help="history file (default: $REPRO_OBS_HISTORY or ./BENCH_HISTORY.jsonl)",
    )
    bench_history.add_argument(
        "--bench", default=None,
        help="only this benchmark (default: all recorded benchmarks)",
    )
    bench_history.add_argument(
        "--check", action="store_true",
        help="exit 1 when any stage's latest run regresses past the "
        "rolling median bound",
    )
    bench_history.add_argument(
        "--window", type=int, default=5,
        help="rolling-median window: preceding runs per stage (default 5)",
    )
    bench_history.add_argument(
        "--max-regression", type=float, default=0.25,
        help="allowed fraction over the rolling median (default 0.25)",
    )
    bench_history.add_argument(
        "--absolute-slack", type=float, default=None, metavar="SECONDS",
        help="absolute slack added to every bound (default 0.02s)",
    )

    return parser


def _selected_families(args) -> Optional[List[str]]:
    """The families to run, or None on a usage error (message printed)."""
    if args.topo and args.family:
        print("error: pass either --topo or --family, not both", file=sys.stderr)
        return None
    family = args.family or args.topo
    if family is None:
        print("error: a topology family is required (--topo or --family)", file=sys.stderr)
        return None
    if family == "all":
        if args.size is not None:
            print("error: --size cannot be combined with --family all", file=sys.stderr)
            return None
        return sorted(TOPOLOGY_FAMILIES)
    return [family]


def _build_suite(args):
    from repro.analysis.batch import PropertySuite

    waypoints = (
        None
        if args.waypoints is None
        else tuple(name.strip() for name in args.waypoints.split(",") if name.strip())
    )
    params = {"path_bound": args.path_bound, "waypoints": waypoints}
    if args.properties is None:
        return PropertySuite.default(**params)
    names = [name.strip() for name in args.properties.split(",") if name.strip()]
    return PropertySuite.from_names(names, **params)


def _write_output(path: str, text: str) -> bool:
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
            handle.write("\n")
    except OSError as exc:
        print(f"error: cannot write report to {path}: {exc}", file=sys.stderr)
        return False
    print(f"  report written to {path}")
    return True


def _emit_reports(args, reports) -> bool:
    """The one ``--output`` convention shared by every mode.

    A single report is written as itself, several as a ``{family:
    report}`` map; any report object with ``to_json``/``to_dict`` fits.
    Returns False when the file cannot be written (the caller turns that
    into exit status 1).
    """
    if not args.output:
        return True
    if len(reports) == 1:
        report = next(iter(reports.values()))
        if getattr(report, "spill", None) is not None:
            # Spilled reports stream to disk record by record -- the
            # whole point of the memory budget is never materialising
            # every record at once, serialisation included.
            try:
                report.write_json(args.output)
            except OSError as exc:
                print(
                    f"error: cannot write report to {args.output}: {exc}",
                    file=sys.stderr,
                )
                return False
            print(f"  report written to {args.output}")
            return True
        text = report.to_json()
    else:
        text = json.dumps(
            {family: report.to_dict() for family, report in reports.items()},
            indent=2,
            sort_keys=True,
        )
    return _write_output(args.output, text)


def _report_status(failed: bool, emitted: bool) -> int:
    """The one exit-code convention: 1 on any gate failure or write error."""
    return 1 if (failed or not emitted) else 0


def _check_memory_budget(args, report) -> bool:
    """Record peak RSS on the report; False when it exceeds the budget."""
    memory_budget = args.memory_budget
    if memory_budget is None:
        return True
    from repro.perfutil import peak_rss_mb

    observed = peak_rss_mb()
    report.peak_rss_mb = observed
    within = observed <= memory_budget
    print(
        f"  peak RSS: {observed:.1f} MiB "
        f"({'within' if within else 'EXCEEDS'} budget {memory_budget:.1f} MiB)"
    )
    return within


def _run_verify(args, families: List[str]) -> int:
    from repro.analysis.batch import BatchVerifier, VerificationReport
    from repro.analysis.verifier import VerificationTimeout

    try:
        suite = _build_suite(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    reports = {}
    diverged = False
    timed_out = False
    # One shared wall-clock budget across every family: each verifier gets
    # whatever remains, so "--family all --timeout 60" means 60 seconds
    # total, not 60 per family.
    deadline = None if args.timeout is None else time.monotonic() + args.timeout
    for family in families:
        size = args.size if args.size is not None else default_size(family)
        remaining = (
            None if deadline is None else max(0.0, deadline - time.monotonic())
        )
        if remaining is not None and remaining <= 0:
            # Budget already spent: skip the expensive network build and
            # policy-BDD encoding entirely and report the family as timed
            # out rather than paying per-family setup costs the flag was
            # meant to bound.
            report = VerificationReport(
                network_name=f"{family}-{size}",
                executor=args.executor,
                workers=args.workers or 1,
                num_classes=0,
                properties=list(suite.names),
                path_bound=suite.path_bound,
                encode_seconds=0.0,
                total_seconds=0.0,
                timed_out=True,
            )
        else:
            network = build_topology(family, size)
            verifier = BatchVerifier(
                network,
                suite=suite,
                executor=args.executor,
                workers=args.workers,
                limit=args.limit,
                timeout_seconds=remaining,
                use_bdds=not args.syntactic,
            )
            try:
                with trace.span("family", family=family, size=str(size)):
                    report = verifier.run(raise_on_timeout=False)
            except PipelineError as exc:
                print(f"verification failed: {exc}", file=sys.stderr)
                return 1
            except VerificationTimeout as exc:  # pragma: no cover - defensive
                print(f"verification timed out: {exc}", file=sys.stderr)
                return 1
        reports[family] = report
        diverged = diverged or not report.verdicts_agree()
        timed_out = timed_out or report.timed_out
        print(f"== batch verification: {family}({size}) ==")
        for line in report.summary_lines():
            print(f"  {line}")
        if args.per_class:
            for record in report.records:
                status = "TIMED OUT" if record.timed_out else (
                    "ok" if record.agrees() else "DIVERGED"
                )
                print(
                    f"  {record.prefix}: {status} "
                    f"(concrete {record.concrete_seconds:.4f}s, "
                    f"abstract {record.abstract_seconds:.4f}s)"
                )

    return _report_status(diverged or timed_out, _emit_reports(args, reports))


class _SweepRefused(Exception):
    """A sweep kind declined to run a family: ``(exit status, message)``."""


def _run_sweep(args, families: List[str], title, make_sweep, class_line) -> int:
    """The skeleton the perturbation-sweep subcommands share: suite, then
    per family build -> sweep under a ``family`` span -> summary -> memory
    budget -> per-class lines, then the one ``--output`` convention.

    ``make_sweep(family, size, network, common)`` returns the kind's
    configured sweep (``common`` holds the flags every kind takes) or
    raises :class:`_SweepRefused`; ``class_line(record)`` renders one
    ``--per-class`` line.
    """
    try:
        suite = _build_suite(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    common = dict(
        suite=suite,
        oracle=not args.no_oracle,
        executor=args.executor,
        workers=args.workers,
        limit=args.limit,
        use_bdds=not args.syntactic,
        spill=args.memory_budget is not None,
    )
    reports = {}
    failed = False
    for family in families:
        size = args.size if args.size is not None else default_size(family)
        network = build_topology(family, size)
        try:
            sweep = make_sweep(family, size, network, common)
            with trace.span("family", family=family, size=str(size)):
                report = sweep.run()
        except _SweepRefused as exc:
            status, message = exc.args
            print(message, file=sys.stderr)
            return status
        except PipelineError as exc:
            print(f"{title} failed: {exc}", file=sys.stderr)
            return 1
        reports[family] = report
        failed = failed or not report.ok()
        print(f"== {title}: {family}({size}) ==")
        for line in report.summary_lines():
            print(f"  {line}")
        if not _check_memory_budget(args, report):
            failed = True
        if args.per_class:
            for record in report.iter_records():
                print(f"  {record.prefix}: {class_line(record)}")

    return _report_status(failed, _emit_reports(args, reports))


def _run_failures(args, families: List[str]) -> int:
    from repro.failures import FailureSweep

    k = args.k if args.k is not None else 1

    def make_sweep(family, size, network, common):
        return FailureSweep(
            network,
            k=k,
            sample=(
                args.sample
                if args.sample is not None
                else default_failure_sample(family, k)
            ),
            seed=args.seed if args.seed is not None else 0,
            include_nodes=args.fail_nodes,
            soundness=not args.no_soundness,
            **common,
        )

    def class_line(record) -> str:
        broken = sum(1 for outcome in record.scenarios if outcome.newly_failing)
        return f"{broken}/{len(record.scenarios)} scenarios change a verdict"

    return _run_sweep(args, families, "failure sweep", make_sweep, class_line)


def _load_baseline_artifact(path: str, network):
    """Resolve ``--baseline`` to a verified :class:`BaselineArtifact`.

    ``path`` may be one store entry directory (it contains ``meta.json``)
    or a store root (the entry is found by the network's fingerprint).
    Raises :class:`~repro.store.StoreError` on any verification failure:
    the CLI refuses rather than silently re-solving.
    """
    from pathlib import Path

    from repro.store import ArtifactStore

    candidate = Path(path)
    if (candidate / "meta.json").is_file():
        return ArtifactStore(candidate.parent).load(candidate.name)
    return ArtifactStore(candidate).load_for(network)


def _run_delta(args, families: List[str]) -> int:
    from repro.delta import ChangeError, DeltaSweep, load_change_script
    from repro.netgen.changes import default_change_steps, generated_change_script

    file_script = None
    if args.changes is not None and args.changes != "generated":
        misused = [
            flag
            for flag, value in (("--steps", args.steps), ("--seed", args.seed))
            if value is not None
        ]
        if misused:
            print(
                f"error: {', '.join(misused)} only apply(ies) to generated "
                "change scripts, not --changes FILE",
                file=sys.stderr,
            )
            return 2
        try:
            with open(args.changes, "r", encoding="utf-8") as handle:
                file_script = load_change_script(handle.read())
        except (OSError, ValueError) as exc:
            print(f"error: cannot load change script {args.changes}: {exc}", file=sys.stderr)
            return 2

    def make_sweep(family, size, network, common):
        baseline = None
        if args.baseline:
            from repro.store import StoreError

            try:
                baseline = _load_baseline_artifact(args.baseline, network)
            except StoreError as exc:
                raise _SweepRefused(
                    1, f"error: cannot use baseline artifact at {args.baseline}: {exc}"
                ) from exc
        if file_script is not None:
            script = file_script
        else:
            steps = (
                args.steps if args.steps is not None else default_change_steps(family)
            )
            script = generated_change_script(
                network, family, steps=steps, seed=args.seed if args.seed is not None else 0
            )
        try:
            return DeltaSweep(
                network,
                script=script,
                baseline=baseline,
                revalidate=not args.no_revalidate,
                rebuild_oracle=not args.no_rebuild_oracle,
                **common,
            )
        except ChangeError as exc:
            raise _SweepRefused(
                2, f"invalid change script for {family}({size}): {exc}"
            ) from exc

    def class_line(record) -> str:
        broken = sum(1 for outcome in record.steps if outcome.newly_failing)
        reused = sum(1 for outcome in record.steps if outcome.reused)
        return (
            f"{broken}/{len(record.steps)} steps change a verdict, "
            f"{reused} reused the abstraction"
        )

    return _run_sweep(args, families, "change-impact sweep", make_sweep, class_line)


def _run_compress(args, family: str) -> int:
    size = args.size if args.size is not None else default_size(family)
    network = build_topology(family, size)
    try:
        pipeline = CompressionPipeline(
            network,
            executor=args.executor,
            workers=args.workers,
            limit=args.limit,
            build_networks=args.build_networks,
            use_bdds=not args.syntactic,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        with trace.span("family", family=family, size=str(size)):
            if args.memory_budget is not None:
                # Streaming mode: per-class records spill to disk as they
                # arrive, so peak RSS stays bounded on fat topologies.
                report = pipeline.run_streaming(spill=True)
            else:
                report = pipeline.run().report
    except PipelineError as exc:
        print(f"pipeline failed: {exc}", file=sys.stderr)
        return 1

    print(f"== compression pipeline: {family}({size}) ==")
    for line in report.summary_lines():
        print(f"  {line}")
    within = _check_memory_budget(args, report)
    if args.per_class:
        for record in report.iter_records():
            print(
                f"  {record.prefix}: {record.concrete_nodes} -> "
                f"{record.abstract_nodes} nodes "
                f"({record.node_ratio:.2f}x) in {record.compression_seconds:.4f}s"
            )
    if not _emit_reports(args, {family: report}):
        return 1
    return 0 if within else 1


def _run_store(args) -> int:
    from repro.store import ArtifactStore, BaselineArtifact, StoreError
    from repro.store.fingerprint import network_fingerprint

    store = ArtifactStore(args.store)

    if args.store_command == "list":
        entries = store.list()
        if not entries:
            print(f"(no artifacts under {store.root})")
            return 0
        for meta in entries:
            fingerprint = str(meta.get("fingerprint", "?"))
            if meta.get("unreadable"):
                print(f"  {fingerprint[:12]}...  (unreadable meta)")
                continue
            print(
                f"  {fingerprint[:12]}...  {meta.get('network_name', '?')}  "
                f"classes={meta.get('num_classes', '?')}  "
                f"{meta.get('payload_bytes', '?')} bytes  "
                f"saved {meta.get('saved_at', '?')}"
            )
        return 0

    if args.store_command == "save":
        families = _selected_families(args)
        if families is None:
            return 2
        for family in families:
            size = args.size if args.size is not None else default_size(family)
            network = build_topology(family, size)
            artifact = BaselineArtifact.build(
                network,
                use_bdds=not args.syntactic,
                compress=not args.no_compress,
                limit=args.limit,
                executor=args.executor,
                workers=args.workers,
            )
            entry = store.save(artifact)
            print(
                f"saved {family}({size}): fingerprint "
                f"{artifact.fingerprint[:12]}... "
                f"({len(artifact.baselines)} classes, "
                f"{artifact.build_seconds:.2f}s build) -> {entry}"
            )
        return 0

    # store info
    fingerprint = args.fingerprint
    if fingerprint is None:
        families = _selected_families(args)
        if families is None:
            return 2
        if len(families) != 1:
            print(
                "error: store info needs one family (or --fingerprint)",
                file=sys.stderr,
            )
            return 2
        size = args.size if args.size is not None else default_size(families[0])
        fingerprint = network_fingerprint(build_topology(families[0], size))
    meta = store.meta(fingerprint)
    if meta is None:
        print(
            f"error: no readable entry for {fingerprint[:12]}... under {store.root}",
            file=sys.stderr,
        )
        return 1
    print(json.dumps(meta, indent=2, sort_keys=True))
    from repro.store.store import refusal_counts

    try:
        artifact = store.load(fingerprint)
    except StoreError as exc:
        print(f"entry REFUSED: {exc}", file=sys.stderr)
        refusals = refusal_counts()
        if refusals:
            print(
                "refusals this process: "
                + ", ".join(f"{reason}={count}" for reason, count in refusals.items()),
                file=sys.stderr,
            )
        return 1
    stats = artifact.stats()
    print(
        f"entry verifies: {stats['num_classes']} classes, "
        f"{stats['compressed_classes']} compressed"
    )
    refusals = refusal_counts()
    if refusals:
        print(
            "refusals this process: "
            + ", ".join(f"{reason}={count}" for reason, count in refusals.items())
        )
    return 0


def _run_serve(args) -> int:
    # repro.serve imports every pillar a request can reach at module
    # level, so all of it is loaded here, before the service binds: a
    # first /verify or /delta never pays an import (tests/test_startup.py).
    from repro.serve import serve as serve_forever, warm_service

    families = _selected_families(args)
    if families is None:
        return 2
    if len(families) != 1:
        print("error: serve needs exactly one topology family", file=sys.stderr)
        return 2
    family = families[0]
    size = args.size if args.size is not None else default_size(family)
    network = build_topology(family, size)
    service = warm_service(
        network,
        store=args.store,
        use_bdds=not args.syntactic,
        max_inflight=args.max_inflight,
    )
    if args.store and service.session.rebuilt:
        reason = service.session.rebuild_reason or "no stored entry"
        print(f"rebuilt baseline into {args.store}: {reason}")
    serve_forever(service, host=args.host, port=args.port)
    return 0


def _run_trace(args) -> int:
    # trace summarize: the only trace subcommand so far.
    try:
        header, root = trace.read_jsonl(args.path)
    except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {args.path}: {exc}", file=sys.stderr)
        return 1
    command = header.get("command", "?")
    print(f"trace: {args.path} (command: {command}, schema v{header.get('schema_version')})")
    info = trace.summary(root, top=args.top)
    print(f"  {info['span_count']} spans, {info['total_ms']:.1f}ms total")
    print("span tree:")
    for line in trace.tree_lines(root, max_depth=args.max_depth):
        print(f"  {line}")
    print(f"hotspots (top {args.top} by self time):")
    for row in info["hotspots"]:
        cpu = (
            f", cpu {row['cpu_ms']:.1f}ms" if row.get("cpu_ms") else ""
        )
        print(
            f"  {row['name']}: {row['self_ms']:.1f}ms self / "
            f"{row['total_ms']:.1f}ms total over {row['count']} span(s){cpu}"
        )
    return 0


def _run_profile(args) -> int:
    from repro.obs import profile as _profile
    from repro.obs.jsonl import ObsFileError

    try:
        header, records = _profile.read_jsonl(args.path)
    except (OSError, ObsFileError) as exc:
        print(f"error: cannot read profile {args.path}: {exc}", file=sys.stderr)
        return 2
    if args.profile_command == "flamegraph":
        lines = _profile.folded_lines(records)
        if args.out:
            if not _write_output(args.out, "\n".join(lines)):
                return 1
        else:
            for line in lines:
                print(line)
        return 0
    # profile summarize
    print(
        f"profile: {args.path} ({header.get('sample_count', 0)} samples @ "
        f"{header.get('interval_ms', '?')}ms, schema v{header.get('schema_version')})"
    )
    print(f"hottest leaf frames (top {args.top} by samples):")
    for row in _profile.summary(records, top=args.top):
        print(f"  {row['frame']}: {row['samples']} samples")
    return 0


def _run_bench(args) -> int:
    # bench history: trend lines + rolling-median regression check.
    from repro.obs import history as _history
    from repro.obs.jsonl import ObsFileError

    path = _history.default_history_path(args.history)
    try:
        records = _history.read_history(path)
    except OSError as exc:
        print(f"error: cannot read bench history {path}: {exc}", file=sys.stderr)
        return 2
    except ObsFileError as exc:
        print(f"error: bench history refused: {exc}", file=sys.stderr)
        return 2
    if args.bench:
        records = [r for r in records if r["bench"] == args.bench]
        if not records:
            print(f"error: no runs of {args.bench!r} in {path}", file=sys.stderr)
            return 2
    print(f"bench history: {path} ({len(records)} runs)")
    for line in _history.trend_lines(records, bench=args.bench):
        print(f"  {line}")
    slack = (
        args.absolute_slack
        if args.absolute_slack is not None
        else _history.ABSOLUTE_SLACK_SECONDS
    )
    ok, findings = _history.regression_check(
        records,
        window=args.window,
        max_regression=args.max_regression,
        absolute_slack=slack,
    )
    regressed = [f for f in findings if f["regressed"]]
    print(
        f"rolling-median check (window {args.window}, "
        f"+{args.max_regression * 100:.0f}% +{slack}s): "
        f"{len(findings)} stages checked, {len(regressed)} regressed"
    )
    for finding in regressed:
        print(
            f"  REGRESSED {finding['bench']}/{finding['stage']}: "
            f"latest {finding['latest']:.4f}s vs median {finding['median']:.4f}s "
            f"(bound {finding['bound']:.4f}s over {finding['window']} runs)",
            file=sys.stderr,
        )
    if args.check and not ok:
        return 1
    return 0


def _dispatch_subcommand(args) -> int:
    if args.command == "trace":
        return _run_trace(args)
    if args.command == "profile":
        return _run_profile(args)
    if args.command == "bench":
        return _run_bench(args)
    if args.command == "store":
        return _run_store(args)
    if args.command == "serve":
        return _run_serve(args)
    families = _selected_families(args)
    if families is None:
        return 2
    if args.command == "verify":
        return _run_verify(args, families)
    if args.command == "failures":
        return _run_failures(args, families)
    if args.command == "delta":
        return _run_delta(args, families)
    # compress: run each selected family in turn.
    status = 0
    for family in families:
        status = max(status, _run_compress(args, family))
    return status


def _begin_obs(args) -> dict:
    """Start the requested observability instruments for one invocation.

    ``--trace`` and ``--profile`` both need span collection (the profiler
    attributes samples to the active span), so either begins a trace;
    the trace file is only written back for ``--trace``.  With none of
    the flags set nothing is constructed -- the disabled path stays the
    null-instrument fast path the ``obs_overhead`` gate measures.
    """
    import os

    if os.environ.get("REPRO_OBS_DISABLE_METRICS"):
        from repro.obs import metrics as _metrics

        _metrics.disable()
    state = {
        "trace_path": args.trace,
        "profile_path": args.profile,
        "profiler": None,
        "writer": None,
        "meter": None,
        "command": args.command,
    }
    if state["trace_path"] or state["profile_path"]:
        trace.begin("run", command=args.command)
    if state["profile_path"]:
        from repro.obs.profile import SamplingProfiler

        state["profiler"] = SamplingProfiler().start()
    if args.events:
        from repro.obs.events import EventWriter

        state["writer"] = EventWriter(args.events, context={"command": args.command})
    if args.progress:
        from repro.obs.events import ProgressMeter

        state["meter"] = ProgressMeter()
    return state


def _finish_obs(state: dict) -> None:
    """Stop instruments and write their files (profiler first, so sampled
    CPU self-time lands in the trace written after it)."""
    profiler = state["profiler"]
    if profiler is not None:
        profiler.stop()
    if state["meter"] is not None:
        state["meter"].close()
    if state["writer"] is not None:
        state["writer"].close()
        print(f"  events written to {state['writer'].path}")
    root = None
    if state["trace_path"] or state["profile_path"]:
        root = trace.end()
    if state["trace_path"] and root is not None:
        try:
            trace.write_jsonl(
                state["trace_path"], root, context={"command": state["command"]}
            )
        except OSError as exc:
            print(
                f"error: cannot write trace to {state['trace_path']}: {exc}",
                file=sys.stderr,
            )
        else:
            print(f"  trace written to {state['trace_path']}")
    if state["profile_path"] and profiler is not None:
        from repro.obs import profile as _profile

        try:
            _profile.write_jsonl(
                state["profile_path"], profiler, context={"command": state["command"]}
            )
        except OSError as exc:
            print(
                f"error: cannot write profile to {state['profile_path']}: {exc}",
                file=sys.stderr,
            )
        else:
            print(
                f"  profile written to {state['profile_path']} "
                f"({profiler.sample_count} samples)"
            )


def main(argv: Optional[List[str]] = None) -> int:
    try:
        args = build_subcommand_parser().parse_args(argv)
        obs_state = _begin_obs(args)
        try:
            return _dispatch_subcommand(args)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
        finally:
            _finish_obs(obs_state)
    except SystemExit as exc:  # argparse --help / usage errors
        code = exc.code
        return code if isinstance(code, int) else 2
