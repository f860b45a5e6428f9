#!/usr/bin/env python
"""Hot-path benchmark: per-stage wall-clock for the compression pipeline.

This benchmark times the four single-core hot paths of the system --
SRP solving, BDD operations, abstraction refinement, and the end-to-end
per-class pipeline (compress + differential verify) -- and writes a JSON
report that CI regresses against (``BENCH_pr7.json``).

Stages
------
* ``srp_solve``      -- control-plane simulation (``srp.solver.solve``)
  over every destination equivalence class of each family network;
* ``bdd_ops``        -- a BDD micro-workload (conjunction chains, xor
  ladders, restrict/exists) on a dedicated manager;
* ``refinement``     -- ``compute_abstraction`` over every class with
  policy keys prepared outside the timed region;
* ``compress``       -- the serial :class:`CompressionPipeline` end to end;
* ``verify``         -- the serial :class:`BatchVerifier` end to end;
* ``pipeline``       -- compress + verify (the acceptance metric);
* ``failure_sweep``  -- single-link :class:`FailureSweep` runs (incremental
  re-solve vs the scratch oracle); the report additionally records
  ``failure_incremental_speedup``, the scratch/incremental wall-clock
  ratio on the fat-tree sweep.
* ``obs_overhead``   -- the ``srp_solve`` workload timed twice, metrics
  registry enabled (the default) vs disabled; the report records
  ``obs_overhead_ratio`` (enabled/disabled wall clock), which
  ``--max-obs-overhead`` gates in CI -- instrumentation must stay
  within a few percent of the uninstrumented hot path;
* ``delta_sweep``    -- single-change :class:`DeltaSweep` runs (a
  compression-invariant change plus a route-map tightening on a
  fat-tree); the report additionally records
  ``delta_incremental_speedup``, the scratch/incremental wall-clock
  ratio of the invariant-change sweep, and the run fails if
  that sweep re-compresses any class (abstraction reuse is the point).

Every stage is run ``--repeat`` times and the *minimum* is reported, so
scheduler noise cannot manufacture a regression.

Usage
-----
Run the full benchmark and write the report::

    python benchmarks/bench_hotpaths.py --out bench_hotpaths.json

CI quick mode with the regression gate (exit 1 when any stage is more
than 25% slower than the committed baseline's ``after`` numbers)::

    python benchmarks/bench_hotpaths.py --quick \
        --baseline BENCH_pr7.json --max-regression 0.25

Correctness cross-check (also run in CI): the worklist solver is compared
against the sweep oracle on every family, and the verify report's
soundness oracle must hold (the refinement's full-rescan oracle is checked
by ``tests/test_hotpaths.py`` on every netgen family)::

    python benchmarks/bench_hotpaths.py --quick --check
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, List, Optional

from repro.abstraction.refinement import compute_abstraction
from repro.analysis.batch import BatchVerifier
from repro.bdd.manager import FALSE, BddManager
from repro.config.transfer import build_srp_from_network
from repro.failures import FailureSweep
from repro.netgen.families import build_topology
from repro.pipeline.core import CompressionPipeline
from repro.srp import solver as srp_solver
from repro.srp.solver import solve_sweep

#: (family, size) pairs per mode.  The fat-tree family carries the
#: acceptance criterion (>=3x on compress+verify); the ring is the
#: worst case for sweep-style solvers (diameter ~ n/2).
FULL_WORKLOADS = [
    ("fattree", 4),
    ("fattree", 6),
    ("fattree", 8),
    ("ring", 16),
    ("mesh", 8),
    ("datacenter", 2),
    ("wan", 2),
]
QUICK_WORKLOADS = [
    ("fattree", 4),
    ("ring", 12),
]

#: BDD micro-workload size per mode.
FULL_BDD_VARS = 600
QUICK_BDD_VARS = 200

#: (family, size, class limit) triples for the failure-sweep stage.  The
#: fat-tree entry carries the PR-4 acceptance criterion (incremental
#: re-solve >=2x over scratch); the class limit keeps the stage's
#: wall-clock bench-sized without changing the per-scenario work.
FULL_FAILURE_WORKLOADS = [
    ("fattree", 6, 6),
    ("ring", 16, None),
]
QUICK_FAILURE_WORKLOADS = [
    ("fattree", 4, 4),
    ("ring", 12, None),
]

#: (family, size, class limit) pairs for the delta-sweep stage.  Each
#: network runs two single-change sweeps: the compression-invariant
#: change (zero re-compressed classes expected; its scratch/incremental
#: ratio is the recorded speedup) and the per-class route-map tightening.
FULL_DELTA_WORKLOADS = [
    ("fattree", 6, 6),
]
QUICK_DELTA_WORKLOADS = [
    ("fattree", 4, 4),
]

#: Flat grace added to every per-stage regression check.  Baselines are
#: recorded on whatever machine cut the PR while the gate runs on CI
#: hardware; at the quick mode's millisecond scale a purely relative
#: threshold would flag scheduler noise as a regression.
ABSOLUTE_SLACK_SECONDS = 0.02


def _classes_and_srps(network):
    from repro.abstraction.ec import routable_equivalence_classes

    classes = routable_equivalence_classes(network)
    srps = [
        build_srp_from_network(network, ec.prefix, set(ec.origins)) for ec in classes
    ]
    return classes, srps


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def stage_srp_solve(workloads) -> float:
    """Solve the SRP of every class of every workload network."""
    prepared = []
    for family, size in workloads:
        network = build_topology(family, size)
        _, srps = _classes_and_srps(network)
        prepared.append(srps)
    start = time.perf_counter()
    for srps in prepared:
        for srp in srps:
            srp_solver.solve(srp)
    return time.perf_counter() - start


def stage_bdd_ops(num_vars: int) -> float:
    """Conjunction chains, xor ladders and quantification on one manager."""
    manager = BddManager(num_vars)
    start = time.perf_counter()
    # Deep conjunction / disjunction chains (the ACL/route-map shape).
    conj = manager.conjoin(manager.var(i) for i in range(num_vars))
    disj = manager.disjoin(manager.nvar(i) for i in range(num_vars))
    # A xor ladder (worst case for node growth).
    ladder = FALSE
    for i in range(0, num_vars, 3):
        ladder = manager.apply_xor(ladder, manager.var(i))
    # ite mixing the three.
    mixed = manager.ite(ladder, conj, disj)
    # Restrict / quantify over a quarter of the support.
    quarter = list(range(0, num_vars, 4))
    manager.restrict(mixed, {v: bool(v % 2) for v in quarter})
    manager.exists(ladder, quarter[: min(12, len(quarter))])
    assert manager.evaluate(conj, {i: True for i in range(num_vars)})
    return time.perf_counter() - start


def stage_refinement(workloads) -> float:
    """Abstraction refinement with inputs prepared outside the timer."""
    prepared = []
    for family, size in workloads:
        network = build_topology(family, size)
        _, srps = _classes_and_srps(network)
        prepared.append(srps)
    start = time.perf_counter()
    for srps in prepared:
        for srp in srps:
            compute_abstraction(srp)
    return time.perf_counter() - start


def stage_compress(workloads) -> float:
    networks = [build_topology(family, size) for family, size in workloads]
    start = time.perf_counter()
    for network in networks:
        CompressionPipeline(network, executor="serial").run()
    return time.perf_counter() - start


def stage_verify(workloads) -> float:
    networks = [build_topology(family, size) for family, size in workloads]
    start = time.perf_counter()
    for network in networks:
        BatchVerifier(network, executor="serial").run()
    return time.perf_counter() - start


def stage_failure_sweep(failure_workloads):
    """Single-link failure sweeps with the scratch oracle enabled.

    Returns ``(seconds, fattree_speedup)``: the timed stage plus the
    incremental-vs-scratch wall-clock ratio of the fat-tree sweep (the
    acceptance metric recorded as ``failure_incremental_speedup``).
    """
    networks = [
        (family, build_topology(family, size), limit)
        for family, size, limit in failure_workloads
    ]
    speedup = None
    start = time.perf_counter()
    for family, network, limit in networks:
        report = FailureSweep(
            network,
            k=1,
            executor="serial",
            soundness=False,
            oracle=True,
            limit=limit,
        ).run()
        if not report.incremental_all_match():
            raise RuntimeError(
                f"incremental re-solve diverged from the scratch oracle on "
                f"{network.name}: {report.incremental_divergences()}"
            )
        if family == "fattree":
            speedup = report.incremental_speedup
    return time.perf_counter() - start, speedup


def stage_obs_overhead(workloads, repeat: int):
    """Metrics-registry overhead on the ``srp_solve`` hot path.

    Times the same prepared solve workload with the registry enabled
    (the instrumented default; tracing stays off) and with it disabled
    (every lookup returns the shared null instrument).  Each arm keeps
    its own minimum over ``repeat`` runs, so noise in one arm cannot
    manufacture (or hide) overhead.  Returns ``(enabled_best,
    disabled_best)``.
    """
    from repro.obs import metrics as obs_metrics

    prepared = []
    for family, size in workloads:
        network = build_topology(family, size)
        _, srps = _classes_and_srps(network)
        prepared.append(srps)

    def timed() -> float:
        start = time.perf_counter()
        for srps in prepared:
            for srp in srps:
                srp_solver.solve(srp)
        return time.perf_counter() - start

    was_enabled = obs_metrics.enabled()
    try:
        obs_metrics.enable()
        enabled_best = min(timed() for _ in range(repeat))
        obs_metrics.disable()
        disabled_best = min(timed() for _ in range(repeat))
    finally:
        if was_enabled:
            obs_metrics.enable()
        else:
            obs_metrics.disable()
    return enabled_best, disabled_best


def _delta_scripts(network):
    """The two single-change scripts a delta workload runs."""
    import random

    from repro.netgen.changes import invariant_acl_change, tighten_export_change

    rng = random.Random(0)
    return [
        ("invariant", invariant_acl_change(network, rng)),
        ("tighten", tighten_export_change(network, random.Random(0))),
    ]


def stage_delta_sweep(delta_workloads):
    """Single-change what-if sweeps with the scratch oracle enabled.

    Returns ``(seconds, invariant_speedup)``: the timed stage plus the
    scratch/incremental wall-clock ratio of the fat-tree
    invariant-change sweep (the acceptance metric recorded as
    ``delta_incremental_speedup``).  Raises if the invariant sweep
    re-compresses any class or any oracle disagrees.
    """
    from repro.delta import DeltaSweep

    networks = [
        (family, build_topology(family, size), limit)
        for family, size, limit in delta_workloads
    ]
    speedup = None
    start = time.perf_counter()
    for family, network, limit in networks:
        for label, changeset in _delta_scripts(network):
            if changeset is None:
                continue
            report = DeltaSweep(
                network,
                script=[changeset],
                executor="serial",
                oracle=True,
                revalidate=True,
                limit=limit,
            ).run()
            if not report.ok():
                raise RuntimeError(
                    f"delta sweep diverged on {network.name} ({label}): "
                    f"{report.incremental_divergences()} "
                    f"{report.abstraction_disagreements()}"
                )
            if label == "invariant":
                counts = report.abstraction_counts()
                if counts["recompressed"]:
                    raise RuntimeError(
                        f"compression-invariant change re-compressed "
                        f"{counts['recompressed']} classes on {network.name}"
                    )
                if family == "fattree":
                    speedup = report.incremental_speedup
    return time.perf_counter() - start, speedup


# ----------------------------------------------------------------------
# Correctness cross-checks (reference oracles)
# ----------------------------------------------------------------------
def run_checks(workloads, failure_workloads=(), delta_workloads=()) -> List[str]:
    """Compare the optimized hot paths against their reference oracles.

    Returns a list of human-readable failures (empty = all good).
    """
    failures: List[str] = []
    for family, size in workloads:
        network = build_topology(family, size)
        classes, srps = _classes_and_srps(network)
        for ec, srp in zip(classes, srps):
            if srp_solver.solve(srp).labeling != solve_sweep(srp).labeling:
                failures.append(
                    f"{family}({size}) {ec.prefix}: worklist labeling "
                    "diverges from sweep oracle"
                )
        report = BatchVerifier(network, executor="serial").run()
        if not report.verdicts_agree():
            failures.append(
                f"{family}({size}): abstract and concrete verdicts diverge: "
                f"{report.mismatches()}"
            )
    for family, size, limit in failure_workloads:
        network = build_topology(family, size)
        sweep = FailureSweep(
            network,
            k=1,
            executor="serial",
            oracle=True,
            soundness=True,
            limit=limit,
        ).run()
        if not sweep.incremental_all_match():
            failures.append(
                f"{family}({size}): incremental re-solve diverges from the "
                f"scratch oracle: {sweep.incremental_divergences()}"
            )
        if sweep.abstraction_disagreements():
            failures.append(
                f"{family}({size}): abstract verdicts disagree under failures: "
                f"{sweep.abstraction_disagreements()}"
            )
    from repro.delta import DeltaSweep
    from repro.netgen.changes import generated_change_script

    for family, size, limit in delta_workloads:
        network = build_topology(family, size)
        script = generated_change_script(network, family)
        sweep = DeltaSweep(
            network,
            script=script,
            executor="serial",
            oracle=True,
            revalidate=True,
            limit=limit,
        ).run()
        if not sweep.incremental_all_match():
            failures.append(
                f"{family}({size}): change-incremental re-solve diverges from "
                f"the scratch oracle: {sweep.incremental_divergences()}"
            )
        if sweep.abstraction_disagreements():
            failures.append(
                f"{family}({size}): abstract verdicts disagree under changes: "
                f"{sweep.abstraction_disagreements()}"
            )
    return failures


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
STAGES = (
    "srp_solve",
    "bdd_ops",
    "refinement",
    "compress",
    "verify",
    "pipeline",
    "failure_sweep",
    "delta_sweep",
    "obs_overhead",
)


def run_benchmark(quick: bool, repeat: int):
    """Returns ``(stages, extras)``: per-stage seconds plus non-time metrics."""
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    bdd_vars = QUICK_BDD_VARS if quick else FULL_BDD_VARS
    failure_workloads = QUICK_FAILURE_WORKLOADS if quick else FULL_FAILURE_WORKLOADS
    delta_workloads = QUICK_DELTA_WORKLOADS if quick else FULL_DELTA_WORKLOADS
    fattree_only = [(f, s) for f, s in workloads if f == "fattree"]

    def best(fn, *args) -> float:
        return min(fn(*args) for _ in range(repeat))

    stages = {
        "srp_solve": best(stage_srp_solve, workloads),
        "bdd_ops": best(stage_bdd_ops, bdd_vars),
        "refinement": best(stage_refinement, workloads),
        "compress": best(stage_compress, workloads),
        "verify": best(stage_verify, workloads),
    }
    stages["pipeline"] = stages["compress"] + stages["verify"]
    # The acceptance metric: compress+verify restricted to the fat-tree
    # family, measured in one timed arm so the number is directly
    # comparable before/after.
    stages["pipeline_fattree"] = best(stage_compress, fattree_only) + best(
        stage_verify, fattree_only
    )
    failure_runs = [stage_failure_sweep(failure_workloads) for _ in range(repeat)]
    stages["failure_sweep"] = min(seconds for seconds, _ in failure_runs)
    speedups = [speedup for _, speedup in failure_runs if speedup]
    delta_runs = [stage_delta_sweep(delta_workloads) for _ in range(repeat)]
    stages["delta_sweep"] = min(seconds for seconds, _ in delta_runs)
    delta_speedups = [speedup for _, speedup in delta_runs if speedup]
    obs_enabled, obs_disabled = stage_obs_overhead(workloads, repeat)
    stages["obs_overhead"] = obs_enabled
    extras = {
        "obs_disabled_seconds": obs_disabled,
        "obs_overhead_ratio": obs_enabled / obs_disabled if obs_disabled else None,
        # min(), like the timing stages: scheduler noise in a scratch arm
        # must not be able to manufacture the headline speedup.
        "failure_incremental_speedup": min(speedups) if speedups else None,
        "delta_incremental_speedup": min(delta_speedups) if delta_speedups else None,
    }
    return stages, extras


def compare_to_baseline(
    stages: Dict[str, float], baseline: Dict, max_regression: float, mode: str
) -> List[str]:
    """Regressions of the current run vs the baseline's ``after`` stages.

    The baseline's ``after`` section may be flat (``{stage: seconds}``) or
    keyed by mode (``{"full": {...}, "quick": {...}}``); quick CI runs are
    compared against quick baselines so the gate actually bites.
    """
    reference: Optional[Dict] = baseline.get("after") or baseline.get("stages")
    if isinstance(reference, dict) and mode in reference:
        reference = reference[mode]
    if not reference:
        return [f"baseline file has no 'after' (or 'stages') section for {mode!r}"]
    problems = []
    for name, ref_seconds in reference.items():
        now = stages.get(name)
        if now is None or ref_seconds <= 0:
            continue
        # Absolute slack on top of the relative limit: quick-mode stages
        # are tens of milliseconds, and baselines are recorded on a
        # different machine than CI runs on -- without a floor, scheduler
        # noise alone would trip the gate on an unchanged tree.
        if now <= ref_seconds * (1.0 + max_regression) + ABSOLUTE_SLACK_SECONDS:
            continue
        problems.append(
            f"stage {name}: {now:.3f}s vs baseline {ref_seconds:.3f}s "
            f"({now / ref_seconds:.2f}x, limit {1.0 + max_regression:.2f}x "
            f"+ {ABSOLUTE_SLACK_SECONDS:.2f}s slack)"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workloads")
    parser.add_argument("--repeat", type=int, default=3, help="repeats per stage (min is kept)")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--baseline", default=None, help="compare against this BENCH_*.json file"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per stage vs the baseline (default 0.25)",
    )
    parser.add_argument(
        "--check",
        action="store_true",
        help="also cross-check optimized paths against the reference oracles",
    )
    parser.add_argument(
        "--max-obs-overhead",
        type=float,
        default=None,
        help="fail if the metrics-instrumented srp_solve hot path is more "
        "than this fraction slower than the metrics-disabled arm "
        "(e.g. 0.03 = 3%%)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    mode = "quick" if args.quick else "full"
    print(f"hot-path benchmark ({mode}, repeat={args.repeat})")
    stages, extras = run_benchmark(args.quick, args.repeat)
    for name in sorted(stages):
        print(f"  {name:18s} {stages[name]:8.3f}s")
    speedup = extras.get("failure_incremental_speedup")
    if speedup is not None:
        print(f"  failure-sweep incremental re-solve speedup: {speedup:.2f}x")
    delta_speedup = extras.get("delta_incremental_speedup")
    if delta_speedup is not None:
        print(
            f"  delta-sweep incremental re-solve speedup: "
            f"{delta_speedup:.2f}x"
        )
    obs_ratio = extras.get("obs_overhead_ratio")
    if obs_ratio is not None:
        print(
            f"  metrics instrumentation overhead on srp_solve: "
            f"{(obs_ratio - 1.0) * 100.0:+.1f}%"
        )

    status = 0
    if args.max_obs_overhead is not None:
        enabled_s = stages["obs_overhead"]
        disabled_s = extras["obs_disabled_seconds"]
        # The same absolute slack as the baseline gate: quick-mode arms
        # are tens of milliseconds, where scheduler noise alone exceeds
        # any relative threshold.
        limit = disabled_s * (1.0 + args.max_obs_overhead) + ABSOLUTE_SLACK_SECONDS
        if enabled_s > limit:
            status = 1
            print(
                f"OBS OVERHEAD TOO HIGH: instrumented srp_solve {enabled_s:.3f}s "
                f"vs disabled {disabled_s:.3f}s "
                f"({(enabled_s / disabled_s - 1.0) * 100.0:+.1f}%, limit "
                f"{args.max_obs_overhead:.0%} + {ABSOLUTE_SLACK_SECONDS:.2f}s slack)",
                file=sys.stderr,
            )
    if args.check:
        workloads = QUICK_WORKLOADS if args.quick else FULL_WORKLOADS
        failure_workloads = (
            QUICK_FAILURE_WORKLOADS if args.quick else FULL_FAILURE_WORKLOADS
        )
        delta_workloads = (
            QUICK_DELTA_WORKLOADS if args.quick else FULL_DELTA_WORKLOADS
        )
        failures = run_checks(workloads, failure_workloads, delta_workloads)
        if failures:
            status = 1
            for failure in failures:
                print(f"CHECK FAILED: {failure}", file=sys.stderr)
        else:
            print("  oracle cross-checks: ok")

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_to_baseline(stages, baseline, args.max_regression, mode)
        if problems:
            status = 1
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
        else:
            print(f"  no stage regressed >{args.max_regression:.0%} vs {args.baseline}")

    if args.out:
        from repro.perfutil import peak_rss_mb

        report = {
            "benchmark": "hotpaths",
            "mode": mode,
            "repeat": args.repeat,
            "stages": stages,
            "peak_rss_mb": peak_rss_mb(),
            **extras,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  report written to {args.out}")
    return status


if __name__ == "__main__":
    sys.exit(main())
