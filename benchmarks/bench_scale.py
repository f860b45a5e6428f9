#!/usr/bin/env python
"""Scale-out benchmark: the process-pool pipeline under load.

This benchmark characterises the process executor along two axes --
scaling and memory -- and writes a JSON report that CI regresses
against (``BENCH_pr8.json``).

Stages
------
* ``curve``          -- nodes-vs-wall-clock (and peak RSS) points: one
  fresh child process per (family, size) running the streaming
  compression pipeline under the process executor.  Each point is a
  separate OS process because ``ru_maxrss`` is a lifetime high-water
  mark -- points measured in a shared process would inherit each
  other's peaks;
* ``memory_budget``  -- the big fat-tree point re-run with
  ``--memory-budget``-style streaming aggregation (per-class records
  spill to disk as they arrive); the run fails if peak RSS exceeds the
  stated bound (:data:`MEMORY_BUDGET_MIB`).

Every timed arm is run ``--repeat`` times and the *minimum* is
reported, so scheduler noise cannot manufacture a regression.

Usage
-----
Full benchmark with report::

    python benchmarks/bench_scale.py --out bench_scale.json

CI quick mode with the regression gate::

    python benchmarks/bench_scale.py --quick \
        --baseline BENCH_pr8.json --max-regression 0.25
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional

#: (family, size) curve points per mode.  Quick stays CI-sized; full
#: climbs to the fat-tree k=16 / 320-device point the PR's memory
#: claims are stated against.
FULL_CURVE_POINTS = [
    ("fattree", 4),
    ("fattree", 6),
    ("fattree", 8),
    ("fattree", 16),
    ("wan", 2),
    ("wan", 12),
]
QUICK_CURVE_POINTS = [
    ("fattree", 4),
    ("fattree", 6),
    ("wan", 2),
]

#: The memory-budget point and its stated bound per mode.  The full
#: bound is the PR's acceptance criterion for fat-tree k=16 (observed
#: ~160 MiB streaming; the bound leaves cross-machine headroom while
#: still refusing an O(classes) blow-up).
MEMORY_BUDGET_POINT = {"quick": ("fattree", 6), "full": ("fattree", 16)}
MEMORY_BUDGET_MIB = {"quick": 256.0, "full": 384.0}

#: Process-pool width of every point.
WORKERS = 4

#: Flat grace added to every per-stage regression check.  Curve points
#: pay a full interpreter + pool start per measurement, so the floor is
#: larger than bench_hotpaths' millisecond-scale one.
ABSOLUTE_SLACK_SECONDS = 0.25
#: Flat grace on peak-RSS comparisons: allocator and interpreter
#: baselines differ by tens of MiB across Python builds.
ABSOLUTE_SLACK_MB = 64.0


# ----------------------------------------------------------------------
# Child mode: one measured point per OS process
# ----------------------------------------------------------------------
def run_point(spec: Dict) -> Dict:
    """Run one curve/memory point in *this* process and describe it.

    Executed in a fresh child (``--run-point``) so ``ru_maxrss`` is this
    point's own high-water mark.
    """
    from repro.netgen.families import build_topology
    from repro.perfutil import peak_rss_mb
    from repro.pipeline.core import CompressionPipeline

    family, size = spec["family"], int(spec["size"])
    network = build_topology(family, size)
    start = time.perf_counter()
    pipeline = CompressionPipeline(
        network,
        executor=spec.get("executor", "process"),
        workers=int(spec.get("workers", WORKERS)),
    )
    if spec.get("spill", True):
        report = pipeline.run_streaming(spill=True)
    else:
        report = pipeline.run().report
    wall = time.perf_counter() - start
    if not report.ok():
        raise RuntimeError(
            f"{family}({size}): pipeline produced "
            f"{report.record_count()}/{report.num_classes} classes"
        )
    return {
        "family": family,
        "size": size,
        "devices": network.num_devices(),
        "num_classes": report.num_classes,
        "wall_seconds": wall,
        "encode_seconds": report.encode_seconds,
        "peak_rss_mb": peak_rss_mb(),
        "spill": bool(spec.get("spill", True)),
    }


def _measure_point(spec: Dict) -> Dict:
    """Run one point in a fresh child process and parse its report."""
    env = dict(os.environ)
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src + (os.pathsep + existing if existing else "")
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--run-point", json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    if proc.returncode != 0:
        raise RuntimeError(
            f"point {spec} failed (exit {proc.returncode}):\n{proc.stderr}"
        )
    # The point report is the last stdout line (imports may chatter).
    return json.loads(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# Stages
# ----------------------------------------------------------------------
def stage_curve(points, repeat: int) -> List[Dict]:
    """One fresh-process measurement per point; min wall over repeats."""
    measured = []
    for family, size in points:
        runs = [
            _measure_point({"family": family, "size": size}) for _ in range(repeat)
        ]
        best = min(runs, key=lambda r: r["wall_seconds"])
        best["wall_seconds"] = min(r["wall_seconds"] for r in runs)
        # RSS is a property of the workload, not of scheduler luck:
        # keep the *max* across repeats so the gate bounds the worst run.
        best["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
        measured.append(best)
        print(
            f"    curve {family}({size}): {best['devices']} devices, "
            f"{best['num_classes']} classes, {best['wall_seconds']:.2f}s, "
            f"peak RSS {best['peak_rss_mb']:.1f} MiB"
        )
    return measured


def stage_memory_budget(mode: str, repeat: int) -> Dict:
    """The big point under a stated memory bound, streaming enabled."""
    family, size = MEMORY_BUDGET_POINT[mode]
    budget = MEMORY_BUDGET_MIB[mode]
    runs = [
        _measure_point({"family": family, "size": size, "spill": True})
        for _ in range(repeat)
    ]
    observed = max(r["peak_rss_mb"] for r in runs)
    seconds = min(r["wall_seconds"] for r in runs)
    within = observed <= budget
    print(
        f"    memory budget {family}({size}): peak RSS {observed:.1f} MiB "
        f"({'within' if within else 'EXCEEDS'} the stated {budget:.0f} MiB bound), "
        f"{seconds:.2f}s"
    )
    return {
        "family": family,
        "size": size,
        "budget_mib": budget,
        "peak_rss_mb": observed,
        "wall_seconds": seconds,
        "within_budget": within,
    }


# ----------------------------------------------------------------------
# Driver
# ----------------------------------------------------------------------
def run_benchmark(mode: str, repeat: int):
    """Returns ``(stages, rss, extras)``."""
    points = QUICK_CURVE_POINTS if mode == "quick" else FULL_CURVE_POINTS

    print("  curve:")
    curve = stage_curve(points, repeat)
    print("  memory budget:")
    budget = stage_memory_budget(mode, repeat)

    stages: Dict[str, float] = {}
    rss: Dict[str, float] = {}
    for point in curve:
        key = f"curve_{point['family']}{point['size']}"
        stages[key] = point["wall_seconds"]
        rss[key] = point["peak_rss_mb"]
    stages["memory_budget"] = budget["wall_seconds"]
    rss["memory_budget"] = budget["peak_rss_mb"]
    extras = {"points": curve, "memory_budget": budget}
    return stages, rss, extras


def compare_to_baseline(
    stages: Dict[str, float],
    rss: Dict[str, float],
    baseline: Dict,
    max_regression: float,
    mode: str,
) -> List[str]:
    """Regressions of this run vs the baseline's ``after`` section.

    The ``after`` section may be flat or keyed by mode; each mode block
    holds ``stages`` (seconds) and ``rss_mb`` (MiB).  Time checks get
    ``max_regression`` + :data:`ABSOLUTE_SLACK_SECONDS`; RSS checks get
    ``max_regression`` + :data:`ABSOLUTE_SLACK_MB`.
    """
    reference: Optional[Dict] = baseline.get("after")
    if isinstance(reference, dict) and mode in reference:
        reference = reference[mode]
    if not isinstance(reference, dict):
        return [f"baseline file has no 'after' section for {mode!r}"]
    problems = []
    for name, ref_seconds in (reference.get("stages") or {}).items():
        now = stages.get(name)
        if now is None or ref_seconds <= 0:
            continue
        if now <= ref_seconds * (1.0 + max_regression) + ABSOLUTE_SLACK_SECONDS:
            continue
        problems.append(
            f"stage {name}: {now:.3f}s vs baseline {ref_seconds:.3f}s "
            f"({now / ref_seconds:.2f}x, limit {1.0 + max_regression:.2f}x "
            f"+ {ABSOLUTE_SLACK_SECONDS:.2f}s slack)"
        )
    for name, ref_mb in (reference.get("rss_mb") or {}).items():
        now = rss.get(name)
        if now is None or ref_mb <= 0:
            continue
        if now <= ref_mb * (1.0 + max_regression) + ABSOLUTE_SLACK_MB:
            continue
        problems.append(
            f"peak RSS {name}: {now:.1f} MiB vs baseline {ref_mb:.1f} MiB "
            f"({now / ref_mb:.2f}x, limit {1.0 + max_regression:.2f}x "
            f"+ {ABSOLUTE_SLACK_MB:.0f} MiB slack)"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workloads")
    parser.add_argument(
        "--repeat", type=int, default=2, help="repeats per arm (min is kept)"
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--baseline", default=None, help="compare against this BENCH_*.json file"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown (and RSS growth) per stage vs the "
        "baseline (default 0.25)",
    )
    parser.add_argument(
        "--history",
        default=None,
        help="append this run to the given bench-history file "
        "(default: $REPRO_OBS_HISTORY or ./BENCH_HISTORY.jsonl)",
    )
    parser.add_argument(
        "--no-history",
        action="store_true",
        help="skip the bench-history append",
    )
    parser.add_argument(
        "--run-point",
        default=None,
        metavar="JSON",
        help=argparse.SUPPRESS,  # internal: child-process point runner
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    if args.run_point is not None:
        print(json.dumps(run_point(json.loads(args.run_point)), sort_keys=True))
        return 0

    mode = "quick" if args.quick else "full"
    print(f"scale-out benchmark ({mode}, repeat={args.repeat})")
    stages, rss, extras = run_benchmark(mode, args.repeat)
    for name in sorted(stages):
        line = f"  {name:18s} {stages[name]:8.3f}s"
        if name in rss:
            line += f"  (peak RSS {rss[name]:7.1f} MiB)"
        print(line)

    status = 0
    if not extras["memory_budget"]["within_budget"]:
        status = 1
        print(
            f"MEMORY BUDGET EXCEEDED: "
            f"{extras['memory_budget']['peak_rss_mb']:.1f} MiB over the "
            f"{extras['memory_budget']['budget_mib']:.0f} MiB bound",
            file=sys.stderr,
        )
    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_to_baseline(
            stages, rss, baseline, args.max_regression, mode
        )
        if problems:
            status = 1
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
        else:
            print(
                f"  no stage regressed >{args.max_regression:.0%} vs {args.baseline}"
            )

    if args.out:
        report = {
            "benchmark": "scale",
            "mode": mode,
            "repeat": args.repeat,
            "workers": WORKERS,
            "stages": stages,
            "rss_mb": rss,
            "points": extras["points"],
            "memory_budget": extras["memory_budget"],
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  report written to {args.out}")

    if not args.no_history:
        from repro.obs import history as bench_history

        path = bench_history.default_history_path(args.history)
        bench_history.append(
            path,
            "scale",
            stages,
            peak_rss_mb=max(rss.values()) if rss else None,
            meta={
                "mode": mode,
                "repeat": args.repeat,
                "rss_mb": rss,
            },
        )
        print(f"  history appended to {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
