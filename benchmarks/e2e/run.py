#!/usr/bin/env python3
"""End-to-end benchmark: process start to report, with a per-layer ledger.

One workload, one pass (the form the benchmark driver uses; the last
line of stdout is the result object)::

    python3 benchmarks/e2e/run.py --workload compress-fattree --seed 1 \
        --seconds 10 --trace 0

Every workload, untraced then traced, with the summary tables::

    python3 benchmarks/e2e/run.py [--seed N] [--smoke] [--check-repeat]

``--trace 0`` measures the end-to-end metrics from fresh child processes;
``--trace 1`` replays the workload in-process under spans and reports the
per-layer metrics.  Names, units, directions and bounds of all metrics
live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import OUT, ROOT, SRC, median, quartiles, repro_variables  # noqa: E402

if not (SRC / "repro").is_dir():
    sys.exit(f"error: {SRC / 'repro'} not found: the benchmark measures that program")
sys.path.insert(0, str(SRC))

from layers import LAYERS, trace  # noqa: E402
from measure import Outcome, measure  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
UNITS = {name: m["unit"] for name, m in {**END_TO_END, **PER_LAYER}.items()}
ORDER = {metric: index for index, metric in enumerate(UNITS)}

#: What the issue bounds on the workloads that define it, not on all.
#: ``BENCHMARK.json`` bounds a metric on every workload or on none, so
#: these are per-layer there; the untraced pass measures them all the
#: same, and ``--check-repeat`` holds them to these bounds.
SCOPED_BOUNDS = {
    "abstraction.abstract_nodes_mean": 0.0,
    "serve.qps": 0.10,
    "serve.verify_p50_ms": 0.10,
    "serve.verify_p95_ms": 0.25,
    "serve.delta_p50_ms": 0.15,
}
#: Passes per workload in each of the two sets ``--check-repeat`` compares.
REPEAT_PASSES = 3

Values = Optional[Dict[str, float]]


# ----------------------------------------------------------------------
# One workload, one pass
# ----------------------------------------------------------------------
def run_pass(name: str, seed: int, seconds: float, traced: bool, smoke: bool) -> Outcome:
    """Run one pass and print it for people."""
    workload = WORKLOADS[name]
    run = trace if traced else measure
    outcome = run(workload, seed, seconds, smoke)
    print(f"== {name} (seed {seed}, {'traced' if traced else 'untraced'}) ==")
    for problem in outcome.failures[:10]:
        print(f"  FAILED: {problem}")
    for note in outcome.notes:
        print(f"  note: {note}")
    for metric, value in sorted(outcome.metrics.items(), key=lambda item: ORDER[item[0]]):
        line = f"  {metric:<36} {value:>14.6g} {UNITS[metric]}"
        samples = outcome.samples.get(metric)
        if samples:
            q1, q3 = quartiles(samples)
            line += (
                f"   ({len(samples)} samples: least {min(samples):.4g}, "
                f"median {median(samples):.4g}, quartiles {q1:.4g} .. {q3:.4g})"
            )
        print(line)
    if outcome.attempted:
        failed = len(outcome.failures)
        print(
            f"  operations: {outcome.attempted} attempted, {failed} failed "
            f"(failed_share {failed / outcome.attempted:.4f})"
        )
    return outcome


def values(outcome: Outcome) -> Values:
    """What a correct pass measured; ``None`` for a pass with a failure."""
    return outcome.metrics if outcome.metrics and not outcome.failures else None


def result_line(outcome: Outcome, declared: dict) -> str:
    """The object the benchmark driver reads from the last line of stdout."""
    failed = len(outcome.failures)
    return json.dumps({
        "correct": failed == 0,
        "attempted": outcome.attempted,
        "failed": failed,
        # A layer the workload never calls spent no time there.
        "metrics": {
            metric: {"value": outcome.metrics.get(metric, 0.0), "unit": spec["unit"]}
            for metric, spec in declared.items()
        },
    })


# ----------------------------------------------------------------------
# Every workload
# ----------------------------------------------------------------------
def header(seed: int, smoke: bool) -> None:
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown (not a git checkout)"
    print(f"bench_e2e: seed {seed}{', smoke sizes' if smoke else ''}")
    print(f"  nproc {os.cpu_count()}, Python {platform.python_version()}, commit {commit}")
    found = repro_variables()
    print(f"  REPRO_* in the parent environment (not passed to children): {found or 'none'}")


def untraced_set(seed: int, seconds: float, smoke: bool) -> Dict[str, Values]:
    """Every workload's untraced pass; the work is in child processes, so
    one harness process serves them all."""
    return {name: values(run_pass(name, seed, seconds, False, smoke)) for name in WORKLOADS}


def spawn_traced(name: str, seed: int, seconds: float, smoke: bool) -> Values:
    """The traced pass in a process of its own, because it patches the
    program it replays; relays its text, returns its result-line values."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--workload", name,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "1",
    ] + (["--smoke"] if smoke else [])
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    lines = done.stdout.splitlines()
    if done.returncode != 0 or not lines:
        print("\n".join(lines))
        return None
    print("\n".join(lines[:-1]))
    result = json.loads(lines[-1])
    if not result["correct"]:
        return None
    return {metric: entry["value"] for metric, entry in result["metrics"].items()}


def print_tables(untraced: Dict[str, Values], traced: Dict[str, Values]) -> None:
    def cell(results: Dict[str, Values], name: str, metric: str) -> float:
        return (results[name] or {}).get(metric, float("nan"))

    print("\nEnd-to-end (untraced child processes; failed_share is each pass's operations line)")
    titles = [f"{m} [{UNITS[m]}]" for m in END_TO_END]
    print(f"  {'workload':<24}" + "".join(f"{title:>20}" for title in titles))
    for name in WORKLOADS:
        print(f"  {name:<24}" + "".join(f"{cell(untraced, name, m):>20.4f}" for m in END_TO_END))
    print("  end-to-end on the workloads that define them (per-layer in BENCHMARK.json):")
    for name in WORKLOADS:
        scoped = [
            f"{m} {untraced[name][m]:.6g} {UNITS[m]}"
            for m in SCOPED_BOUNDS if m in (untraced[name] or {})
        ]
        if scoped:
            print(f"  {name:<24}" + ", ".join(scoped))

    print("\nLedger (traced pass): self seconds beyond set-up, and share of wall_s")
    print(f"  {'layer':<14}" + "".join(f"{n:>23}" for n in WORKLOADS))

    def row(label: str, metric: str) -> None:
        cells = []
        for name in WORKLOADS:
            seconds = cell(traced, name, metric)
            share = 100.0 * seconds / cell(traced, name, "harness.wall_s")
            cells.append(f"{seconds:>14.3f}s {share:>5.1f}% ")
        print(f"  {label:<14}" + "".join(cells))

    row("set-up", "harness.setup_s")
    for layer in LAYERS:
        row(layer, f"ledger.{layer}_s")
    row("unattributed", "harness.unattributed_s")
    row("wall_s", "harness.wall_s")
    print("  (serve-mixed: seconds per 100 requests; set-up is outside its wall_s)")


def concatenate_traces() -> None:
    with open(OUT / "trace.jsonl", "w", encoding="utf-8") as out:
        for name in WORKLOADS:
            part = OUT / f"trace-{name}.jsonl"
            if part.exists():
                out.write(part.read_text(encoding="utf-8"))
    print(f"\nspans written to {OUT / 'trace.jsonl'}")


def run_all(seed: int, seconds: float, smoke: bool) -> int:
    header(seed, smoke)
    untraced = untraced_set(seed, seconds, smoke)
    traced = {name: spawn_traced(name, seed, seconds, smoke) for name in WORKLOADS}
    print_tables(untraced, traced)
    concatenate_traces()
    return 0 if all(untraced.values()) and all(traced.values()) else 1


def check_repeat(seed: int, seconds: float, smoke: bool) -> int:
    """Two untraced sets back to back, as the benchmark driver takes them:
    ``REPEAT_PASSES`` passes per workload and set, each with another seed,
    and per metric the median over the set.  The two medians may not differ
    by more than the metric's bound, in either direction."""
    header(seed, smoke)
    sets = [
        [untraced_set(seed + index, seconds, smoke) for index in range(REPEAT_PASSES)]
        for _ in range(2)
    ]
    if not all(all(results.values()) for results in sets[0] + sets[1]):
        print("\nRepeatability: a pass failed (FAILED above); nothing to compare")
        return 1
    bounds = {**{m: spec["bound"] for m, spec in END_TO_END.items()}, **SCOPED_BOUNDS}
    print(f"\nRepeatability: two sets of {REPEAT_PASSES} passes of the same code, medians")
    print(f"  {'workload':<24}{'metric':<34}{'first':>12}{'second':>12}{'differ':>9}{'bound':>7}")
    agree = True
    for name in WORKLOADS:
        for metric, bound in bounds.items():
            if metric not in sets[0][0][name]:
                continue  # scoped to other workloads
            a, b = (median([results[name][metric] for results in s]) for s in sets)
            differ = abs(b - a) / min(a, b)
            agree = agree and differ <= bound
            print(
                f"  {name:<24}{metric:<34}{a:>12.4f}{b:>12.4f}{differ:>8.1%} "
                f"{bound:>6.0%}{'' if differ <= bound else '  DISAGREES'}"
            )
    return 0 if agree else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="run one workload only")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--seconds", type=float, default=float(SPEC["run_seconds"]),
        help="measuring window of one pass",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one timed run")
    parser.add_argument(
        "--check-repeat", action="store_true",
        help="compare two sets of untraced passes of every workload",
    )
    args = parser.parse_args(argv)
    seconds = min(args.seconds, 3.0) if args.smoke else args.seconds
    if args.workload:
        outcome = run_pass(args.workload, args.seed, seconds, bool(args.trace), args.smoke)
        if not outcome.metrics:
            print("  nothing was measured", file=sys.stderr)
            return 1
        print(result_line(outcome, PER_LAYER if args.trace else END_TO_END))
        return 0
    if args.check_repeat:
        return check_repeat(args.seed, seconds, args.smoke)
    return run_all(args.seed, seconds, args.smoke)


if __name__ == "__main__":
    sys.exit(main())
