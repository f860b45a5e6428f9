"""The untraced pass: end-to-end metrics from fresh child processes."""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List

from harness import (
    ChildRun,
    ServeChild,
    median,
    percentile,
    pipeline_cmd,
    run_child,
    work_dir,
)
from serveload import LoadResult, request_plan, run_load
from workloads import Workload, check_report, load_expected, report_facts, store_save_args

#: Untimed closed-loop seconds before the serve window opens.
SERVE_WARMUP_S = 0.5


@dataclass
class Outcome:
    """One pass over one workload.

    ``samples`` keeps every timed value behind a metric so the report can
    state the median, quartiles and sample count; ``metrics`` is what goes
    into the result line.
    """

    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    samples: Dict[str, List[float]] = field(default_factory=dict)

    def attempt(self, succeeded: bool, problem: str) -> bool:
        self.attempted += 1
        if not succeeded:
            self.failures.append(problem)
        return succeeded

    def absorb(self, attempted: int, failures: List[str]) -> None:
        self.attempted += attempted
        self.failures += failures

    def take(self, statistic: Callable, samples: Dict[str, List[float]]) -> None:
        """Record samples; the metric is ``statistic`` of them."""
        for name, values in samples.items():
            self.samples[name] = values
            self.metrics[name] = statistic(values)


def measure_batch(
    workload: Workload, seed: int, seconds: float, smoke: bool, min_runs: int
) -> Outcome:
    """Wall clock, set-up time and peak RSS of a batch workload's child.

    One untimed set-up run first (it fills the page cache and writes the
    ``.pyc`` files a fresh checkout lacks; skipped at smoke sizes), then
    pairs of a set-up run and a full run until ``seconds`` have passed and
    at least ``min_runs`` pairs are in.  The pairs alternate so that both
    times sample the whole pass, not one end of it.  A child that fails
    or times out ends the pass.
    """
    outcome = Outcome()
    expected = load_expected(workload.name, smoke)
    with work_dir() as tmp:
        report_path = tmp / "report.json"
        command = workload.command(seed, smoke)
        setup_command = command + workload.setup_flags
        full_command = command + ["--output", str(report_path)]

        def child(cmd: List[str]) -> ChildRun:
            run = run_child(cmd)
            outcome.attempt(
                run.ok, f"child exited {run.exit_code}: {' '.join(cmd)}\n{run.stderr_tail}"
            )
            return run

        if not smoke:
            child(setup_command)
        setups: List[ChildRun] = []
        runs: List[ChildRun] = []
        started = time.perf_counter()
        while not outcome.failures:
            elapsed = time.perf_counter() - started
            # Do not start a pair that would end after the window closed.
            if len(runs) >= min_runs and elapsed + elapsed / len(runs) > seconds:
                break
            setup = child(setup_command)
            if not setup.ok:
                break
            report_path.unlink(missing_ok=True)
            run = child(full_command)
            if not run.ok:
                break
            setups.append(setup)
            runs.append(run)
            try:
                with open(report_path, "r", encoding="utf-8") as handle:
                    report = json.load(handle)
            except (OSError, ValueError) as exc:
                outcome.attempt(False, f"unreadable report: {exc}")
                break
            outcome.absorb(*check_report(report, expected, seed))
            nodes_mean = report_facts(report).get("abstract_nodes_mean")
            if nodes_mean is not None:
                outcome.metrics["abstraction.abstract_nodes_mean"] = nodes_mean
    if runs:
        # Times are the fastest run, not the median: the box's noise is
        # one-sided, and two sets of medians of the same code differed by
        # up to 32 % (README, "Why the fastest run"); the median is printed
        # beside it and reported as harness.wall_median_s.
        outcome.take(min, {
            "wall_s": [r.wall_s for r in runs],
            "setup_s": [r.wall_s for r in setups],
        })
        outcome.take(median, {"peak_rss_mb": [r.rss_mb for r in runs]})
    return outcome


def measure_serve(
    workload: Workload, seed: int, seconds: float, smoke: bool, setup_runs: int
) -> Outcome:
    """The ``serve-mixed`` pass: store save, timed spawns, closed-loop window.

    ``wall_s`` is the wall clock per 100 completed requests of the mix
    (100 / qps); ``setup_s`` is spawn -> first 200 from ``/health``,
    fastest of the spawns.  What only this workload defines -- throughput
    and the client-side latencies -- goes under its per-layer ``serve.``
    names.
    """
    outcome = Outcome()
    expected = load_expected(workload.name, smoke)
    family, size = workload.family, workload.size_for(smoke)
    with work_dir() as tmp:
        store = tmp / "store"
        saved = run_child(pipeline_cmd(*store_save_args(family, size, store)))
        problem = f"store save exited {saved.exit_code}: {saved.stderr_tail}"
        if not outcome.attempt(saved.ok, problem):
            return outcome
        plans = request_plan(family, size, seed)
        setups: List[float] = []
        load = LoadResult(window_s=seconds)
        rss_mb = 0.0
        try:
            for last in [False] * (setup_runs - 1) + [True]:
                with ServeChild(family, size, store) as server:
                    setups.append(server.setup_s)
                    health = server.health
                    outcome.attempt(
                        health["classes"] == expected["classes"]
                        and health["store"]["rebuilt"] is False,
                        f"/health: {health['classes']} classes, store {health['store']}",
                    )
                    if last:
                        load = run_load(server, plans, SERVE_WARMUP_S, seconds)
                        rss_mb = server.stop()
        except (RuntimeError, OSError) as exc:
            outcome.attempt(False, f"serve child: {exc}")
    outcome.absorb(load.attempted, load.failures)
    if load.completed:
        verify, delta = load.latencies_ms["verify"], load.latencies_ms["delta"]
        outcome.take(min, {"setup_s": setups})
        outcome.take(median, {"serve.verify_p50_ms": verify})
        if delta:  # a smoke window may close before the first /delta
            outcome.take(median, {"serve.delta_p50_ms": delta})
        outcome.metrics.update({
            "wall_s": 100.0 / load.qps,
            "peak_rss_mb": rss_mb,
            "serve.qps": load.qps,
            "serve.verify_p95_ms": percentile(verify, 0.95),
            "serve.response_bytes": median(load.response_bytes),
        })
    return outcome


def measure(workload: Workload, seed: int, seconds: float, smoke: bool) -> Outcome:
    """The end-to-end pass with the run counts the benchmark is defined with."""
    if workload.entry == "serve":
        return measure_serve(workload, seed, seconds, smoke, setup_runs=1 if smoke else 5)
    if smoke:
        return measure_batch(workload, seed, 0.0, smoke, min_runs=1)
    return measure_batch(workload, seed, seconds, smoke, min_runs=5)
