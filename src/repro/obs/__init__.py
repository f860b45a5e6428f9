"""``repro.obs`` -- the unified telemetry layer.

Two halves:

* :mod:`repro.obs.metrics` -- a process-global registry of counters,
  gauges and bounded (reservoir) histograms that absorbs the scattered
  per-cache counters, with snapshot/delta/merge so process-pool workers'
  increments survive the pool boundary;
* :mod:`repro.obs.trace` -- structured parent-linked spans with a
  ``--trace`` JSONL export, deterministic across executors.

The second observability stage builds on those:

* :mod:`repro.obs.profile` -- a span-scoped sampling profiler with
  collapsed-stack flamegraph export (``--profile``);
* :mod:`repro.obs.events` -- a schema-versioned structured event stream
  (``--events``), driving the ``--progress`` live meter and serve's
  ``/events`` long poll.

:func:`snapshot_run` / :func:`finish_run` bracket a sweep: the sweep
engines snapshot counters before running and call ``finish_run`` on
their report at the end, which records the peak-RSS gauge and attaches
the counter delta + trace summary to the report envelope.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.obs import events, metrics, trace

__all__ = ["events", "metrics", "trace", "snapshot_run", "finish_run"]


def snapshot_run() -> Dict[str, float]:
    """Counter snapshot taken at the start of a sweep/run."""
    return metrics.snapshot_counters()


def finish_run(
    report,
    counters_before: Optional[Dict[str, float]] = None,
    executor_selected: str = "",
) -> None:
    """Stamp run-level observability onto a report envelope.

    Records the ``process.peak_rss_mb`` gauge (every report now carries
    peak RSS, not just ``--memory-budget`` runs) and attaches the
    run's counter delta, gauges and histogram summaries -- plus a trace
    summary when tracing is active, and what the ``"auto"`` executor
    chose (:attr:`ClassFanOut.last_selection`) -- via
    :meth:`~repro.reporting.ReportEnvelope.attach_observability`.
    """
    from repro.perfutil import peak_rss_mb

    rss = peak_rss_mb()
    if rss is not None:
        metrics.gauge("process.peak_rss_mb").max(rss)
        if getattr(report, "peak_rss_mb", None) is None and hasattr(report, "peak_rss_mb"):
            report.peak_rss_mb = round(rss, 2)

    collected = metrics.collect()
    block = {
        "counters": (
            metrics.counters_delta(counters_before)
            if counters_before is not None
            else collected["counters"]
        ),
        "gauges": collected["gauges"],
        "histograms": collected["histograms"],
    }
    trace_summary = None
    if trace.active() and trace._ROOT is not None:
        # The root span is still open; summarise what has accrued so far.
        import time as _time

        root = trace._ROOT
        root.duration_ms = (_time.perf_counter() - root._t0) * 1000.0
        trace_summary = trace.summary(root)
    attach = getattr(report, "attach_observability", None)
    if attach is not None:
        attach(
            metrics_block=block,
            trace_summary=trace_summary,
            executor_selected=executor_selected,
        )
