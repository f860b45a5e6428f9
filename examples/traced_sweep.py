#!/usr/bin/env python
"""A traced failure sweep: where does the wall clock actually go?

`repro.obs` gives every pillar one telemetry spine: a process-global
metrics registry (counters / gauges / bounded histograms) and a
structured tracer whose spans survive process-pool workers -- each work
unit ships its span subtree and counter delta home, and the coordinator
reattaches them deterministically. This example runs a single-link
failure sweep under a trace, writes the schema-versioned JSONL trace
file, and prints the self-time hotspot table -- the same data
`python -m repro.pipeline trace summarize` shows for any `--trace` run.

Run with ``PYTHONPATH=src python examples/traced_sweep.py``.
"""

from __future__ import annotations

from repro import FailureSweep, fattree_network
from repro.obs import metrics, trace

network = fattree_network(k=4)
print(f"sweeping {network.name}: {network.graph.num_nodes()} nodes, "
      f"{network.graph.num_undirected_edges()} links")

# ----------------------------------------------------------------------
# Run the sweep under a trace (process executor: spans cross the pool).
# ----------------------------------------------------------------------
trace.begin("run", command="failures")
report = FailureSweep(
    network, k=1, soundness=False, executor="process", workers=2
).run()
root = trace.end()

trace.write_jsonl("traced_sweep.jsonl", root, context={"command": "failures"})
print(f"\ntrace written to traced_sweep.jsonl "
      f"({sum(1 for _ in root.walk())} spans, {root.duration_ms:.0f}ms)")

# ----------------------------------------------------------------------
# Hotspots: span names ranked by self time (time not in any child span).
# ----------------------------------------------------------------------
print("\nhotspots by self time:")
for row in trace.hotspots(root, top=6):
    print(f"  {row['name']:10s} {row['self_ms']:8.1f}ms self "
          f"/ {row['total_ms']:8.1f}ms total over {row['count']} span(s)")

# ----------------------------------------------------------------------
# The same run's counters, from the report envelope: the registry rode
# along with the sweep (pool workers shipped their deltas home), so the
# report says how much solver and cache work the sweep really did.
# ----------------------------------------------------------------------
block = report.to_dict()["obs_metrics"]
print("\nsweep counters (from the report envelope):")
for name in ("srp.scratch_solves", "srp.seeded_solves",
             "srp.transfer_cache.hits", "srp.transfer_cache.misses",
             "pipeline.classes_completed"):
    print(f"  {name}: {block['counters'].get(name, 0):.0f}")
print(f"  process.peak_rss_mb: {block['gauges'].get('process.peak_rss_mb', 0):.1f}")

# The class-duration histogram is bounded-memory (reservoir sampled),
# but its count/sum/percentiles describe every class the sweep ran.
hist = block["histograms"].get("pipeline.class_seconds")
if hist:
    print(f"  pipeline.class_seconds: n={hist['count']} "
          f"p50={1e3 * (hist['p50'] or 0):.1f}ms "
          f"p95={1e3 * (hist['p95'] or 0):.1f}ms")

# Prometheus text of the same registry -- what serve's /metrics exposes.
line_count = len(metrics.render_prometheus([metrics.REGISTRY]).splitlines())
print(f"\n/metrics would expose {line_count} Prometheus series lines")
