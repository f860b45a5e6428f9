#!/usr/bin/env python
"""A profiled, event-streamed compression sweep: the full observatory.

On top of metrics and traces, `repro.obs` adds two runtime surfaces:

* a span-scoped sampling profiler (`obs.profile`) -- a background thread
  samples every live frame stack and attributes each sample to the trace
  span open on that thread, so the profile answers "which code is hot
  *inside* which span" and exports collapsed-stack ``folded`` lines any
  flamegraph tool renders directly;
* a structured event stream (`obs.events`) -- sweep start/end, per-class
  completions, splits, spills, fallbacks, store refusals -- with a live
  progress meter riding on it.

This example runs one compression sweep with both attached -- the
same wiring ``python -m repro.pipeline compress --profile P --events E
--progress`` does -- then reads every artifact back through its paranoid
reader.

Run with ``PYTHONPATH=src python examples/profiled_sweep.py``.
"""

from __future__ import annotations

from repro import fattree_network
from repro.obs import events, profile, trace
from repro.pipeline.core import CompressionPipeline

network = fattree_network(k=4)
print(f"compressing {network.name}: {network.graph.num_nodes()} nodes")

# ----------------------------------------------------------------------
# Attach the observatory: profiler + event file + live progress meter.
# The profiler needs an open trace to attribute samples to spans.
# ----------------------------------------------------------------------
trace.begin("run", command="compress")
writer = events.EventWriter("profiled_sweep.events.jsonl",
                            context={"command": "compress"})
meter = events.ProgressMeter()
with profile.SamplingProfiler(interval_ms=2.0) as profiler:
    result = CompressionPipeline(network, executor="process", workers=2).run()
meter.close()
writer.close()
root = trace.end()

# ----------------------------------------------------------------------
# The profile: span-attributed stacks, flamegraph-ready.
# ----------------------------------------------------------------------
profile.write_jsonl("profiled_sweep.profile.jsonl", profiler,
                    context={"command": "compress"})
print(f"\n{profiler.sample_count} samples across "
      f"{len(profiler.samples)} unique (span, stack) pairs")
print("hottest leaf frames:")
for row in profile.summary(profiler.records(), top=5):
    print(f"  {row['frame']}: {row['samples']} samples")

with open("profiled_sweep.folded", "w", encoding="utf-8") as handle:
    handle.write("\n".join(profiler.folded()) + "\n")
print("flamegraph input written to profiled_sweep.folded "
      "(feed to flamegraph.pl / speedscope / inferno)")

# Sampled CPU self-time landed on the spans themselves.
print("\nspans by sampled CPU self-time:")
rows = [r for r in trace.hotspots(root, top=6) if r.get("cpu_ms")]
for row in rows:
    print(f"  {row['name']:10s} {row['cpu_ms']:8.1f}ms cpu "
          f"/ {row['total_ms']:8.1f}ms wall over {row['count']} span(s)")

# ----------------------------------------------------------------------
# The event stream: read back through the refuse-on-defect reader.
# ----------------------------------------------------------------------
header, records = events.read_jsonl("profiled_sweep.events.jsonl")
completed = [r for r in records if r["type"] == "class.completed"]
print(f"\nevent stream: {len(records)} events "
      f"(schema v{header['schema_version']}), "
      f"{len(completed)} class completions")
start = next(r for r in records if r["type"] == "sweep.start")
print(f"  sweep.start announced {start['classes']} classes "
      f"(the progress meter's denominator)")

assert result.report.ok()
