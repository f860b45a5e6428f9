#!/usr/bin/env python
"""Failure audit of a fat-tree: which properties survive any single link cut?

This is the workload the paper's compression cannot answer on the abstract
network alone -- link failures are the stated limitation -- and exactly
what `repro.failures` adds: sweep every single-link failure scenario,
re-solve the failed control plane incrementally from the intact baseline
(cross-checked against a scratch solve), and flag per scenario whether the
Bonsai abstraction can still represent the failure.

Run with ``PYTHONPATH=src python examples/failure_sweep.py``.
"""

from __future__ import annotations

from repro import FailureSweep, fattree_network
from repro.failures import points_of_interest

network = fattree_network(k=4)
print(f"auditing {network.name}: {network.graph.num_nodes()} nodes, "
      f"{network.graph.num_undirected_edges()} links")

# Named single points of interest are prepended to the exhaustive k=1
# enumeration, so the report can call out the hub and the busiest link.
interesting = points_of_interest(network)
print(f"points of interest: {', '.join(sorted(interesting))}")

sweep = FailureSweep(network, k=1, executor="serial")
report = sweep.run()

print()
for line in report.summary_lines():
    print(line)

# ----------------------------------------------------------------------
# The audit verdict: which properties are failure-resilient?
# ----------------------------------------------------------------------
print()
first = report.first_break()
resilient = [prop for prop in report.properties if first[prop] is None]
fragile = {prop: first[prop] for prop in report.properties if first[prop]}
print(f"resilient to every single link failure: {', '.join(resilient) or '-'}")
for prop, scenario in fragile.items():
    print(f"fragile: {prop} first broken by {scenario}")

# ----------------------------------------------------------------------
# Where the abstraction stops being trustworthy
# ----------------------------------------------------------------------
counts = report.abstraction_counts()
print()
print(
    f"abstraction soundness: {counts['sound']}/{counts['checked']} scenarios "
    "remain representable on the baseline abstraction"
)
print(
    f"(the other {counts['recompressed']} were re-compressed per scenario; "
    f"{counts['disagreed']} verdict disagreements found)"
)
speedup = report.incremental_speedup
if speedup is not None:
    print(f"incremental re-solve speedup over scratch: {speedup:.2f}x")

assert report.ok(), "incremental divergence or soundness disagreement!"
