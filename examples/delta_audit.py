#!/usr/bin/env python
"""Change audit of a fat-tree: does this route-map edit break anything?

The routine workload of a verifier that is cheap enough to run on every
commit: an operator tightens a route map (here: deny one top-of-rack's
/24 on an aggregation switch's export filter) and wants to know -- before
the change ships -- which properties break, where, and how much of the
expensive compression work can be reused.  `repro.delta` answers all
three: typed change sets applied as non-mutating views, incremental
re-verification seeded from the unchanged baseline (scratch-oracle
checked), and per-class abstraction revalidation that re-compresses only
the classes the change actually dirties.

Run with ``PYTHONPATH=src python examples/delta_audit.py``.
"""

from __future__ import annotations

from repro import DeltaSweep, fattree_network
from repro.config.prefix import Prefix
from repro.config.routemap import PrefixListEntry, RouteMapClause
from repro.delta import ChangeSet, PrefixListSet, RouteMapClauseInsert

network = fattree_network(k=4)
print(f"auditing {network.name}: {network.graph.num_nodes()} nodes, "
      f"{network.graph.num_undirected_edges()} links")

# The proposed changes: pod 0's aggregation switches stop exporting
# edge0_0's /24, one switch at a time.  Each deny clause is guarded by a
# prefix list, so it specialises away for every other destination class
# -- only the targeted class should ever re-compress.
target = Prefix.parse("10.0.0.0/24")


def tighten(device: str) -> ChangeSet:
    return ChangeSet(
        changes=(
            PrefixListSet(
                device=device,
                name="BLOCK-EDGE0",
                entries=(PrefixListEntry(prefix=target, action="permit"),),
            ),
            RouteMapClauseInsert(
                device=device,
                route_map="EXPORT-FILTER",
                clause=RouteMapClause(
                    sequence=5, action="deny", match_prefix_lists=("BLOCK-EDGE0",)
                ),
            ),
        ),
        name=f"tighten({device} ! {target})",
    )


script = [tighten("agg0_0"), tighten("agg0_1")]
for step in script:
    print(f"proposed change: {step.name}")

report = DeltaSweep(network, script=script, executor="serial").run()

print()
for line in report.summary_lines():
    print(line)

# ----------------------------------------------------------------------
# The audit verdict: what breaks, and where?
# ----------------------------------------------------------------------
print()
first = report.first_break()
broken = {prop: step for prop, step in first.items() if step is not None}
if not broken:
    print("the script breaks nothing: safe to ship")
for prop, step in sorted(broken.items()):
    print(f"{prop}: first broken by {step}")
for record in report.records:
    for outcome in record.steps:
        for prop, nodes in sorted(outcome.newly_failing.items()):
            print(
                f"  {outcome.step} BREAKS {prop} for {record.prefix} "
                f"at {', '.join(nodes)}"
            )

# ----------------------------------------------------------------------
# How much work the incremental path saved
# ----------------------------------------------------------------------
print()
counts = report.abstraction_counts()
print(
    f"abstraction revalidation: {counts['reused']}/{counts['checked']} classes "
    "re-verified WITHOUT re-compression (signature unchanged); "
    f"{counts['recompressed']} dirty classes re-compressed"
)
speedup = report.incremental_speedup
if speedup is not None:
    print(f"incremental re-verify vs scratch solve: {speedup:.2f}x")

assert report.ok(), "incremental divergence or abstract disagreement!"
