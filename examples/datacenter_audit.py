#!/usr/bin/env python3
"""Audit a multi-cluster datacenter: roles, compression and analysis speedup.

This example mirrors the paper's real-network evaluation (§8) on the
synthetic datacenter substitute: it reports how many distinct device roles
the configurations contain, compresses a few destination equivalence
classes, and compares the cost of an all-pairs reachability check on the
concrete versus the compressed network (a reachability-suite
``BatchVerifier`` run).  It exits 1 unless the two networks give every
node the same verdict.

Run with::

    python examples/datacenter_audit.py           # small instance, fast
    python examples/datacenter_audit.py --paper   # 197-device instance
"""

import sys
import time

from repro import Bonsai, datacenter_network
from repro.analysis import BatchVerifier, PropertySuite
from repro.netgen import DATACENTER_PAPER_SCALE, DATACENTER_SMALL_SCALE


def main(paper_scale: bool) -> int:
    params = DATACENTER_PAPER_SCALE if paper_scale else DATACENTER_SMALL_SCALE
    network = datacenter_network(params)
    stats = network.stats()
    print(f"Datacenter: {stats['nodes']} devices, {stats['edges']} links, "
          f"~{stats['config_lines']} lines of configuration, "
          f"{stats['equivalence_classes']} destination classes")

    bonsai = Bonsai(network)
    sample = bonsai.equivalence_classes()[0]
    roles = bonsai.unique_roles(sample.prefix)
    print(f"Distinct device roles (per-interface policy BDDs, unused tags ignored): {roles}")

    limit = 3 if paper_scale else None
    start = time.perf_counter()
    results = bonsai.compress_all(limit=limit)
    elapsed = time.perf_counter() - start
    summary = bonsai.summarize(results)
    row = summary.as_row()
    print(f"Compression over {len(results)} classes "
          f"(BDD build {summary.bdd_seconds:.2f}s, total {elapsed:.2f}s):")
    print(f"  mean abstract size: {row['abs_nodes']} nodes / {row['abs_edges']} edges "
          f"=> {row['node_ratio']}x node and {row['edge_ratio']}x edge reduction")

    # All-pairs reachability, with and without compression.  On the paper
    # scale instance restrict to a few classes so the example stays quick.
    report = BatchVerifier(
        network,
        suite=PropertySuite.from_names(["reachability"]),
        executor="serial",
        limit=2 if paper_scale else None,
    ).run()
    totals = report.property_totals()["reachability"]
    abstract_nodes = sum(record.abstract_nodes for record in report.records)
    print(f"All-pairs reachability over {report.num_classes} classes:")
    print(f"  concrete  : {report.concrete_seconds:6.2f}s  "
          f"({totals['checked']} nodes, {totals['concrete_failed']} unreachable)")
    print(f"  compressed: {report.abstract_seconds:6.2f}s  "
          f"({abstract_nodes} abstract nodes; {totals['checked']} lifted nodes, "
          f"{totals['abstract_failed']} unreachable)")
    if report.speedup is not None:
        print(f"  speedup   : {report.speedup:.1f}x (including compression time; "
              f"the {report.encode_seconds:.2f}s encode is counted on neither side)")
    if report.verdicts_agree() and totals["concrete_failed"] == totals["abstract_failed"]:
        return 0
    print(f"VERDICTS DIVERGE: {report.mismatches()}", file=sys.stderr)
    return 1


if __name__ == "__main__":
    sys.exit(main(paper_scale="--paper" in sys.argv))
