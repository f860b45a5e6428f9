#!/usr/bin/env python3
"""Quickstart: compress a BGP fat-tree and check a property on both networks.

Run with::

    python examples/quickstart.py
"""

from repro import Bonsai, build_abstract_srp, fattree_network
from repro.analysis import (
    abstract_arm,
    check_reachability,
    compute_forwarding_table,
    get_property,
)


def main() -> None:
    # 1. Build a configured network: a k=4 fat-tree running eBGP shortest
    #    path routing with per-destination prefix filters.
    network = fattree_network(k=4)
    print(f"Concrete network: {network.graph.num_nodes()} nodes, "
          f"{network.graph.num_undirected_edges()} edges, "
          f"{network.total_config_lines()} lines of configuration")

    # 2. Compress it with Bonsai, one destination equivalence class at a time.
    bonsai = Bonsai(network)
    classes = bonsai.equivalence_classes()
    print(f"Destination equivalence classes: {len(classes)}")

    result = bonsai.compress(classes[0], build_network=False)
    print(f"Compressed network for {classes[0].prefix}: "
          f"{result.abstract_nodes} nodes, {result.abstract_edges} edges "
          f"({result.node_compression_ratio():.1f}x node reduction, "
          f"{result.edge_compression_ratio():.1f}x edge reduction)")
    print("Abstract node membership:")
    for group in sorted(result.abstraction.groups(), key=lambda g: -len(g)):
        members = ", ".join(sorted(map(str, group))[:6])
        suffix = " ..." if len(group) > 6 else ""
        print(f"  [{len(group):>2} routers] {members}{suffix}")

    # 3. Analyse the small network instead of the big one: solve the
    #    abstract SRP the partition induces, check reachability on its
    #    nodes and lift the verdicts back to the concrete routers through f.
    abstract_srp = build_abstract_srp(result.concrete_srp, result.abstraction)
    context, lifted = abstract_arm(
        result.abstraction, abstract_srp,
        [get_property("reachability")], list(network.graph.nodes),
        waypoints=frozenset(), path_bound=network.graph.num_nodes(),
    )
    source = result.abstraction.f("core0")
    outcome = check_reachability(context.table, source)
    print(f"Reachability from {source} (stands for every core switch): "
          f"{'reachable' if outcome.holds else 'UNREACHABLE'} "
          f"via {' -> '.join(map(str, outcome.witness))}")

    # Because the abstraction is CP-equivalent, the lifted verdict of every
    # router in the original 20-node network is its concrete verdict.
    concrete_table = compute_forwarding_table(network, classes[0])
    assert lifted["reachability"]["core0"] == outcome.holds
    for node in network.graph.nodes:
        assert check_reachability(concrete_table, node).holds == lifted["reachability"][str(node)]
    print(f"Concrete network agrees on all {network.graph.num_nodes()} routers - "
          "the compression preserved reachability.")


if __name__ == "__main__":
    main()
