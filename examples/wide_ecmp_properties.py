#!/usr/bin/env python3
"""Property verdicts on a wide-ECMP forwarding table, exactly.

Eleven layers of 2-way ECMP sit between ``n00`` and the destination
``d``: 2 048 forwarding paths, were both first-layer branches sound.  One
is not -- ``b00`` forwards into ``z``, which drops.  In name order the
1 024 delivered paths through ``a00`` come first, so checking
*all-paths-reach* by listing paths and stopping at some bound (1 000 is
what ``ForwardingTable.all_paths`` defaults to, and it now raises there)
would call the table sound.

The registered properties do not list paths: one O(V + E) analysis of the
forwarding graph (``ForwardingFacts``) decides every node, and the witness
is the first offending path of a walk that only steps where those facts
say an offending path continues.  This script prints the verdicts at
``n00`` and that witness; it exits 1 unless all-paths-reach,
black-hole-freedom and multipath-consistency fail there with the path
``n00 > b00 > z``.

Run with::

    PYTHONPATH=src python examples/wide_ecmp_properties.py
"""

from __future__ import annotations

import sys

from repro.analysis import ForwardingTable
from repro.analysis.dataplane import PathLimitExceeded
from repro.analysis.properties import (
    PropertyContext,
    evaluate_suite,
    get_property,
    registered_properties,
)
from repro.config import Prefix

LAYERS = 11
EXPECTED_FAILING = {"all-paths-reach", "black-hole-freedom", "multipath-consistency"}
EXPECTED_WITNESS = ["n00", "b00", "z"]


def wide_ecmp_table() -> ForwardingTable:
    next_hops = {"n00": {"a00", "b00"}, "d": set(), "z": set()}
    for layer in range(LAYERS):
        below = {f"a{layer + 1:02d}", f"b{layer + 1:02d}"} if layer + 1 < LAYERS else {"d"}
        next_hops[f"a{layer:02d}"] = set(below)
        next_hops[f"b{layer:02d}"] = set(below)
    next_hops["b00"] = {"z"}
    return ForwardingTable(
        destination=Prefix.parse("10.0.1.0/24"), origins={"d"}, next_hops=next_hops
    )


def main() -> int:
    table = wide_ecmp_table()
    try:
        table.all_paths("n00")
    except PathLimitExceeded as error:
        print(f"enumerating is out: {error}")

    specs = [get_property(name) for name in registered_properties()]
    verdicts = evaluate_suite(specs, table, sorted(table.next_hops), {"d"}, None)
    context = PropertyContext(table=table, waypoints=frozenset({"d"}))
    failing = set()
    ok = True
    for spec in specs:
        holds = verdicts[spec.name]["n00"]
        line = f"  {spec.name:<24}{'holds' if holds else 'FAILS'}"
        if not holds:
            failing.add(spec.name)
            witness = spec.evaluate(context, "n00").counterexample.to_dict()
            line += f"  via {' > '.join(witness['path'])}"
            ok &= witness["path"] == EXPECTED_WITNESS
        print(line)
    broken_elsewhere = sorted(
        node for node in table.next_hops
        if node not in ("n00", "b00", "z") and not all(v[node] for v in verdicts.values())
    )
    print(f"nodes failing anything besides n00, b00, z: {broken_elsewhere or 'none'}")
    return 0 if ok and failing == EXPECTED_FAILING and not broken_elsewhere else 1


if __name__ == "__main__":
    sys.exit(main())
