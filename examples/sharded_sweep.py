#!/usr/bin/env python3
"""A chunked, spilled failure sweep that equals the serial one.

The process executor queues contiguous bundles of classes and lets idle
workers pull the next.  When a sweep has fewer classes than twice the
workers, that would leave workers idle, so a task whose per-class work
is a sequence of units -- a failure sweep's scenarios, a change sweep's
steps -- has every class cut into contiguous chunks of that sequence;
the coordinator merges a class's chunk records back in chunk order.
With ``spill=True`` each merged class record goes to a JSONL file the
moment it arrives, so the driver holds O(1) records.

This example runs the same single-link failure sweep twice -- serial,
and chunked over a 4-worker pool with spilling -- and checks that the
two reports hold identical records.

Run with::

    PYTHONPATH=src python examples/sharded_sweep.py
"""

from repro.failures import FailureSweep
from repro.netgen.families import build_topology


def main() -> None:
    # A k=6 fat-tree: 45 devices, 18 destination classes.  Three classes
    # under 4 workers: each class is cut into ceil(8 / 3) = 3 chunks.
    network = build_topology("fattree", 6)
    kwargs = dict(k=1, limit=3, soundness=False)

    serial = FailureSweep(network, executor="serial", **kwargs).run()
    chunked = FailureSweep(
        network, executor="process", workers=4, spill=True, **kwargs
    ).run()

    scenarios = sum(len(record.scenarios) for record in chunked.iter_records())
    print(f"Chunked failure sweep: {chunked.record_count()} class records "
          f"({scenarios} scenarios) spilled, {len(chunked.records)} held in memory")
    same = serial.canonical_records() == chunked.canonical_records()
    print(f"Records equal the serial sweep's: {same}")
    if not same:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
