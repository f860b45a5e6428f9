#!/usr/bin/env python3
"""A pooled, spilled failure sweep that equals the serial one.

Destination classes are independent (Bonsai, §5.1), so the class is the
process pool's unit of work: the executor queues contiguous bundles of
whole classes and an idle worker pulls the next.  A class runs all of
its failure scenarios in one worker, seeding every scenario's
incremental re-solve from the one baseline it solved.  With
``spill=True`` each class record goes to a JSONL file the moment it
arrives, so the driver holds O(1) records.

This example runs the same single-link failure sweep twice -- serial,
and over a 4-worker pool with spilling -- and checks that the two
reports hold identical records.

Run with::

    PYTHONPATH=src python examples/pooled_sweep.py
"""

from repro.failures import FailureSweep
from repro.netgen.families import build_topology


def main() -> None:
    # A k=6 fat-tree: 45 devices, 18 destination classes; the first 6,
    # spread over 4 workers.
    network = build_topology("fattree", 6)
    kwargs = dict(k=1, limit=6, soundness=False)

    serial = FailureSweep(network, executor="serial", **kwargs).run()
    pooled = FailureSweep(
        network, executor="process", workers=4, spill=True, **kwargs
    ).run()

    scenarios = sum(len(record.scenarios) for record in pooled.iter_records())
    print(f"Pooled failure sweep: {pooled.record_count()} class records "
          f"({scenarios} scenarios) spilled, {len(pooled.records)} held in memory")
    same = serial.canonical_records() == pooled.canonical_records()
    print(f"Records equal the serial sweep's: {same}")
    if not same:
        raise SystemExit(1)


if __name__ == "__main__":
    main()
