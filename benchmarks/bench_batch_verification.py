#!/usr/bin/env python3
"""Batch property verification across every generated topology family.

For each family the script runs the full property catalogue through
:class:`repro.analysis.batch.BatchVerifier` -- every property, every node,
every destination equivalence class, on the concrete *and* the
Bonsai-compressed network -- and reports the abstract-vs-concrete speedup
plus the per-property pass/fail totals.  The JSON report is uploaded as a
CI artifact, and the script **exits non-zero if any abstract verdict
diverges from the concrete one** (the paper's soundness theorem as a CI
gate).

Run directly (pytest is not involved)::

    PYTHONPATH=src python benchmarks/bench_batch_verification.py \
        --out batch_verification.json

``--quick`` shrinks every workload for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, Optional

from repro.analysis.batch import BatchVerifier
from repro.netgen.families import build_topology

#: (family, size, quick_size) benchmark workloads.
WORKLOADS = [
    ("fattree", 6, 4),
    ("mesh", 10, 6),
    ("ring", 12, 8),
    ("datacenter", 3, 2),
    ("wan", 3, 2),
]


def bench_workload(
    family: str,
    size: int,
    executor: str,
    workers: int,
    limit: Optional[int],
) -> Dict:
    network = build_topology(family, size)
    verifier = BatchVerifier(
        network,
        executor=executor,
        workers=workers,
        limit=limit,
    )
    report = verifier.run(raise_on_timeout=False)
    result = report.to_dict()
    result["family"] = family
    result["size"] = size
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--executor", default="serial",
                        help="serial, process or auto (default: serial)")
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--limit", type=int, default=None,
                        help="verify only the first N classes per family")
    parser.add_argument("--quick", action="store_true",
                        help="use the small per-family sizes")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    results = []
    diverged = False
    for family, size, quick_size in WORKLOADS:
        chosen = quick_size if args.quick else size
        start = time.perf_counter()
        result = bench_workload(family, chosen, args.executor, args.workers, args.limit)
        elapsed = time.perf_counter() - start
        agree = result["aggregate"]["verdicts_agree"]
        diverged = diverged or not agree
        speedup = result["aggregate"]["speedup"]
        speed_text = f"{speedup:.2f}x" if speedup is not None else "n/a"
        print(
            f"{family}({chosen}): {result['num_classes']} classes, "
            f"abstract-vs-concrete speedup {speed_text}, "
            f"{'AGREE' if agree else 'DIVERGE'} ({elapsed:.2f}s)"
        )
        results.append(result)

    payload = {
        "host": platform.node(),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "executor": args.executor,
        "workloads": results,
        "verdicts_agree": not diverged,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if diverged:
        print("ERROR: abstract and concrete verdicts diverged", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
