#!/usr/bin/env python3
"""Serial vs. parallel wall-clock scaling of the compression pipeline.

For each workload the script encodes the network once, runs the pipeline
with the serial executor, then with a worker pool, checks that the two runs
produce bit-identical per-class output, and reports the wall-clock speedup.
The JSON report is uploaded as a CI artifact so the performance trajectory
can be tracked across PRs.

Run directly (pytest is not involved)::

    PYTHONPATH=src python benchmarks/bench_pipeline_scaling.py \
        --workers 4 --out pipeline_scaling.json

``--quick`` shrinks every workload for smoke runs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from typing import Dict, List, Optional

from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.pipeline.core import CompressionPipeline
from repro.pipeline.encoded import EncodedNetwork

#: (family, size, quick_size) benchmark workloads.
WORKLOADS = [
    ("fattree", 8, 4),
    ("mesh", 16, 8),
    ("wan", 6, 3),
]


def bench_workload(
    family: str,
    size: int,
    workers: int,
    executor: str,
    repeat: int,
) -> Dict:
    network = build_topology(family, size)
    artifact = EncodedNetwork.build(network)
    # Freeze the one-time artifact once: every timed run below unpickles a
    # fresh copy, so no arm benefits from caches warmed by an earlier arm
    # (the encoder's specialize cache and BDD store are mutable).
    payload = artifact.to_bytes()

    def timed(run_executor: str, run_workers: int) -> Dict:
        best = None
        canonical = None
        for _ in range(repeat):
            pipeline = CompressionPipeline(
                artifact=EncodedNetwork.from_bytes(payload),
                executor=run_executor,
                workers=run_workers,
            )
            start = time.perf_counter()
            run = pipeline.run()
            elapsed = time.perf_counter() - start
            if best is None or elapsed < best:
                best = elapsed
                canonical = run.report.canonical_records()
        return {"seconds": best, "canonical": canonical}

    serial = timed("serial", 1)
    parallel = timed(executor, workers)
    speedup = serial["seconds"] / parallel["seconds"] if parallel["seconds"] else None
    return {
        "family": family,
        "size": size,
        "devices": network.graph.num_nodes(),
        "classes": len(artifact.classes),
        "encode_seconds": artifact.encode_seconds,
        "executor": executor,
        "workers": workers,
        "serial_seconds": serial["seconds"],
        "parallel_seconds": parallel["seconds"],
        "speedup": speedup,
        "identical": serial["canonical"] == parallel["canonical"],
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--topos",
        default=",".join(family for family, _, _ in WORKLOADS),
        help="comma-separated topology families to run",
    )
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--executor", choices=("process", "auto"), default="process")
    parser.add_argument("--repeat", type=int, default=1, help="keep the best of N runs")
    parser.add_argument("--quick", action="store_true", help="shrink every workload")
    parser.add_argument("--out", default=None, help="write the JSON report here")
    args = parser.parse_args(argv)

    requested = [name.strip() for name in args.topos.split(",") if name.strip()]
    unknown = [name for name in requested if name not in TOPOLOGY_FAMILIES]
    if unknown:
        print(f"unknown topology families: {', '.join(unknown)}", file=sys.stderr)
        return 2

    results = []
    for family, size, quick_size in WORKLOADS:
        if family not in requested:
            continue
        result = bench_workload(
            family,
            quick_size if args.quick else size,
            workers=args.workers,
            executor=args.executor,
            repeat=args.repeat,
        )
        results.append(result)
        print(
            f"{result['family']}({result['size']}): "
            f"{result['devices']} devices, {result['classes']} classes | "
            f"serial {result['serial_seconds']:.3f}s, "
            f"{result['executor']}x{result['workers']} "
            f"{result['parallel_seconds']:.3f}s | "
            f"speedup {result['speedup']:.2f}x | "
            f"identical: {result['identical']}"
        )

    report = {
        "benchmark": "pipeline_scaling",
        "version": 1,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "workers": args.workers,
        "executor": args.executor,
        "quick": args.quick,
        "results": results,
    }
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"report written to {args.out}")

    if not all(result["identical"] for result in results):
        print("FAIL: parallel output differs from serial output", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
