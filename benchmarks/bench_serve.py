#!/usr/bin/env python
"""Warm-baseline service benchmark: per-query latency, warm vs cold.

The point of the artifact store + ``repro.serve`` stack is that a
verification query against a warm stored baseline costs milliseconds,
while a cold per-query rebuild (encode + solve + compress every class,
what every query would pay without the store) costs the full baseline.
This benchmark measures both and writes a JSON report that CI regresses
against (``BENCH_serve.json``).

Stages
------
* ``store_save``   -- pickling + checksumming a built artifact to disk;
* ``store_load``   -- verified load (checksum, schema, fingerprint);
* ``cold_rebuild`` -- one cold query: build the baseline from scratch,
  then answer a whole-network verify off it;
* ``warm_verify``  -- total wall-clock of the warm query batch (every
  per-class query plus whole-network sweeps) against a warm session;
* ``http_roundtrip`` -- the same queries through the threaded HTTP
  server, concurrent clients included.

The report also records per-family latency percentiles and the headline
``warm_vs_cold_speedup`` = cold per-query rebuild / warm p95, gated in
CI with ``--min-speedup`` (the stored baseline must make warm queries at
least that much faster than rebuilding per query).

Usage
-----
Full run::

    python benchmarks/bench_serve.py --out bench_serve.json

CI quick mode with both gates::

    python benchmarks/bench_serve.py --quick \
        --baseline BENCH_serve.json --max-regression 0.25 --min-speedup 5
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
import threading
import time
import urllib.request
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Dict, List, Optional

from repro.api import Session
from repro.netgen.families import build_topology
from repro.serve import VerificationService, create_server
from repro.store import ArtifactStore, BaselineArtifact

FULL_WORKLOADS = [("fattree", 4), ("ring", 8), ("mesh", 6)]
QUICK_WORKLOADS = [("fattree", 4), ("ring", 5)]

#: Whole-network verify queries per family in the warm batch (on top of
#: one query per destination class).
SWEEP_QUERIES = 4

#: Concurrent HTTP clients per family.
HTTP_CLIENTS = 8

#: Noise floor added to the relative regression limit (quick-mode stages
#: are milliseconds; baselines come from a different machine than CI).
ABSOLUTE_SLACK_SECONDS = 0.25


def percentile(sorted_values: List[float], q: float) -> float:
    """Nearest-rank percentile of an already-sorted sample."""
    if not sorted_values:
        return 0.0
    rank = max(0, min(len(sorted_values) - 1, int(round(q * (len(sorted_values) - 1)))))
    return sorted_values[rank]


def _post(url: str, payload: Dict) -> Dict:
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"}
    )
    with urllib.request.urlopen(request, timeout=120) as response:
        return json.loads(response.read())


def bench_family(family: str, size: int, repeat: int) -> Dict[str, object]:
    """All per-family measurements (seconds unless suffixed ``_ms``)."""
    network = build_topology(family, size)

    # Cold per-query rebuild: what one per-class query would cost without
    # the store -- pay the full baseline, then answer that query.  min
    # over repeats so scheduler noise cannot manufacture the speedup.
    cold_samples = []
    for _ in range(repeat):
        start = time.perf_counter()
        session = Session(build_topology(family, size))
        session.verify(prefix=str(session.classes[0].prefix))
        cold_samples.append(time.perf_counter() - start)
    cold_seconds = min(cold_samples)

    # Store round trip.
    artifact = BaselineArtifact.build(network)
    with tempfile.TemporaryDirectory() as tmp:
        store = ArtifactStore(Path(tmp))
        save_samples, load_samples = [], []
        for _ in range(repeat):
            start = time.perf_counter()
            store.save(artifact)
            save_samples.append(time.perf_counter() - start)
            start = time.perf_counter()
            loaded = store.load_for(network)
            load_samples.append(time.perf_counter() - start)
        warm_session = Session(build_topology(family, size), baseline=loaded)

    # Warm query batch: one per-class query (the service's unit of
    # batching, and what the cold arm answers too), plus whole-network
    # sweeps reported separately.  A fresh service per round keeps the
    # answer cache from turning the batch into dictionary lookups;
    # coalescing/caching is measured by the HTTP stage, which runs
    # concurrent identical clients.
    warm_latencies: List[float] = []
    sweep_latencies: List[float] = []
    warm_total = 0.0
    for _ in range(repeat):
        service = VerificationService(warm_session)
        round_latencies = []
        round_sweeps = []
        round_start = time.perf_counter()
        for equivalence_class in warm_session.classes:
            start = time.perf_counter()
            service.verify(prefix=str(equivalence_class.prefix))
            round_latencies.append(time.perf_counter() - start)
        for _ in range(SWEEP_QUERIES):
            start = time.perf_counter()
            service.verify()
            round_sweeps.append(time.perf_counter() - start)
        round_total = time.perf_counter() - round_start
        if not warm_latencies or round_total < warm_total:
            warm_latencies, sweep_latencies = round_latencies, round_sweeps
            warm_total = round_total

    # HTTP round trip with concurrent clients (cache + coalescing live).
    service = VerificationService(warm_session)
    server = create_server(service, port=0)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    host, port = server.server_address[:2]
    url = f"http://{host}:{port}/verify"
    http_latencies: List[float] = []
    lock = threading.Lock()

    def one_query(prefix: Optional[str]) -> None:
        payload = {} if prefix is None else {"prefix": prefix}
        start = time.perf_counter()
        answer = _post(url, payload)
        elapsed = time.perf_counter() - start
        assert answer.get("ok") is True
        with lock:
            http_latencies.append(elapsed)

    prefixes = [str(ec.prefix) for ec in warm_session.classes]
    queries = (prefixes + [None] * SWEEP_QUERIES) * HTTP_CLIENTS
    http_start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=HTTP_CLIENTS) as pool:
        list(pool.map(one_query, queries))
    http_total = time.perf_counter() - http_start
    server.shutdown()
    server.server_close()

    ordered = sorted(warm_latencies)
    sweeps = sorted(sweep_latencies)
    http_ordered = sorted(http_latencies)
    warm_p95 = percentile(ordered, 0.95)
    return {
        "classes": len(warm_session.classes),
        "cold_rebuild_seconds": cold_seconds,
        "store_save_seconds": min(save_samples),
        "store_load_seconds": min(load_samples),
        "warm_batch_seconds": warm_total,
        "warm_p50_ms": 1e3 * percentile(ordered, 0.50),
        "warm_p95_ms": 1e3 * warm_p95,
        "sweep_p50_ms": 1e3 * percentile(sweeps, 0.50),
        "sweep_p95_ms": 1e3 * percentile(sweeps, 0.95),
        "http_total_seconds": http_total,
        "http_p50_ms": 1e3 * percentile(http_ordered, 0.50),
        "http_p95_ms": 1e3 * percentile(http_ordered, 0.95),
        "warm_vs_cold_speedup": (cold_seconds / warm_p95) if warm_p95 > 0 else None,
    }


def run_benchmark(quick: bool, repeat: int):
    workloads = QUICK_WORKLOADS if quick else FULL_WORKLOADS
    families: Dict[str, Dict[str, object]] = {}
    stages = {
        "store_save": 0.0,
        "store_load": 0.0,
        "cold_rebuild": 0.0,
        "warm_verify": 0.0,
        "http_roundtrip": 0.0,
    }
    for family, size in workloads:
        result = bench_family(family, size, repeat)
        families[f"{family}-{size}"] = result
        stages["store_save"] += result["store_save_seconds"]
        stages["store_load"] += result["store_load_seconds"]
        stages["cold_rebuild"] += result["cold_rebuild_seconds"]
        stages["warm_verify"] += result["warm_batch_seconds"]
        stages["http_roundtrip"] += result["http_total_seconds"]
    speedups = [
        result["warm_vs_cold_speedup"]
        for result in families.values()
        if result["warm_vs_cold_speedup"]
    ]
    extras = {
        # min across families: the gate holds everywhere, not on average.
        "warm_vs_cold_speedup": min(speedups) if speedups else None,
    }
    return stages, families, extras


def compare_to_baseline(
    stages: Dict[str, float], baseline: Dict, max_regression: float, mode: str
) -> List[str]:
    """Regressions vs the committed baseline (same contract as
    ``bench_hotpaths``: flat or mode-keyed ``stages`` section)."""
    reference: Optional[Dict] = baseline.get("stages")
    if isinstance(reference, dict) and mode in reference:
        reference = reference[mode]
    if not reference:
        return [f"baseline file has no 'stages' section for {mode!r}"]
    problems = []
    for name, ref_seconds in reference.items():
        now = stages.get(name)
        if now is None or not isinstance(ref_seconds, (int, float)) or ref_seconds <= 0:
            continue
        if now <= ref_seconds * (1.0 + max_regression) + ABSOLUTE_SLACK_SECONDS:
            continue
        problems.append(
            f"stage {name}: {now:.3f}s vs baseline {ref_seconds:.3f}s "
            f"({now / ref_seconds:.2f}x, limit {1.0 + max_regression:.2f}x "
            f"+ {ABSOLUTE_SLACK_SECONDS:.2f}s slack)"
        )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true", help="small CI workloads")
    parser.add_argument(
        "--repeat", type=int, default=3, help="repeats per stage (min is kept)"
    )
    parser.add_argument("--out", default=None, help="write the JSON report here")
    parser.add_argument(
        "--baseline", default=None, help="compare against this BENCH_*.json file"
    )
    parser.add_argument(
        "--max-regression",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per stage vs the baseline (default 0.25)",
    )
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=5.0,
        help="required warm-p95 vs cold-rebuild speedup on every family "
        "(default 5; 0 disables the gate)",
    )
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")

    mode = "quick" if args.quick else "full"
    print(f"serve benchmark ({mode}, repeat={args.repeat})")
    stages, families, extras = run_benchmark(args.quick, args.repeat)
    for name in sorted(stages):
        print(f"  {name:16s} {stages[name]:8.3f}s")
    for name, result in families.items():
        print(
            f"  {name}: cold {result['cold_rebuild_seconds'] * 1e3:.1f}ms/query, "
            f"warm p50 {result['warm_p50_ms']:.2f}ms p95 {result['warm_p95_ms']:.2f}ms, "
            f"http p95 {result['http_p95_ms']:.2f}ms "
            f"-> {result['warm_vs_cold_speedup']:.1f}x"
        )

    status = 0
    speedup = extras["warm_vs_cold_speedup"]
    if args.min_speedup > 0:
        if speedup is None or speedup < args.min_speedup:
            status = 1
            print(
                f"GATE FAILED: warm p95 is only {speedup or 0:.1f}x faster than a "
                f"cold per-query rebuild (need >= {args.min_speedup:.1f}x)",
                file=sys.stderr,
            )
        else:
            print(
                f"  warm-baseline gate: {speedup:.1f}x >= "
                f"{args.min_speedup:.1f}x required"
            )

    if args.baseline:
        with open(args.baseline, "r", encoding="utf-8") as handle:
            baseline = json.load(handle)
        problems = compare_to_baseline(stages, baseline, args.max_regression, mode)
        if problems:
            status = 1
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
        else:
            print(f"  no stage regressed >{args.max_regression:.0%} vs {args.baseline}")

    if args.out:
        report = {
            "benchmark": "serve",
            "mode": mode,
            "repeat": args.repeat,
            "stages": stages,
            "families": families,
            **extras,
        }
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"  report written to {args.out}")

    return status


if __name__ == "__main__":
    sys.exit(main())
