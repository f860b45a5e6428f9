#!/usr/bin/env python3
"""Batched, parallel compression with the pipeline subsystem.

Destination equivalence classes never interact, so Bonsai can compress
them in parallel: encode the policy BDDs once, ship the encoded artifact
to a pool of workers, and aggregate the per-class results.  This example
shows both the Python API and the equivalent CLI.

Run with::

    PYTHONPATH=src python examples/pipeline_parallel.py
"""

from repro import CompressionPipeline, EncodedNetwork, fattree_network


def main() -> None:
    # 1. Build a configured network: a k=6 fat-tree (45 devices, 18
    #    destination equivalence classes).
    network = fattree_network(k=6)
    print(f"Concrete network: {network.graph.num_nodes()} nodes, "
          f"{network.graph.num_undirected_edges()} edges")

    # 2. Run the one-time phase once: enumerate the equivalence classes and
    #    encode every interface policy as a BDD.  The artifact is pickleable
    #    and is what the pipeline ships to each worker.
    artifact = EncodedNetwork.build(network)
    print(f"Encoded {len(artifact.classes)} equivalence classes "
          f"in {artifact.encode_seconds:.3f}s")

    # 3. Serial baseline: the deterministic fallback executor.
    serial = CompressionPipeline(artifact=artifact, executor="serial").run()
    print(f"Serial:   {serial.report.total_seconds:.3f}s wall clock")

    # 4. Parallel run: batches fan out over a process pool; each worker owns
    #    a private BddManager, so hash-consing stays process-local.
    parallel = CompressionPipeline(
        artifact=artifact, executor="process", workers=4
    ).run()
    print(f"Parallel: {parallel.report.total_seconds:.3f}s wall clock "
          f"({len(parallel.results)} classes over 4 workers)")

    # 5. The outputs are bit-identical: same partitions, same abstract sizes.
    assert serial.report.canonical_records() == parallel.report.canonical_records()
    print("Parallel output is bit-identical to serial.")

    # 6. The aggregated report is JSON-serialisable (this is the format the
    #    CLI writes with --output and CI uploads as an artifact).
    report = parallel.report
    print("Summary:")
    for line in report.summary_lines():
        print(f"  {line}")

    # The CLI equivalent of steps 2-4:
    #   python -m repro.pipeline compress --topo fattree --size 6 --workers 4 \
    #       --output report.json


if __name__ == "__main__":
    main()
