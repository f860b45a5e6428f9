"""Figure 12: all-pairs reachability verification time, with vs without Bonsai.

The paper runs Minesweeper on an all-pairs reachability query for growing
Fattree, Full Mesh and Ring topologies, with a 10-minute timeout, and shows
that verifying the Bonsai-compressed network (including the time to
partition, build BDDs and compress) is orders of magnitude faster and keeps
scaling after the concrete verification times out.

Each row is one :class:`~repro.analysis.batch.BatchVerifier` run of the
reachability suite (``analysis/batch.py``): every node is checked against
every destination class on the concrete network and, lifted back through
the abstraction, on the compressed one.  The printed speedup is
``VerificationReport.speedup``: the concrete check over compression plus
the abstract check, with the once-per-network policy encode printed on its
own and counted on neither side.  Absolute times differ from SMT; the
comparison (abstract < concrete, gap widening with size) is the figure's
point.  Sizes are reduced by default; ``REPRO_BENCH_FULL=1`` enables larger
sweeps.
"""

import pytest

from conftest import full_scale, record_row
from repro import fattree_network, full_mesh_network, ring_network
from repro.analysis import BatchVerifier, PropertySuite

FIGURE = "Figure 12: all-pairs reachability verification time"

#: Per-run timeout (the paper used 600 s; scaled down for the substitute).
TIMEOUT_SECONDS = 120.0


def _sizes():
    if full_scale():
        return {
            "fattree": [4, 6, 8, 10, 12],
            "mesh": [10, 20, 40, 60],
            "ring": [10, 20, 40, 80],
        }
    return {"fattree": [4, 6, 8], "mesh": [10, 20, 30], "ring": [10, 20, 40]}


def _build(family, size):
    if family == "fattree":
        return fattree_network(size)
    if family == "mesh":
        return full_mesh_network(size)
    return ring_network(size)


@pytest.mark.parametrize("family", ["fattree", "mesh", "ring"])
def test_fig12_verification_speedup(benchmark, family):
    sizes = _sizes()[family]
    suite = PropertySuite.from_names(["reachability"])

    def run():
        measurements = []
        for size in sizes:
            network = _build(family, size)
            report = BatchVerifier(
                network, suite=suite, executor="serial", timeout_seconds=TIMEOUT_SECONDS
            ).run(raise_on_timeout=False)
            measurements.append((network.graph.num_nodes(), report))
        return measurements

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)

    for nodes, report in measurements:
        totals = report.property_totals()["reachability"]
        speedup = "n/a" if report.speedup is None else f"{report.speedup:5.2f}x"
        flag = "  TIMED OUT" if report.timed_out else ""
        record_row(
            FIGURE,
            f"{family:>8} n={nodes:<5} checked {totals['checked']:>5}  "
            f"concrete {report.concrete_seconds:7.2f}s  "
            f"with-Bonsai {report.abstract_seconds:7.2f}s  "
            f"encode {report.encode_seconds:6.2f}s  speedup {speedup}{flag}",
        )
        benchmark.extra_info[f"{family}_{nodes}"] = {
            "checked": totals["checked"],
            "concrete_s": round(report.concrete_seconds, 3),
            "abstract_s": round(report.abstract_seconds, 3),
            "encode_s": round(report.encode_seconds, 3),
            "speedup": report.speedup,
            "timed_out": report.timed_out,
        }
        # Soundness: both sides agree node by node, and everything is reachable.
        assert report.verdicts_agree()
        assert totals["concrete_failed"] == totals["abstract_failed"] == 0

    # Shape: at the largest size the compressed verification is faster.
    # Rings are excluded from the assertion: they compress only ~2x, and
    # with the simulation-based check (whose per-class cost is near-linear
    # in network size, unlike Minesweeper's SMT cost) the compression
    # overhead outweighs the 2x saving, so the paper's ring crossover needs
    # a super-linear backend to materialise.  The measured times are still
    # reported above for comparison.
    _, largest = measurements[-1]
    if not largest.timed_out and family != "ring":
        assert largest.speedup > 1
