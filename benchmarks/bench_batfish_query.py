"""§8's Batfish experiment: one reachability query, with and without Bonsai.

The paper runs a single device-to-device reachability query in Batfish on
the operational datacenter: with Bonsai the query takes 77 seconds, without
it Batfish runs out of memory after more than an hour.  Here the query is a
one-class :class:`~repro.analysis.batch.BatchVerifier` run of the
reachability suite against the synthetic datacenter substitute: the
destination is the network's first class, the answer is whether the source
is among the failing nodes on each side, and the times are the report's
concrete and abstract (compression included) seconds.
"""


from conftest import record_row
from repro import datacenter_network
from repro.abstraction import routable_equivalence_classes
from repro.analysis import BatchVerifier, PropertySuite

FIGURE = "Section 8: single reachability query (Batfish-style)"


def test_single_query_with_and_without_bonsai(benchmark):
    network = datacenter_network()
    destination = routable_equivalence_classes(network)[0].prefix
    source = "core0"

    def run():
        return BatchVerifier(
            network,
            suite=PropertySuite.from_names(["reachability"]),
            executor="serial",
            limit=1,
        ).run()

    report = benchmark.pedantic(run, rounds=1, iterations=1)
    (record,) = report.records
    assert record.prefix == str(destination)
    (verdict,) = record.verdicts
    plain = source not in verdict.concrete_failing
    compressed = source not in verdict.abstract_failing
    record_row(
        FIGURE,
        f"datacenter ({network.graph.num_nodes()} nodes), {source} -> {destination}: "
        f"concrete {report.concrete_seconds:6.3f}s, "
        f"with Bonsai {report.abstract_seconds:6.3f}s "
        f"(encode {report.encode_seconds:6.3f}s; answers agree: {plain == compressed})",
    )
    benchmark.extra_info.update(
        {
            "concrete_s": report.concrete_seconds,
            "with_bonsai_s": report.abstract_seconds,
            "encode_s": report.encode_seconds,
        }
    )
    assert plain == compressed is True
