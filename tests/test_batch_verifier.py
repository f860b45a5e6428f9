"""Unit tests for the batch property-verification engine (repro.analysis.batch)."""

from __future__ import annotations

import json

import pytest

from repro.analysis import (
    BatchVerifier,
    PropertySuite,
    VerificationReport,
    VerificationTimeout,
    get_property,
    register_property,
    registered_properties,
    verify_network,
)
from repro.analysis.properties import PropertySpec
from repro.netgen import fattree_network, full_mesh_network, ring_network
from repro.pipeline import ClassFanOut, EncodedNetwork, PipelineError
from repro.pipeline.cli import main as pipeline_main

EXPECTED_CATALOGUE = [
    "reachability",
    "all-paths-reach",
    "black-hole-freedom",
    "routing-loop-freedom",
    "bounded-path-length",
    "waypointing",
    "multipath-consistency",
]


# ----------------------------------------------------------------------
# The property registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_catalogue_contains_the_paper_properties(self):
        assert registered_properties() == EXPECTED_CATALOGUE

    def test_get_property_unknown_name(self):
        with pytest.raises(ValueError, match="unknown property"):
            get_property("no-such-property")

    def test_register_rejects_bad_quantifier(self):
        spec = PropertySpec(
            name="bogus", description="", evaluate=lambda ctx, n: None, lift="most"
        )
        with pytest.raises(ValueError, match="quantifier"):
            register_property(spec)

    def test_specs_have_descriptions_and_quantifiers(self):
        for name in registered_properties():
            spec = get_property(name)
            assert spec.description
            assert spec.lift in ("all", "any")
        assert get_property("reachability").lift == "any"
        assert get_property("routing-loop-freedom").lift == "all"


# ----------------------------------------------------------------------
# Suite selection
# ----------------------------------------------------------------------
class TestPropertySuite:
    def test_default_covers_catalogue(self):
        assert list(PropertySuite.default().names) == EXPECTED_CATALOGUE

    def test_from_names_preserves_order(self):
        suite = PropertySuite.from_names(["waypointing", "reachability"])
        assert list(suite.names) == ["waypointing", "reachability"]

    def test_unknown_name_rejected_eagerly(self):
        with pytest.raises(ValueError, match="unknown property"):
            PropertySuite.from_names(["reachability", "nope"])

    def test_empty_selection_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            PropertySuite.from_names([])

    def test_options_roundtrip(self):
        suite = PropertySuite.from_names(
            ["reachability"], path_bound=7, waypoints=("a", "b")
        )
        assert PropertySuite.from_options(suite.to_options()) == suite


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def mesh_report():
    return verify_network(full_mesh_network(5))


class TestVerificationReport:
    def test_json_roundtrip(self, mesh_report):
        restored = VerificationReport.from_json(mesh_report.to_json())
        assert restored.canonical_records() == mesh_report.canonical_records()
        assert restored.network_name == mesh_report.network_name
        assert restored.verdicts_agree()

    def test_aggregate_block(self, mesh_report):
        data = mesh_report.to_dict()
        assert data["aggregate"]["verdicts_agree"] is True
        totals = data["aggregate"]["property_totals"]
        assert set(totals) == set(EXPECTED_CATALOGUE)
        nodes = 5
        assert totals["reachability"]["checked"] == nodes * mesh_report.num_classes
        assert totals["reachability"]["mismatched"] == 0

    def test_speedup_is_computed(self, mesh_report):
        assert mesh_report.speedup is not None
        assert mesh_report.speedup > 0
        assert mesh_report.concrete_seconds > 0
        assert mesh_report.abstract_seconds > 0

    def test_per_class_records_carry_sizes(self, mesh_report):
        for record in mesh_report.records:
            assert record.concrete_nodes == 5
            # a full mesh compresses to destination + everyone else
            assert record.abstract_nodes == 2
            assert not record.timed_out

    def test_verify_network_selects_properties(self):
        report = verify_network(full_mesh_network(4), properties=["reachability"])
        assert report.properties == ["reachability"]
        assert all(len(r.verdicts) == 1 for r in report.records)


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_rejects_unknown_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            BatchVerifier(full_mesh_network(4), executor="gpu")

    def test_limit_restricts_classes(self):
        report = BatchVerifier(
            ring_network(6), executor="serial", limit=2
        ).run()
        assert report.num_classes == 2
        assert len(report.records) == 2

    def test_auto_probe_then_fork_matches_serial_and_process(self, always_fork):
        """Fig. 11's policy (case splitting) under the default executor,
        forced to fork after its probe: same verdicts, class for class."""
        artifact = EncodedNetwork.build(fattree_network(4, policy="prefer_bottom"))
        serial = BatchVerifier(artifact=artifact, executor="serial").run()
        pooled = BatchVerifier(artifact=artifact, executor="process", workers=2).run()
        auto = BatchVerifier(artifact=artifact, workers=2).run()
        assert auto.executor == "auto" and auto.workers == 2
        assert (
            auto.canonical_records()
            == serial.canonical_records()
            == pooled.canonical_records()
        )
        assert auto.summary_lines()[1].startswith("executor: auto -> pool after 2 of 8 classes")

    def test_shared_artifact_between_arms(self):
        artifact = EncodedNetwork.build(ring_network(6))
        serial = BatchVerifier(artifact=artifact, executor="serial").run()
        pooled = BatchVerifier(artifact=artifact, executor="process", workers=2).run()
        assert serial.canonical_records() == pooled.canonical_records()
        assert serial.encode_seconds == pooled.encode_seconds


# ----------------------------------------------------------------------
# Timeouts: raised and reported, never swallowed
# ----------------------------------------------------------------------
class TestVerdictLifting:
    def test_each_node_is_mapped_through_the_abstraction_once(self, monkeypatch):
        """``copies_of(f(node))`` per node (plus per waypoint), not per
        (property, node): 7 properties used to cost 7 times the calls."""
        from repro.abstraction.mapping import NetworkAbstraction

        network = fattree_network(4)
        calls = []
        copies_of = NetworkAbstraction.copies_of
        monkeypatch.setattr(
            NetworkAbstraction,
            "copies_of",
            lambda self, node: calls.append(node) or copies_of(self, node),
        )
        report = BatchVerifier(network, executor="serial", limit=1).run()
        (record,) = report.records
        assert len(report.properties) == 7 and report.verdicts_agree()
        assert len(calls) == record.concrete_nodes + len(record.origins)


class TestTimeout:
    def test_zero_budget_raises_with_partial_report(self):
        verifier = BatchVerifier(
            full_mesh_network(4), executor="serial", timeout_seconds=0
        )
        with pytest.raises(VerificationTimeout) as excinfo:
            verifier.run()
        partial = excinfo.value.partial
        assert isinstance(partial, VerificationReport)
        assert partial.timed_out
        assert all(record.timed_out for record in partial.records)

    def test_report_mode_flags_instead_of_raising(self):
        verifier = BatchVerifier(
            full_mesh_network(4), executor="serial", timeout_seconds=0
        )
        report = verifier.run(raise_on_timeout=False)
        assert report.timed_out
        assert json.loads(report.to_json())["timed_out"] is True
        assert any("TIMED OUT" in line for line in report.summary_lines())

    def test_no_budget_means_no_timeout(self, mesh_report):
        assert not mesh_report.timed_out


class TestTruncationFlagging:
    def test_bounded_enumerator_raises_at_its_bound(self):
        """``all_paths`` is the explicitly bounded enumerator: past its
        bound it raises, naming source and bound, instead of returning a
        shortened list (no verdict is derived from it any more)."""
        from repro.analysis import ForwardingTable
        from repro.analysis.dataplane import PathLimitExceeded
        from repro.config import Prefix

        table = ForwardingTable(
            destination=Prefix.parse("10.0.1.0/24"),
            origins={"d"},
            next_hops={"s": {"a", "b"}, "a": {"d"}, "b": {"d"}, "d": set()},
        )
        assert table.all_paths("s") == [["s", "a", "d"], ["s", "b", "d"]]
        assert table.all_paths("s", max_paths=2) == table.all_paths("s")
        with pytest.raises(PathLimitExceeded, match=r"more than 1 .* 's'"):
            table.all_paths("s", max_paths=1)
        assert not hasattr(table, "truncated_sources")


# ----------------------------------------------------------------------
# User-registered properties across executors
# ----------------------------------------------------------------------
@pytest.fixture()
def custom_property_module():
    """The registering module's name; the registry is restored afterwards
    so the catalogue assertions elsewhere stay exact."""
    import sys

    from repro.analysis.properties import PROPERTY_REGISTRY

    yield "custom_property_testmod"
    PROPERTY_REGISTRY.pop("has-any-next-hop", None)
    sys.modules.pop("custom_property_testmod", None)


class TestUserRegisteredProperties:
    @pytest.mark.parametrize("executor", ["serial", "process", "auto"])
    def test_custom_property_runs_on_every_executor(
        self, custom_property_module, executor, request
    ):
        """register_modules ships the registration to pool workers, so a
        user-registered property works under every executor, not just
        serial -- ``auto`` included, whose pool forks mid-run."""
        if executor == "auto":
            request.getfixturevalue("always_fork")
        suite = PropertySuite.from_names(
            ["reachability", "has-any-next-hop"],
            register_modules=(custom_property_module,),
        )
        report = BatchVerifier(
            full_mesh_network(4), suite=suite, executor=executor, workers=2
        ).run()
        assert report.verdicts_agree()
        names = {v.property for r in report.records for v in r.verdicts}
        assert names == {"reachability", "has-any-next-hop"}


# ----------------------------------------------------------------------
# The generic fan-out underneath
# ----------------------------------------------------------------------
def _count_origins_task(bonsai, equivalence_class, options):
    """A trivial per-class task used to exercise custom task dispatch."""
    return (str(equivalence_class.prefix), len(equivalence_class.origins))


class TestClassFanOut:
    def test_custom_task_by_dotted_path(self):
        fanout = ClassFanOut(
            full_mesh_network(4),
            task="test_batch_verifier:_count_origins_task",
            executor="serial",
        )
        results = fanout.execute()
        assert len(results) == 4
        assert all(count == 1 for _, count in results)

    def test_unknown_task_name_rejected(self):
        with pytest.raises(ValueError, match="unknown task"):
            ClassFanOut(full_mesh_network(4), task="no-such-task")

    def test_broken_task_surfaces_class_name(self):
        fanout = ClassFanOut(
            full_mesh_network(4),
            task="test_batch_verifier:_task_that_does_not_exist",
            executor="serial",
        )
        with pytest.raises(PipelineError):
            fanout.execute()


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestVerifyCli:
    def test_verify_family_writes_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = pipeline_main(
            [
                "verify",
                "--family",
                "mesh",
                "--size",
                "5",
                "--executor",
                "serial",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert data["aggregate"]["verdicts_agree"] is True
        assert "batch verification: mesh(5)" in capsys.readouterr().out

    def test_verify_all_families_output_is_per_family_map(self, tmp_path, capsys):
        out = tmp_path / "all.json"
        code = pipeline_main(
            [
                "verify",
                "--family",
                "all",
                "--executor",
                "serial",
                "--limit",
                "1",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        data = json.loads(out.read_text())
        assert set(data) == {"datacenter", "fattree", "mesh", "ring", "wan"}
        for report_dict in data.values():
            restored = VerificationReport.from_dict(report_dict)
            assert restored.verdicts_agree()
            assert restored.num_classes == 1
        capsys.readouterr()

    def test_verify_defaults_size_per_family(self, capsys):
        assert pipeline_main(["verify", "--family", "ring", "--executor", "serial"]) == 0
        assert "ring(8)" in capsys.readouterr().out

    def test_verify_with_property_selection(self, tmp_path):
        out = tmp_path / "report.json"
        code = pipeline_main(
            [
                "verify",
                "--topo",
                "mesh",
                "--size",
                "4",
                "--executor",
                "serial",
                "--properties",
                "reachability,routing-loop-freedom",
                "--output",
                str(out),
            ]
        )
        assert code == 0
        assert json.loads(out.read_text())["properties"] == [
            "reachability",
            "routing-loop-freedom",
        ]

    def test_verify_unknown_property_is_usage_error(self):
        code = pipeline_main(
            ["verify", "--family", "mesh", "--properties", "bogus"]
        )
        assert code == 2

    def test_verify_timeout_exit_code(self, capsys):
        code = pipeline_main(
            [
                "verify",
                "--family",
                "mesh",
                "--size",
                "4",
                "--executor",
                "serial",
                "--timeout",
                "0",
            ]
        )
        assert code == 1
        assert "TIMED OUT" in capsys.readouterr().out

    def test_exhausted_budget_skips_remaining_families(self, capsys):
        """With --family all and a zero budget, no family pays the network
        build / BDD encoding cost: every report is a timed-out stub."""
        code = pipeline_main(
            ["verify", "--family", "all", "--executor", "serial", "--timeout", "0"]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert out.count("TIMED OUT") >= 5
        assert "equivalence classes: 0" in out

    def test_topo_and_family_conflict(self, capsys):
        assert pipeline_main(["verify", "--topo", "mesh", "--family", "ring"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_family_required(self):
        assert pipeline_main(["verify"]) == 2

    def test_family_all_rejects_size(self, capsys):
        assert pipeline_main(["verify", "--family", "all", "--size", "4"]) == 2
        assert "--size cannot be combined with --family all" in capsys.readouterr().err

    def test_compress_mode_defaults_size(self, capsys):
        assert pipeline_main(["compress", "--topo", "mesh", "--executor", "serial"]) == 0
        assert "mesh(6)" in capsys.readouterr().out
