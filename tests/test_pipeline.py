"""Tests for the parallel compression pipeline (repro.pipeline)."""

from __future__ import annotations

import pickle

import pytest

from repro.abstraction.bonsai import Bonsai
from repro.pipeline import (
    CompressionPipeline,
    EncodedNetwork,
    PipelineError,
    PipelineReport,
)
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.report import EcRecord


def run_pipeline(network, **kwargs):
    return CompressionPipeline(network, **kwargs).run()


# ----------------------------------------------------------------------
# Serial / parallel parity
# ----------------------------------------------------------------------
class TestParity:
    """Parallel output must be bit-identical to the serial fallback."""

    @pytest.mark.parametrize("fixture", ["small_ring", "small_mesh", "small_fattree"])
    @pytest.mark.parametrize("executor", ["process", "auto"])
    def test_parallel_matches_serial(self, request, fixture, executor):
        if executor == "auto":
            request.getfixturevalue("always_fork")  # probe two classes, then fork
        network = request.getfixturevalue(fixture)
        artifact = EncodedNetwork.build(network)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        parallel = CompressionPipeline(
            artifact=artifact, executor=executor, workers=2
        ).run()
        assert serial.report.canonical_records() == parallel.report.canonical_records()
        # Results stream back out of order but are re-sorted by class index.
        assert [str(r.equivalence_class.prefix) for r in parallel.results] == [
            str(r.equivalence_class.prefix) for r in serial.results
        ]

    def test_parity_with_prefer_bottom_policy(self, small_fattree_prefer_bottom):
        """Case splitting (multiple local-prefs) survives the fan-out."""
        artifact = EncodedNetwork.build(small_fattree_prefer_bottom)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        parallel = CompressionPipeline(
            artifact=artifact, executor="process", workers=2
        ).run()
        assert serial.report.canonical_records() == parallel.report.canonical_records()
        # The prefer-bottom policy yields a larger abstraction than plain
        # shortest path (Figure 11's point); make sure we exercised it.
        assert all(record.abstract_nodes > 6 for record in serial.report.records)

    def test_compress_all_delegates_and_matches(self, small_ring):
        serial_results = Bonsai(small_ring).compress_all()
        parallel_bonsai = Bonsai(small_ring)
        parallel_results = parallel_bonsai.compress_all(workers=2)
        assert parallel_bonsai.last_report is not None
        assert parallel_bonsai.last_report.executor == "process"
        assert [EcRecord.from_result(r).canonical() for r in serial_results] == [
            EcRecord.from_result(r).canonical() for r in parallel_results
        ]

    def test_process_results_get_their_concrete_srp_back(self, small_fattree):
        """Workers return results without the SRP (it would carry the
        network through the result pipe); the coordinator rebuilds it on
        its own network, and it solves like the serial run's."""
        from repro.pipeline import core
        from repro.srp.solver import solve

        artifact = EncodedNetwork.build(small_fattree)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        pooled = CompressionPipeline(
            artifact=artifact, executor="process", workers=2
        ).run()
        for ours, theirs in zip(pooled.results, serial.results):
            assert ours.concrete_srp.transfer.network is artifact.network
            assert ours.concrete_srp.destination == theirs.concrete_srp.destination
            assert solve(ours.concrete_srp).labeling == solve(theirs.concrete_srp).labeling
            assert ours.node_compression_ratio() == theirs.node_compression_ratio()
        # What crosses the pipe: the worker-side task drops the SRP when asked.
        core._init_worker(artifact.to_bytes())
        shipped = core.compress_class_task(
            core._worker_bonsai, artifact.classes[0], {"detach_srp": True}
        )
        assert shipped.concrete_srp is None
        assert len(pickle.dumps(shipped)) < len(artifact.to_bytes()) // 4

    def test_limit_and_build_networks(self, small_fattree):
        run = run_pipeline(
            small_fattree, executor="process", workers=2, limit=3, build_networks=True
        )
        assert len(run.results) == 3
        for result in run.results:
            assert result.abstract_network is not None
            assert result.abstract_network.graph.num_nodes() == result.abstract_nodes


# ----------------------------------------------------------------------
# The "auto" executor: probe, then fork
# ----------------------------------------------------------------------
class TestAutoExecutor:
    def test_auto_is_the_default_with_one_worker_per_cpu(self, small_ring):
        import os

        pipeline = CompressionPipeline(small_ring)
        assert pipeline.executor == "auto"
        assert pipeline.workers == (os.cpu_count() or 1)
        bonsai = Bonsai(small_ring)
        assert bonsai.compress_all() and bonsai.last_report.executor == "auto"

    def test_cheap_classes_never_fork(self, small_fattree, monkeypatch):
        """Millisecond classes stay below the break-even: the whole run
        is the probe, and no pool is ever constructed."""
        import concurrent.futures

        from repro.obs import metrics

        def no_pool(*args, **kwargs):
            raise AssertionError("a process pool was constructed")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        artifact = EncodedNetwork.build(small_fattree)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        before = metrics.snapshot_counters()
        pipeline = CompressionPipeline(artifact=artifact)
        auto = pipeline.run()
        delta = metrics.counters_delta(before)
        assert auto.report.canonical_records() == serial.report.canonical_records()
        assert auto.report.executor == "auto"  # the requested name
        assert delta.get("pipeline.executor.serial") == 1
        assert not delta.get("pipeline.executor.pool")
        assert pipeline.last_selection.startswith(f"serial ({len(artifact.classes)} classes")
        assert any(
            line.startswith("executor: auto -> serial (") and "pool break-even" in line
            for line in auto.report.summary_lines()
        )
        assert "executor_selected" not in auto.report.to_json()

    @pytest.mark.parametrize("fixture", ["small_fattree", "small_fattree_prefer_bottom"])
    def test_forced_escalation_matches_serial_and_process(
        self, request, fixture, always_fork
    ):
        artifact = EncodedNetwork.build(request.getfixturevalue(fixture))
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        pooled = CompressionPipeline(artifact=artifact, executor="process", workers=2).run()
        pipeline = CompressionPipeline(artifact=artifact, workers=2)
        auto = pipeline.run()
        assert (
            auto.report.canonical_records()
            == serial.report.canonical_records()
            == pooled.report.canonical_records()
        )
        assert pipeline.last_selection.startswith(
            f"pool after 2 of {len(artifact.classes)} classes"
        )
        # The probed prefix is one batch, the pooled suffix the rest.
        assert [index for index, _ in pipeline.last_batches[0]] == [0, 1]
        assert sorted(i for batch in pipeline.last_batches for i, _ in batch) == list(
            range(len(artifact.classes))
        )
        # Probed results kept their SRP, pooled ones got it back.
        for ours, theirs in zip(auto.results, serial.results):
            assert ours.concrete_srp.destination == theirs.concrete_srp.destination

    def test_forced_escalation_streams_every_class_once(self, small_fattree, always_fork):
        from repro.pipeline.core import ClassFanOut

        seen = []
        fanout = ClassFanOut(small_fattree, workers=2, limit=6)
        assert fanout.execute(on_result=lambda i, r, s: seen.append(i)) is None
        assert seen[:2] == [0, 1]  # the probe, in class order
        assert sorted(seen) == list(range(6))
        assert len(fanout.last_unit_seconds) == 6
        streamed = CompressionPipeline(small_fattree, workers=2, limit=6).run_streaming(
            spill=False
        )
        serial = CompressionPipeline(small_fattree, executor="serial", limit=6).run()
        assert streamed.canonical_records() == serial.report.canonical_records()

    def test_forced_escalation_worker_failure_is_a_pipeline_error(
        self, small_fattree, always_fork
    ):
        from repro.pipeline.core import ClassFanOut

        classes = EncodedNetwork.build(small_fattree).classes
        fanout = ClassFanOut(
            small_fattree,
            task="conftest:raising_class_task",
            task_options={"fail": [str(classes[4].prefix)]},
            workers=2,
        )
        with pytest.raises(PipelineError, match="failed in a process worker") as excinfo:
            fanout.execute()
        assert str(classes[4].prefix) in str(excinfo.value)


# ----------------------------------------------------------------------
# Batching
# ----------------------------------------------------------------------
class TestBatching:
    def test_default_batching_covers_all_classes(self, small_fattree):
        pipeline = CompressionPipeline(small_fattree, workers=2)
        classes = EncodedNetwork.build(small_fattree).classes
        bundles = pipeline.plan(list(enumerate(classes)))
        flattened = [ec for bundle in bundles for _, _, ec, _ in bundle]
        assert flattened == list(classes)

    @pytest.mark.parametrize("method", ["run", "run_streaming"])
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_report_batching_comes_from_the_plan(self, small_fattree, executor, method):
        """The report's ``batch_size`` / ``num_batches`` describe the one
        planner's bundles, and the requested executor name round-trips."""
        artifact = EncodedNetwork.build(small_fattree)
        pipeline = CompressionPipeline(artifact=artifact, executor=executor, workers=1)
        outcome = getattr(pipeline, method)()
        report = outcome if method == "run_streaming" else outcome.report
        bundles = pipeline.plan(list(enumerate(artifact.classes)))
        assert report.executor == executor
        assert report.num_batches == len(bundles) == 4
        assert report.batch_size == len(bundles[0]) == -(-len(artifact.classes) // 4)
        restored = PipelineReport.from_json(report.to_json())
        assert (restored.executor, restored.batch_size, restored.num_batches) == (
            executor, report.batch_size, report.num_batches,
        )

    def test_invalid_parameters_rejected(self, small_ring):
        with pytest.raises(ValueError):
            CompressionPipeline(small_ring, executor="fleet")
        with pytest.raises(ValueError):
            CompressionPipeline(small_ring, executor="thread")
        with pytest.raises(ValueError):
            CompressionPipeline(small_ring, workers=0)
        with pytest.raises(ValueError):
            CompressionPipeline(small_ring, limit=-1)
        with pytest.raises(ValueError):
            CompressionPipeline()


# ----------------------------------------------------------------------
# Crash handling
# ----------------------------------------------------------------------
class TestCrashHandling:
    def test_worker_crash_surfaces_clean_error(self, small_ring, monkeypatch):
        def boom(self, equivalence_class, build_network=True):
            raise RuntimeError("synthetic worker crash")

        monkeypatch.setattr(Bonsai, "compress", boom)  # the forked workers inherit it
        pipeline = CompressionPipeline(small_ring, executor="process", workers=2)
        with pytest.raises(PipelineError) as excinfo:
            pipeline.run()
        message = str(excinfo.value)
        assert "10.0." in message  # names the equivalence class
        assert "synthetic worker crash" in message

    @pytest.mark.parametrize(
        "argv",
        [
            ["compress", "--topo", "ring", "--size", "5"],
            ["failures", "--topo", "ring", "--size", "5", "--memory-budget", "4096"],
            ["verify", "--topo", "ring", "--size", "5"],
            ["delta", "--topo", "ring", "--size", "5"],
        ],
        ids=["compress", "spilled-failures", "verify", "delta"],
    )
    def test_killed_worker_is_a_refusal_with_a_reason(
        self, argv, monkeypatch, tmp_path, capsys
    ):
        """A worker that dies outright breaks the pool: the run ends in
        exit 1 with a reason naming the task and the network, a
        ``pipeline.pool_failures`` count and a ``pool.failed`` event, and
        writes no report."""
        from repro.obs import events, metrics
        from repro.pipeline import core

        monkeypatch.setitem(core.CLASS_TASKS, argv[0], "conftest:dying_class_task")
        out = tmp_path / "report.json"
        seen = []
        events.subscribe(seen.append)
        before = metrics.snapshot_counters()
        try:
            code = pipeline_main(
                argv + ["--executor", "process", "--workers", "2", "--output", str(out)]
            )
        finally:
            events.unsubscribe(seen.append)
        err = capsys.readouterr().err
        assert code == 1
        assert not out.exists()
        assert "'conftest:dying_class_task' on ring" in err
        assert "a worker process died" in err
        assert metrics.counters_delta(before).get("pipeline.pool_failures") == 1
        failed = [event for event in seen if event["type"] == "pool.failed"]
        assert [event["task"] for event in failed] == ["conftest:dying_class_task"]

    def test_serial_crash_surfaces_clean_error(self, small_ring, monkeypatch):
        def boom(self, equivalence_class, build_network=True):
            raise RuntimeError("synthetic serial crash")

        monkeypatch.setattr(Bonsai, "compress", boom)
        with pytest.raises(PipelineError, match="synthetic serial crash"):
            CompressionPipeline(small_ring, executor="serial").run()


# ----------------------------------------------------------------------
# The encoded artifact
# ----------------------------------------------------------------------
class TestEncodedNetwork:
    def test_round_trip_preserves_classes_and_encoder(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        clone = EncodedNetwork.from_bytes(artifact.to_bytes())
        assert [str(ec.prefix) for ec in clone.classes] == [
            str(ec.prefix) for ec in artifact.classes
        ]
        # The clone owns a *different* manager with the same node store.
        assert clone.encoder is not artifact.encoder
        assert clone.encoder.manager is not artifact.encoder.manager
        assert clone.encoder.manager.num_nodes() == artifact.encoder.manager.num_nodes()

    def test_from_bytes_rejects_other_payloads(self):
        with pytest.raises(TypeError):
            EncodedNetwork.from_bytes(pickle.dumps({"not": "an artifact"}))

    def test_pipeline_managers_are_bounded_by_default(self, small_ring):
        artifact = EncodedNetwork.build(small_ring)
        assert artifact.encoder.manager.cache_limit is not None
        clone = EncodedNetwork.from_bytes(artifact.to_bytes())
        assert clone.encoder.manager.cache_limit == artifact.encoder.manager.cache_limit

    def test_syntactic_mode_has_no_encoder(self, small_ring):
        artifact = EncodedNetwork.build(small_ring, use_bdds=False)
        assert artifact.encoder is None
        run = CompressionPipeline(artifact=artifact, executor="serial").run()
        assert run.report.num_classes == len(artifact.classes)


# ----------------------------------------------------------------------
# Reports
# ----------------------------------------------------------------------
class TestPipelineReport:
    def test_json_round_trip(self, small_mesh):
        report = run_pipeline(small_mesh, executor="serial").report
        clone = PipelineReport.from_json(report.to_json())
        assert clone == report
        assert clone.canonical_records() == report.canonical_records()
        assert clone.mean_abstract_nodes == report.mean_abstract_nodes

    def test_speedup_is_recorded(self, small_ring):
        report = run_pipeline(small_ring, executor="serial").report
        assert report.speedup is None
        report.serial_seconds = report.total_seconds * 2
        assert report.speedup == pytest.approx(2.0)
        clone = PipelineReport.from_json(report.to_json())
        assert clone.speedup == pytest.approx(2.0)

    def test_records_match_table1_style_summary(self, small_mesh):
        """The pipeline's aggregates agree with Bonsai.summarize."""
        bonsai = Bonsai(small_mesh)
        results = bonsai.compress_all()
        summary = bonsai.summarize(results)
        report = bonsai.last_report
        assert report.mean_abstract_nodes == pytest.approx(summary.mean_abstract_nodes)
        assert report.mean_abstract_edges == pytest.approx(summary.mean_abstract_edges)
        assert report.num_classes == summary.classes_compressed


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestCli:
    def test_cli_serial_run_with_report(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = pipeline_main(
            [
                "compress", "--topo", "ring", "--size", "5",
                "--executor", "serial", "--output", str(out), "--per-class",
            ]
        )
        assert code == 0
        report = PipelineReport.from_json(out.read_text())
        assert report.num_classes == 5
        assert "compression pipeline" in capsys.readouterr().out

    def test_cli_parallel_smoke(self, capsys):
        code = pipeline_main(
            ["compress", "--topo", "fattree", "--size", "4", "--workers", "2"]
        )
        assert code == 0
        assert "speedup" not in capsys.readouterr().out

    def test_cli_rejects_bad_size(self, capsys):
        code = pipeline_main(["compress", "--topo", "fattree", "--size", "3"])
        assert code == 2
        assert "error" in capsys.readouterr().err
