"""Tests for the process pool's planner and parity, and for
streaming/memory-bounded report aggregation."""

from __future__ import annotations

import errno
import io
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.core import ClassFanOut, CompressionPipeline, PipelineError
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import PipelineReport
from repro.pipeline.stream import RecordSpill


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
class TestPlanner:
    """The one pool plan: contiguous class-order bundles of whole classes."""

    def test_enough_classes_give_contiguous_bundles(self, small_fattree):
        classes = EncodedNetwork.build(small_fattree).classes
        indexed = list(enumerate(classes))
        for workers in (1, 2, len(classes) // 2):
            fanout = ClassFanOut(small_fattree, executor="process", workers=workers)
            assert len(indexed) >= 2 * workers
            bundles = fanout.plan(indexed)
            size = -(-len(indexed) // (4 * workers))
            assert [len(bundle) for bundle in bundles[:-1]] == [size] * (len(bundles) - 1)
            assert 0 < len(bundles[-1]) <= size
            assert [unit for bundle in bundles for unit in bundle] == indexed

    def test_scarce_classes_stay_whole_and_match_serial(self, small_fattree):
        """3 classes under 4 workers: 3 whole-class units, one a bundle,
        whose records equal the serial sweep's."""
        from repro.failures import FailureSweep

        classes = EncodedNetwork.build(small_fattree).classes[:3]
        indexed = list(enumerate(classes))
        fanout = ClassFanOut(
            small_fattree, task="failures",
            task_options={"scenarios": [("link", i) for i in range(8)]},
            executor="process", workers=4,
        )
        assert fanout.plan(indexed) == [[unit] for unit in indexed]

        kwargs = dict(k=1, soundness=False, oracle=True, limit=3)
        serial = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = FailureSweep(small_fattree, executor="process", workers=4, **kwargs)
        report = pooled.run()
        assert pooled._fanout.last_batches == [[unit] for unit in indexed]
        assert report.canonical_records() == serial.canonical_records()

    @given(st.integers(0, 16), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_plan_covers_every_class_once_in_order(self, classes, workers):
        """Any class count under any worker count: equal contiguous
        bundles of ``ceil(n / (4 x workers))`` whole classes (the last
        may be short), at most four per worker, none empty."""
        from repro.netgen.families import build_topology

        indexed = [(index, f"class{index}") for index in range(classes)]
        fanout = ClassFanOut(build_topology("ring", 4), executor="process", workers=workers)
        bundles = fanout.plan(indexed)
        assert [unit for bundle in bundles for unit in bundle] == indexed
        assert all(bundles) and len(bundles) <= 4 * workers
        size = -(-classes // (4 * workers))
        assert all(len(bundle) == size for bundle in bundles[:-1])
        if classes and classes <= 4 * workers:
            assert bundles == [[unit] for unit in indexed]

    @pytest.mark.parametrize("task", ["compress", "verify", "failures", "delta", "baseline"])
    def test_every_task_plans_whole_classes(self, small_fattree, task):
        """The plan reads neither the task nor its options: scarce
        classes of any task are one unit each."""
        classes = EncodedNetwork.build(small_fattree).classes[:3]
        indexed = list(enumerate(classes))
        fanout = ClassFanOut(
            small_fattree, task=task,
            task_options={"scenarios": [("link", i) for i in range(8)],
                          "script": ["a", "b", "c", "d"]},
            executor="process", workers=4,
        )
        assert fanout.plan(indexed) == [[unit] for unit in indexed]


# ----------------------------------------------------------------------
# Validation regressions
# ----------------------------------------------------------------------
class TestValidation:
    def test_rejects_nonpositive_workers(self, small_fattree):
        with pytest.raises(ValueError, match="workers"):
            ClassFanOut(small_fattree, workers=0)
        with pytest.raises(ValueError, match="workers"):
            ClassFanOut(small_fattree, workers=-2)

    def test_rejects_empty_task_name(self, small_fattree):
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task="")
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task="   ")
        with pytest.raises(ValueError, match="non-empty"):
            ClassFanOut(small_fattree, task=None)


# ----------------------------------------------------------------------
# Parity: pooled results must be bit-identical to serial ones
# ----------------------------------------------------------------------
class TestPoolParity:
    def test_compress_pool_matches_serial(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        pooled = CompressionPipeline(artifact=artifact, executor="process", workers=2).run()
        assert serial.report.canonical_records() == pooled.report.canonical_records()

    def test_pool_reports_per_class_seconds(self, small_fattree):
        fanout = ClassFanOut(small_fattree, executor="process", workers=2)
        results = fanout.execute()
        assert len(results) == len(fanout.last_classes)
        assert set(fanout.last_unit_seconds) == {
            str(ec.prefix) for ec in fanout.last_classes
        }

    def test_failure_pool_parity(self, small_fattree):
        """Fewer classes than workers: each class runs whole in a worker,
        and the records equal the serial sweep's."""
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=True, limit=2)
        serial = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = FailureSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == pooled.canonical_records()

    def test_delta_pool_parity(self, small_fattree):
        """A pooled class runs its whole step chain in one worker; the
        outcomes equal the serial chained sweep's."""
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        kwargs = dict(script=script, oracle=True, revalidate=True, limit=2)
        serial = DeltaSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = DeltaSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == pooled.canonical_records()

    def test_delta_scarce_classes_stay_whole(self, small_fattree):
        """3 classes under 4 workers: each class is one batch of one unit,
        and its whole chain of steps comes back in script order."""
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        sweep = DeltaSweep(
            small_fattree, script=script, executor="process", workers=4, limit=3
        )
        report = sweep.run()
        classes = EncodedNetwork.build(small_fattree).classes[:3]
        assert sweep._fanout.last_batches == [[unit] for unit in enumerate(classes)]
        assert [len(record.steps) for record in report.records] == [len(script)] * 3

    @pytest.mark.parametrize("pillar", ["failures", "delta"])
    def test_pool_counts_solves_like_serial(self, small_fattree, pillar, counter_delta):
        """A class run whole in a worker solves its baseline once, as the
        serial run does: the merged solve and step counters are equal."""
        from repro.delta import DeltaSweep
        from repro.failures import FailureSweep
        from repro.netgen.changes import generated_change_script

        if pillar == "failures":
            def sweep(**executor):
                return FailureSweep(
                    small_fattree, k=1, soundness=False, oracle=False, limit=2, **executor
                )
        else:
            script = generated_change_script(small_fattree, "fattree")

            def sweep(**executor):
                return DeltaSweep(small_fattree, script=script, limit=2, **executor)

        def counted(**executor):
            with counter_delta("srp.", "delta.class_steps.") as counts:
                sweep(**executor).run()
            return counts

        serial = counted(executor="serial")
        assert serial["srp.scratch_solves"] > 0
        assert counted(executor="process", workers=4) == serial

    def test_worker_crash_surfaces_clean_error(self, small_fattree):
        """A task raising in a pool worker must carry the class and cause."""
        fanout = ClassFanOut(
            small_fattree,
            task="conftest:raising_class_task",
            executor="process",
            workers=2,
        )
        with pytest.raises(PipelineError) as excinfo:
            fanout.execute()
        message = str(excinfo.value)
        assert "10.0." in message
        assert "ValueError" in message

    @given(
        executor=st.sampled_from(["serial", "process", "auto"]),
        workers=st.sampled_from([1, 2, 3]),
        limit=st.sampled_from([None, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_configuration_matches_serial(
        self, shared_fattree_artifact, executor, workers, limit
    ):
        serial = CompressionPipeline(
            artifact=shared_fattree_artifact, executor="serial", limit=limit
        ).run()
        other = CompressionPipeline(
            artifact=shared_fattree_artifact,
            executor=executor,
            workers=workers,
            limit=limit,
        ).run()
        assert serial.report.canonical_records() == other.report.canonical_records()


@pytest.fixture(scope="module")
def shared_fattree_artifact():
    from repro.netgen.families import build_topology

    return EncodedNetwork.build(build_topology("fattree", 4))


# ----------------------------------------------------------------------
# Streaming aggregation and the record spill
# ----------------------------------------------------------------------
class TestRecordSpill:
    def test_round_trip_in_index_order(self, tmp_path):
        spill = RecordSpill(tmp_path / "records.jsonl")
        spill.append(2, {"name": "c"})
        spill.append(0, {"name": "a"})
        spill.append(1, {"name": "b"})
        assert len(spill) == 3
        assert [p["name"] for _, p in spill] == ["a", "b", "c"]
        spill.close()

    def test_anonymous_spill_cleans_up(self):
        spill = RecordSpill()
        spill.append(0, {"x": 1})
        path = spill.path
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            spill.append(1, {"y": 2})


class _FullDisk:
    """A spill handle on a full disk: every write raises ``ENOSPC``."""

    def __init__(self, handle):
        self._handle = handle

    def write(self, data):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


class TestSpillRefusal:
    def test_a_full_disk_is_a_refusal_and_no_report(self, monkeypatch, tmp_path, capsys):
        """``ENOSPC`` while spilling ends the run: a ``PipelineError``
        naming the path and the reason, one counter, one event, exit 1
        and no ``--output`` file."""
        from repro.obs import events, metrics
        from repro.pipeline.cli import main as pipeline_main

        init = RecordSpill.__init__

        def on_full_disk(self, path=None):
            init(self, path)
            self._handle = _FullDisk(self._handle)

        monkeypatch.setattr(RecordSpill, "__init__", on_full_disk)
        spill = RecordSpill(tmp_path / "direct.jsonl")
        with pytest.raises(PipelineError) as excinfo:
            spill.append(0, {"x": 1})
        assert str(tmp_path / "direct.jsonl") in str(excinfo.value)
        assert "enospc" in str(excinfo.value)
        assert len(spill) == 0
        spill.close()

        out = tmp_path / "report.json"
        seen = []
        events.subscribe(seen.append)
        before = metrics.snapshot_counters()
        try:
            code = pipeline_main([
                "failures", "--topo", "ring", "--size", "5", "--executor", "serial",
                "--memory-budget", "4096", "--output", str(out),
            ])
        finally:
            events.unsubscribe(seen.append)
        assert code == 1
        assert not out.exists()
        assert "cannot write record spill" in capsys.readouterr().err
        assert metrics.counters_delta(before).get("pipeline.spill.refused.enospc") == 1
        (refused,) = [event for event in seen if event["type"] == "spill.refused"]
        assert refused["reason"] == "enospc"

    def test_a_spill_unreadable_while_the_report_is_written_leaves_none(
        self, monkeypatch, tmp_path, capsys
    ):
        """The summary read the spill; writing ``--output`` reads it again
        and fails half way: the partial file is removed."""
        from repro.pipeline.cli import main as pipeline_main

        out = tmp_path / "report.json"
        iterate = RecordSpill.__iter__

        def unreadable_once_writing(self):
            if out.exists():
                raise self._refuse("read", OSError(errno.EIO, os.strerror(errno.EIO)))
            yield from iterate(self)

        monkeypatch.setattr(RecordSpill, "__iter__", unreadable_once_writing)
        code = pipeline_main([
            "failures", "--topo", "ring", "--size", "5", "--executor", "serial",
            "--memory-budget", "4096", "--output", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert "cannot read record spill" in capsys.readouterr().err

    def test_a_full_disk_under_the_report_leaves_none(self, monkeypatch, tmp_path, capsys):
        """``ENOSPC`` writing ``--output`` itself: exit 1 and the partial
        file removed."""
        from repro.pipeline import cli

        out = tmp_path / "report.json"
        monkeypatch.setattr(
            cli, "open", lambda *args, **kwargs: _FullDisk(open(*args, **kwargs)), raising=False
        )
        code = cli.main([
            "failures", "--topo", "ring", "--size", "5", "--executor", "serial",
            "--output", str(out),
        ])
        assert code == 1
        assert not out.exists()
        assert "cannot write report" in capsys.readouterr().err


def _delta_run(network):
    from repro.delta import DeltaSweep
    from repro.netgen.changes import generated_change_script

    script = generated_change_script(network, "fattree", steps=2, seed=0)
    return DeltaSweep(network, script=script, executor="serial", limit=3).run()


def _failures_run(network):
    from repro.failures import FailureSweep

    return FailureSweep(network, k=1, executor="serial", limit=3).run()


def _verify_run(network):
    from repro.analysis.batch import BatchVerifier

    return BatchVerifier(network, executor="serial", limit=3).run()


#: One small serial run per report kind.
_TWIN_RUNS = {
    "compression": lambda network: CompressionPipeline(
        network, executor="serial", limit=3
    ).run_streaming(spill=False),
    "delta": _delta_run,
    "failures": _failures_run,
    "verification": _verify_run,
}


class TestStreamingReports:
    def test_run_streaming_matches_run(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        plain = CompressionPipeline(artifact=artifact, executor="serial").run().report
        streamed = CompressionPipeline(
            artifact=artifact, executor="serial"
        ).run_streaming(spill=False)
        assert plain.canonical_records() == streamed.canonical_records()
        assert streamed.ok()

    def test_spilled_report_roundtrips_via_write_json(self, small_fattree, tmp_path):
        artifact = EncodedNetwork.build(small_fattree)
        report = CompressionPipeline(
            artifact=artifact, executor="serial"
        ).run_streaming(spill=True, spill_path=tmp_path / "spill.jsonl")
        assert report.spill is not None
        assert report.records == []  # nothing materialised in memory
        assert report.ok()
        out = tmp_path / "report.json"
        report.write_json(out)
        loaded = PipelineReport.from_dict(json.loads(out.read_text()))
        plain = CompressionPipeline(artifact=artifact, executor="serial").run().report
        assert loaded.canonical_records() == plain.canonical_records()
        assert loaded.num_classes == plain.num_classes

    @pytest.mark.parametrize("kind", sorted(_TWIN_RUNS))
    def test_spilled_and_in_memory_reports_write_the_same_bytes(
        self, kind, small_fattree, tmp_path
    ):
        """One writer: the same records merged (out of class order) into an
        in-memory report and a spilled one write byte-identical JSON, the
        bytes ``json.dumps`` gives the in-memory report's dict."""
        report = _TWIN_RUNS[kind](small_fattree)
        records = list(report.iter_records())
        header = {**report.to_dict(include_records=False), "records": []}
        in_memory, spilled = (type(report).from_dict(header) for _ in range(2))
        spilled.attach_spill(RecordSpill(tmp_path / "records.jsonl"))
        for index in reversed(range(len(records))):
            in_memory.merge_partial(index, records[index])
            spilled.merge_partial(index, records[index])
        assert len(records) > 1 and spilled.records == []
        written = []
        for twin in (in_memory, spilled):
            handle = io.StringIO()
            twin.write_to(handle)
            written.append(handle.getvalue())
        assert written[0] == written[1] == in_memory.to_json() == spilled.to_json()
        assert written[0] == json.dumps(in_memory.to_dict(), indent=2, sort_keys=True)

    def test_streaming_failure_sweep_matches_plain(self, small_fattree, tmp_path):
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=False, limit=2)
        plain = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        spilled = FailureSweep(
            small_fattree,
            executor="serial",
            spill=True,
            spill_path=tmp_path / "fail.jsonl",
            **kwargs,
        ).run()
        assert spilled.records == []
        assert plain.canonical_records() == spilled.canonical_records()
        assert plain.k_resilience() == spilled.k_resilience()
