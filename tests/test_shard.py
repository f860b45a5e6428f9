"""Tests for the process pool's planner and sub-class chunks
(repro.pipeline.shard) and streaming/memory-bounded report aggregation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import shard
from repro.pipeline.core import ClassFanOut, CompressionPipeline, PipelineError
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import PipelineReport
from repro.pipeline.shard import _chunk_bounds, merge_chunks, split_units
from repro.pipeline.stream import RecordSpill


# ----------------------------------------------------------------------
# Planning primitives
# ----------------------------------------------------------------------
class TestChunkBounds:
    def test_even_split(self):
        assert _chunk_bounds(8, 4) == [(0, 2), (2, 4), (4, 6), (6, 8)]

    def test_remainder_front_loaded(self):
        bounds = _chunk_bounds(10, 3)
        assert bounds == [(0, 4), (4, 7), (7, 10)]

    def test_fewer_items_than_pieces(self):
        assert _chunk_bounds(2, 5) == [(0, 1), (1, 2)]

    @given(st.integers(1, 50), st.integers(1, 10))
    @settings(max_examples=30, deadline=None)
    def test_bounds_partition_the_range(self, total, pieces):
        bounds = _chunk_bounds(total, pieces)
        assert bounds[0][0] == 0 and bounds[-1][1] == total
        for (_, end), (start, _) in zip(bounds, bounds[1:]):
            assert end == start
        assert all(end > start for start, end in bounds)


class TestSplitters:
    """The one range splitter / chunk merger every sub-class-splitting
    task registers with (failures: ``scenarios``; delta: ``script`` /
    ``steps``)."""

    @staticmethod
    def _ranges(plan):
        patches, _ = plan
        return [tuple(patch["unit_range"]) for patch in patches]

    def test_too_short_sequence_declines(self):
        assert split_units({"scenarios": [("link", 0)]}, "scenarios", 4) is None
        assert split_units({"scenarios": []}, "scenarios", 4) is None
        assert split_units({}, "scenarios", 4) is None

    def test_near_equal_contiguous_bounds(self):
        plan = split_units({"script": ["a", "b", "c", "d", "e"]}, "script", 2)
        assert self._ranges(plan) == [(0, 3), (3, 5)]
        plan = split_units({"scenarios": list(range(6))}, "scenarios", 3)
        assert self._ranges(plan) == [(0, 2), (2, 4), (4, 6)]

    def test_fractions_sum_to_one(self):
        _, fractions = split_units({"script": list("abcdefg")}, "script", 3)
        assert sum(fractions) == pytest.approx(1.0)
        assert fractions == pytest.approx([3 / 7, 2 / 7, 2 / 7])

    def test_more_pieces_than_items_gives_one_unit_per_chunk(self):
        plan = split_units({"scenarios": ["x", "y", "z"]}, "scenarios", 8)
        assert self._ranges(plan) == [(0, 1), (1, 2), (2, 3)]
        assert plan[1] == pytest.approx([1 / 3] * 3)

    def test_splitter_reads_only_the_named_key(self):
        options = {"scenarios": list(range(4)), "script": ["only"]}
        assert split_units(options, "script", 2) is None
        assert len(split_units(options, "scenarios", 2)[0]) == 2

    def test_merge_order_is_original_order(self):
        class Record:
            def __init__(self, baseline, steps):
                self.baseline = baseline
                self.steps = steps

        units = list(range(7))
        ranges = self._ranges(split_units({"script": units}, "script", 3))
        chunks = [Record(f"chunk{i}", units[a:b]) for i, (a, b) in enumerate(ranges)]
        merged = merge_chunks(chunks, "steps")
        assert merged is chunks[0]
        assert merged.baseline == "chunk0"
        assert merged.steps == units

    def test_sweep_tasks_register_their_unit_sequences(self):
        import repro.delta.sweep  # noqa: F401 - registers as it imports
        import repro.failures.sweep  # noqa: F401

        assert shard.UNIT_SEQUENCES["repro.failures.sweep:failure_class_task"] == (
            "scenarios", "scenarios",
        )
        assert shard.UNIT_SEQUENCES["repro.delta.sweep:delta_class_task"] == (
            "script", "steps",
        )


class TestPlanner:
    """The one pool plan: contiguous class-order bundles, or sub-class
    chunks of a splittable task when the classes cannot fill the pool."""

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
            assert [(i, ec) for bundle in bundles for i, _, ec, _ in bundle] == indexed
            assert all(chunk == 0 and patch is None
                       for bundle in bundles for _, chunk, _, patch in bundle)

    def test_scarce_classes_of_a_splittable_task_are_chunked(self, small_fattree):
        import repro.failures.sweep  # noqa: F401 - registers the splitter

        scenarios = [("link", i) for i in range(8)]
        classes = EncodedNetwork.build(small_fattree).classes[:3]
        fanout = ClassFanOut(
            small_fattree, task="failures", task_options={"scenarios": scenarios},
            executor="process", workers=4,
        )
        bundles = fanout.plan(list(enumerate(classes)))
        # ceil(2 x 4 / 3) = 3 chunks a class, one chunk a bundle.
        assert all(len(bundle) == 1 for bundle in bundles)
        units = [unit for bundle in bundles for unit in bundle]
        assert [(index, chunk) for index, chunk, _, _ in units] == [
            (index, chunk) for index in range(3) for chunk in range(3)
        ]
        for index in range(3):
            merged = [
                s
                for i, _, _, patch in units if i == index
                for s in scenarios[slice(*patch["unit_range"])]
            ]
            assert merged == scenarios

    def test_unsplittable_task_and_serial_plans_stay_whole(self, small_fattree):
        classes = EncodedNetwork.build(small_fattree).classes[:3]
        indexed = list(enumerate(classes))
        fanout = ClassFanOut(small_fattree, executor="process", workers=4)
        assert [len(bundle) for bundle in fanout.plan(indexed)] == [1, 1, 1]
        failures = ClassFanOut(
            small_fattree, task="failures",
            task_options={"scenarios": [("link", i) for i in range(8)]}, workers=4,
        )
        assert [len(bundle) for bundle in failures.plan(indexed, split=False)] == [1, 1, 1]


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

    def test_failure_split_parity(self, small_fattree):
        """Few classes + many workers forces scenario chunking; merged
        records must equal the serial (unsplit) sweep's."""
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=True, limit=2)
        serial = FailureSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = FailureSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == pooled.canonical_records()

    def test_delta_split_parity(self, small_fattree):
        """Step-range chunks fast-forward by re-solving the chain prefix;
        outcomes must equal the serial chained sweep's."""
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        kwargs = dict(script=script, oracle=True, revalidate=True, limit=2)
        serial = DeltaSweep(small_fattree, executor="serial", **kwargs).run()
        pooled = DeltaSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == pooled.canonical_records()

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
        import os

        spill = RecordSpill()
        spill.append(0, {"x": 1})
        path = spill.path
        assert os.path.exists(path)
        spill.close()
        assert not os.path.exists(path)
        with pytest.raises(ValueError):
            spill.append(1, {"y": 2})


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
