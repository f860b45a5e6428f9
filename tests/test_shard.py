"""Tests for the cost-aware shard scheduler (repro.pipeline.shard),
the costs sidecar, and streaming/memory-bounded report aggregation."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline import shard
from repro.pipeline.core import ClassFanOut, CompressionPipeline, PipelineError
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import PipelineReport
from repro.pipeline.shard import (
    ShardCoordinator,
    WorkUnit,
    _chunk_bounds,
    heuristic_cost,
    lookup_costs,
    merge_chunks,
    remember_costs,
    resolve_cost_store,
    split_units,
)
from repro.pipeline.stream import RecordSpill
from repro.store import ArtifactStore


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
        assert shard.UNIT_SEQUENCES["repro.failures.sweep:failure_class_task"] == (
            "scenarios", "scenarios",
        )
        assert shard.UNIT_SEQUENCES["repro.delta.sweep:delta_class_task"] == (
            "script", "steps",
        )


class TestCoordinatorPlan:
    def _coordinator(self, artifact, **kwargs):
        defaults = dict(
            artifact=artifact,
            task_path="repro.pipeline.core:compress_class_task",
            options={},
            classes=artifact.classes,
            workers=2,
        )
        defaults.update(kwargs)
        return ShardCoordinator(**defaults)

    def test_units_sorted_largest_first(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        prefixes = [str(ec.prefix) for ec in artifact.classes]
        costs = {p: float(i + 1) for i, p in enumerate(prefixes)}
        coordinator = self._coordinator(artifact, unit_costs=costs)
        coordinator.plan()
        planned = [u.cost for u in coordinator.units]
        assert planned == sorted(planned, reverse=True)
        assert coordinator.warm

    def test_bundles_cover_every_class_once(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        coordinator = self._coordinator(artifact)
        bundles = coordinator.plan()
        seen = [u.index for bundle in bundles for u in bundle]
        assert sorted(seen) == list(range(len(artifact.classes)))

    def test_cold_plan_uses_heuristic(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        coordinator = self._coordinator(artifact, fingerprint="deadbeef" * 8)
        coordinator.plan()
        assert not coordinator.warm
        expected = {heuristic_cost(ec) for ec in artifact.classes}
        assert {u.cost for u in coordinator.units} <= expected

    def test_failure_task_splits_when_classes_scarce(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        scenarios = [("link", i) for i in range(8)]
        coordinator = ShardCoordinator(
            artifact=artifact,
            task_path="repro.failures.sweep:failure_class_task",
            options={"scenarios": scenarios},
            classes=artifact.classes[:2],
            workers=4,
        )
        coordinator.plan()
        by_index = {}
        for unit in coordinator.units:
            by_index.setdefault(unit.index, []).append(unit)
        for index, units in by_index.items():
            assert len(units) > 1
            merged = [
                s
                for u in sorted(units, key=lambda u: u.chunk)
                for s in scenarios[slice(*u.patch["unit_range"])]
            ]
            assert merged == scenarios

    def test_uid_identifies_chunk(self):
        unit = WorkUnit(index=3, equivalence_class=None, chunk=2, chunks=4)
        assert unit.uid == (3, 2)


# ----------------------------------------------------------------------
# The cost model (sidecar + in-process cache)
# ----------------------------------------------------------------------
class TestCostStore:
    FP = "ab" * 32
    TASK = "repro.pipeline.core:compress_class_task"

    def test_record_and_load_round_trip(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_costs(self.FP, self.TASK, {"10.0.0.0/24": 1.5}, {"10.0.0.0/24": 3})
        data = store.load_costs(self.FP)
        block = data["tasks"][self.TASK]
        assert block["unit_seconds"] == {"10.0.0.0/24": 1.5}
        assert block["unit_counts"] == {"10.0.0.0/24": 3}
        assert block["num_units"] == 1
        assert block["total_seconds"] == pytest.approx(1.5)

    def test_record_merges_tasks(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_costs(self.FP, "task:a", {"p": 1.0})
        store.record_costs(self.FP, "task:b", {"p": 2.0})
        data = store.load_costs(self.FP)
        assert set(data["tasks"]) == {"task:a", "task:b"}

    def test_load_tolerates_missing_and_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path)
        assert store.load_costs(self.FP) == {}
        entry = store.entry_dir(self.FP)
        entry.mkdir(parents=True)
        (entry / "costs.json").write_text("{not json")
        assert store.load_costs(self.FP) == {}

    def test_load_refuses_schema_and_fingerprint_mismatch(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_costs(self.FP, self.TASK, {"p": 1.0})
        path = store.entry_dir(self.FP) / "costs.json"

        data = json.loads(path.read_text())
        data["costs_schema_version"] = 999
        path.write_text(json.dumps(data))
        assert store.load_costs(self.FP) == {}

        data["costs_schema_version"] = 1
        data["fingerprint"] = "cd" * 32
        path.write_text(json.dumps(data))
        assert store.load_costs(self.FP) == {}

    def test_delete_removes_costs_sidecar(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.record_costs(self.FP, self.TASK, {"p": 1.0})
        assert store.delete(self.FP)
        assert store.load_costs(self.FP) == {}

    def test_lookup_overlays_cache_on_store(self, tmp_path):
        fp = "ee" * 32
        store = ArtifactStore(tmp_path)
        store.record_costs(fp, self.TASK, {"a": 1.0, "b": 2.0})
        remember_costs(fp, self.TASK, {"b": 9.0, "c": 3.0})
        merged = lookup_costs(fp, self.TASK, cost_store=store)
        assert merged == {"a": 1.0, "b": 9.0, "c": 3.0}

    def test_resolve_cost_store(self, tmp_path):
        assert resolve_cost_store(None) is None
        store = ArtifactStore(tmp_path)
        assert resolve_cost_store(store) is store
        resolved = resolve_cost_store(str(tmp_path))
        assert isinstance(resolved, ArtifactStore)
        assert resolved.root == store.root

    def test_fanout_records_costs_into_store(self, small_fattree, tmp_path):
        store = ArtifactStore(tmp_path)
        fanout = ClassFanOut(
            small_fattree, task="compress", executor="serial", cost_store=store
        )
        fanout.execute()
        from repro.store.fingerprint import network_fingerprint

        data = store.load_costs(network_fingerprint(small_fattree))
        seconds = data["tasks"][fanout.task]["unit_seconds"]
        assert set(seconds) == {str(ec.prefix) for ec in fanout.last_classes}
        assert all(v >= 0.0 for v in seconds.values())


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

    def test_rejects_unknown_scheduler(self, small_fattree):
        with pytest.raises(ValueError, match="scheduler"):
            ClassFanOut(small_fattree, scheduler="psychic")


# ----------------------------------------------------------------------
# Parity: stolen results must be bit-identical to serial ones
# ----------------------------------------------------------------------
class TestStealingParity:
    def test_compress_stealing_matches_serial(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        serial = CompressionPipeline(artifact=artifact, executor="serial").run()
        stolen = CompressionPipeline(
            artifact=artifact, executor="process", workers=2, scheduler="stealing"
        ).run()
        assert serial.report.canonical_records() == stolen.report.canonical_records()

    def test_explicit_batch_size_forces_static(self, small_fattree):
        fanout = ClassFanOut(
            small_fattree, executor="process", workers=2, batch_size=2
        )
        fanout.execute()
        assert fanout.last_scheduler == "static"

    def test_stealing_reports_scheduler_and_costs(self, small_fattree):
        fanout = ClassFanOut(small_fattree, executor="process", workers=2)
        results = fanout.execute()
        assert fanout.last_scheduler == "stealing"
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
        stolen = FailureSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == stolen.canonical_records()

    def test_delta_split_parity(self, small_fattree):
        """Step-range chunks fast-forward by re-solving the chain prefix;
        outcomes must equal the serial chained sweep's."""
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        kwargs = dict(script=script, oracle=True, revalidate=True, limit=2)
        serial = DeltaSweep(small_fattree, executor="serial", **kwargs).run()
        stolen = DeltaSweep(
            small_fattree, executor="process", workers=4, **kwargs
        ).run()
        assert serial.canonical_records() == stolen.canonical_records()

    def test_worker_crash_surfaces_clean_error(self, small_fattree):
        """A crash inside a stolen unit must carry the class and cause."""
        fanout = ClassFanOut(
            small_fattree,
            task="bench-sleep",
            task_options={"default_sleep": "not-a-number"},
            executor="process",
            workers=2,
        )
        with pytest.raises(PipelineError) as excinfo:
            fanout.execute()
        message = str(excinfo.value)
        assert "10.0." in message
        assert "ValueError" in message

    @given(
        executor_workers=st.sampled_from(
            [("serial", 1), ("thread", 2), ("process", 2), ("process", 3)]
        ),
        scheduler=st.sampled_from(["stealing", "static"]),
        limit=st.sampled_from([None, 3]),
    )
    @settings(max_examples=6, deadline=None)
    def test_any_configuration_matches_serial(
        self, shared_fattree_artifact, executor_workers, scheduler, limit
    ):
        executor, workers = executor_workers
        serial = CompressionPipeline(
            artifact=shared_fattree_artifact, executor="serial", limit=limit
        ).run()
        other = CompressionPipeline(
            artifact=shared_fattree_artifact,
            executor=executor,
            workers=workers,
            scheduler=scheduler,
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


# ----------------------------------------------------------------------
# The synthetic skew task
# ----------------------------------------------------------------------
class TestSleepTask:
    def test_sleep_task_registered_and_runs(self, small_fattree):
        fanout = ClassFanOut(
            small_fattree,
            task="bench-sleep",
            task_options={"default_sleep": 0.0},
            executor="serial",
        )
        results = fanout.execute()
        assert results == [str(ec.prefix) for ec in fanout.last_classes]

    def test_sleep_task_module_import_registers(self):
        assert "bench-sleep" in shard._core.CLASS_TASKS
