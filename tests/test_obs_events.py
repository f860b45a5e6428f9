"""Tests for the structured event stream (repro.obs.events): the bus,
the JSONL sink and its paranoid reader, the bounded EventLog, the live
progress meter, pipeline emission, cross-executor parity of the
per-class completion stream, and the store's refusal events."""

from __future__ import annotations

import io
import json
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import events, metrics, trace
from repro.obs.jsonl import ObsFileError
from repro.pipeline.core import CompressionPipeline
from repro.pipeline.encoded import EncodedNetwork


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Each test starts with an empty bus, registry, and no trace."""
    events.reset()
    metrics.reset()
    metrics.enable()
    yield
    if trace.enabled():
        trace.end()
    events.reset()
    metrics.reset()
    metrics.enable()


def _collect():
    """A list-subscriber; returns (list, unsubscribe)."""
    seen = []
    events.subscribe(seen.append)
    return seen


# ----------------------------------------------------------------------
# Bus
# ----------------------------------------------------------------------
class TestBus:
    def test_emit_without_subscribers_is_noop(self):
        assert not events.enabled()
        events.emit("x.y", a=1)  # must not raise, must not advance seq
        seen = _collect()
        events.emit("x.z")
        assert seen[0]["seq"] == 1

    def test_events_carry_seq_ts_type_and_fields(self):
        seen = _collect()
        events.emit("class.completed", cls="10.0.0.0/24", index=3)
        events.emit("sweep.end", task="compress")
        assert [e["seq"] for e in seen] == [1, 2]
        assert seen[0]["type"] == "class.completed"
        assert seen[0]["cls"] == "10.0.0.0/24" and seen[0]["index"] == 3
        assert isinstance(seen[0]["ts"], float)
        assert seen[1]["type"] == "sweep.end"

    def test_unsubscribe_stops_delivery(self):
        seen = []
        events.subscribe(seen.append)
        events.emit("a.b")
        events.unsubscribe(seen.append)
        events.emit("c.d")
        assert len(seen) == 1
        assert not events.enabled()

    def test_all_subscribers_observe_the_same_stream(self):
        first, second = _collect(), _collect()
        for i in range(5):
            events.emit("tick", i=i)
        assert first == second


# ----------------------------------------------------------------------
# JSONL sink + paranoid reader
# ----------------------------------------------------------------------
class TestEventFile:
    def test_writer_roundtrip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        with events.EventWriter(str(path), context={"command": "test"}):
            events.emit("sweep.start", task="compress", classes=2)
            events.emit("class.completed", cls="a", index=0)
            events.emit("sweep.end", task="compress")
        header, records = events.read_jsonl(str(path))
        assert header["kind"] == "events"
        assert header["schema_version"] == events.EVENT_SCHEMA_VERSION
        assert header["command"] == "test"
        assert [r["type"] for r in records] == [
            "sweep.start", "class.completed", "sweep.end"
        ]
        assert [r["seq"] for r in records] == [1, 2, 3]

    def test_close_is_idempotent_and_stops_writing(self, tmp_path):
        path = tmp_path / "events.jsonl"
        writer = events.EventWriter(str(path))
        events.emit("one")
        writer.close()
        writer.close()
        events.emit("two")  # no subscriber anymore
        _, records = events.read_jsonl(str(path))
        assert [r["type"] for r in records] == ["one"]

    def _write_valid(self, path):
        with events.EventWriter(str(path)):
            events.emit("a")
            events.emit("b")

    def test_reader_refuses_truncated_tail(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_valid(path)
        path.write_text(path.read_text().rstrip("\n"))
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "truncated"

    def test_reader_refuses_corrupt_json_mid_file(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_valid(path)
        lines = path.read_text().splitlines()
        lines[1] = lines[1][: len(lines[1]) // 2]
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "corrupt_json"

    def test_reader_refuses_wrong_schema_version(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_valid(path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = events.EVENT_SCHEMA_VERSION + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "schema_mismatch"

    def test_reader_refuses_wrong_kind_and_empty(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(json.dumps({"kind": "trace", "schema_version": 1}) + "\n")
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "wrong_kind"
        path.write_text("")
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "empty"

    def test_reader_refuses_record_missing_fields(self, tmp_path):
        path = tmp_path / "events.jsonl"
        self._write_valid(path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"not": "an event"}) + "\n")
        with pytest.raises(ObsFileError) as err:
            events.read_jsonl(str(path))
        assert err.value.reason == "missing_field"


# ----------------------------------------------------------------------
# Bounded EventLog (serve's /events backing store)
# ----------------------------------------------------------------------
class TestEventLog:
    def test_since_returns_events_after_cursor(self):
        log = events.EventLog(capacity=16)
        for i in range(4):
            events.emit("tick", i=i)
        page = log.since(cursor=2)
        assert [e["seq"] for e in page["events"]] == [3, 4]
        assert page["cursor"] == 4 and page["dropped"] == 0
        assert log.since(cursor=4)["events"] == []
        log.close()

    def test_ring_overflow_drops_oldest_and_counts(self):
        log = events.EventLog(capacity=3)
        for i in range(7):
            events.emit("tick", i=i)
        page = log.since(cursor=0)
        assert [e["seq"] for e in page["events"]] == [5, 6, 7]
        assert page["dropped"] == 4
        log.close()

    def test_long_poll_wakes_on_new_event(self):
        log = events.EventLog(capacity=8)

        def later():
            time.sleep(0.05)
            events.emit("late.arrival")

        thread = threading.Thread(target=later)
        thread.start()
        start = time.monotonic()
        page = log.since(cursor=0, timeout=5.0)
        elapsed = time.monotonic() - start
        thread.join()
        assert [e["type"] for e in page["events"]] == ["late.arrival"]
        assert elapsed < 4.0  # woke on notify, not on timeout
        log.close()

    def test_long_poll_times_out_empty(self):
        log = events.EventLog(capacity=8)
        page = log.since(cursor=0, timeout=0.05)
        assert page["events"] == [] and page["cursor"] == 0
        log.close()


# ----------------------------------------------------------------------
# Progress meter
# ----------------------------------------------------------------------
class TestProgressMeter:
    def test_progress_and_eta_count_classes(self):
        stream = io.StringIO()
        meter = events.ProgressMeter(stream=stream, min_interval=0.0)
        events.emit("sweep.start", task="compress", classes=4)
        assert "eta   ?" in stream.getvalue()
        events.emit("class.completed", cls="a", index=0, seconds=0.1)
        assert " 25.0%" in stream.getvalue() and "eta " in stream.getvalue()
        for index, cls in enumerate("bcd", 1):
            events.emit("class.completed", cls=cls, index=index, seconds=0.1)
        events.emit("sweep.end", task="compress")
        meter.close()
        out = stream.getvalue()
        assert "4/4 classes" in out and "100.0%" in out and "eta   0.0s" in out
        assert out.endswith("\n")


# ----------------------------------------------------------------------
# Pipeline emission + executor parity
# ----------------------------------------------------------------------
def _completion_stream(**kwargs):
    """Run a compression sweep and return its coordinator event stream."""
    seen = []
    events.subscribe(seen.append)
    try:
        CompressionPipeline(**kwargs).run()
    finally:
        events.unsubscribe(seen.append)
    return seen


class TestPipelineEvents:
    def test_sweep_brackets_and_completions(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        seen = _completion_stream(artifact=artifact, executor="serial")
        types = [e["type"] for e in seen]
        assert types[0] == "sweep.start" and types[-1] == "sweep.end"
        start = seen[0]
        assert start["classes"] == len(artifact.classes)
        assert "costs" not in start and "scheduler" not in start
        completed = [e for e in seen if e["type"] == "class.completed"]
        assert len(completed) == len(artifact.classes)
        assert sorted(e["index"] for e in completed) == list(
            range(len(artifact.classes))
        )
        end = seen[-1]
        assert end["classes"] == len(artifact.classes)
        assert end["seconds"] >= 0

    def test_completion_parity_across_executors(self, small_fattree, always_fork):
        artifact = EncodedNetwork.build(small_fattree)

        def completions(**kwargs):
            stream = _completion_stream(artifact=artifact, **kwargs)
            return sorted(
                (e["index"], e["cls"])
                for e in stream
                if e["type"] == "class.completed"
            )

        serial = completions(executor="serial")
        process = completions(executor="process", workers=2)
        auto = completions(executor="auto", workers=2)
        assert serial == process == auto
        assert len(serial) == len(artifact.classes)

    @given(st.integers(1, 6))
    @settings(max_examples=5, deadline=None)
    def test_process_parity_any_worker_count(self, workers):
        # Built per example (hypothesis forbids fixture reuse across examples).
        from repro.netgen.families import build_topology

        events.reset()
        network = build_topology("ring", 4)
        artifact = EncodedNetwork.build(network)

        def completions(**kwargs):
            stream = _completion_stream(artifact=artifact, **kwargs)
            return sorted(
                (e["index"], e["cls"])
                for e in stream
                if e["type"] == "class.completed"
            )

        assert completions(executor="serial") == completions(
            executor="process", workers=workers
        )

    def test_pool_emits_only_known_event_types(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        seen = _completion_stream(artifact=artifact, executor="process", workers=4)
        known = {
            "sweep.start", "sweep.end", "class.completed",
            "spill.open", "spill.close",
        }
        assert {e["type"] for e in seen} <= known

    def test_scarce_pool_completes_each_class_once(self, small_fattree):
        """2 failure classes under 4 workers: one ``class.completed`` per
        class, the same pairs as the serial run's."""
        from repro.failures import FailureSweep

        def completions(**executor):
            seen = _collect()
            try:
                FailureSweep(
                    small_fattree, k=1, soundness=False, oracle=False, limit=2, **executor
                ).run()
            finally:
                events.unsubscribe(seen.append)
            return sorted(
                (e["index"], e["cls"]) for e in seen if e["type"] == "class.completed"
            )

        serial = completions(executor="serial")
        assert [index for index, _ in serial] == [0, 1]
        assert completions(executor="process", workers=4) == serial

    def test_pool_delta_carried_event_equals_serial(self, small_fattree):
        """The one ``delta.carried`` event counts every carried (class,
        step) pair whichever executor ran the classes."""
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")

        def carried(**executor):
            seen = _collect()
            try:
                DeltaSweep(small_fattree, script=script, limit=3, **executor).run()
            finally:
                events.unsubscribe(seen.append)
            (event,) = [e for e in seen if e["type"] == "delta.carried"]
            return {k: v for k, v in event.items() if k not in ("seq", "ts")}

        serial = carried(executor="serial")
        assert serial["carried"] > 0
        assert carried(executor="process", workers=4) == serial


# ----------------------------------------------------------------------
# Store refusal observability (counter + event + surfaced counts)
# ----------------------------------------------------------------------
class TestStoreRefusalEvents:
    def test_checksum_refusal_emits_counter_and_event(self, tmp_path, small_fattree):
        from repro.store import ArtifactStore, BaselineArtifact
        from repro.store.store import StoreError, refusal_counts

        store = ArtifactStore(tmp_path)
        artifact = BaselineArtifact.build(small_fattree)
        entry = store.save(artifact)
        payload = entry / "payload.pkl"
        payload.write_bytes(payload.read_bytes()[:-10])

        seen = _collect()
        with pytest.raises(StoreError) as err:
            store.load(artifact.fingerprint)
        assert err.value.reason == "checksum_mismatch"
        refusals = [e for e in seen if e["type"] == "store.refused"]
        assert len(refusals) == 1
        assert refusals[0]["reason"] == "checksum_mismatch"
        assert refusals[0]["fingerprint"] == artifact.fingerprint[:12]
        assert refusal_counts() == {"checksum_mismatch": 1}
        collected = metrics.collect()["counters"]
        assert collected["store.refused.checksum_mismatch"] == 1

    def test_missing_refusal_reason(self, tmp_path):
        from repro.store import ArtifactStore
        from repro.store.store import StoreError, refusal_counts

        with pytest.raises(StoreError) as err:
            ArtifactStore(tmp_path).load("0" * 64)
        assert err.value.reason == "missing"
        assert refusal_counts().get("missing") == 1

    def test_successful_load_emits_store_loaded(self, tmp_path, small_fattree):
        from repro.store import ArtifactStore, BaselineArtifact

        store = ArtifactStore(tmp_path)
        artifact = BaselineArtifact.build(small_fattree)
        store.save(artifact)
        seen = _collect()
        store.load(artifact.fingerprint)
        assert [e["type"] for e in seen] == ["store.loaded"]
