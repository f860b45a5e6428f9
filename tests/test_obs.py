"""Tests for the unified telemetry layer (repro.obs): the metrics
registry, structured tracing across every executor, trace files, report
envelope blocks, and the serve scrape surfaces."""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import metrics, trace
from repro.pipeline.core import CompressionPipeline
from repro.pipeline.encoded import EncodedNetwork


@pytest.fixture(autouse=True)
def clean_obs_state():
    """Each test starts from an empty, enabled registry and no trace."""
    metrics.reset()
    metrics.enable()
    yield
    if trace.enabled():
        trace.end()
    metrics.reset()
    metrics.enable()


# ----------------------------------------------------------------------
# Metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        metrics.counter("t.count").inc()
        metrics.counter("t.count").inc(4)
        metrics.gauge("t.gauge").set(2.5)
        metrics.gauge("t.gauge").max(1.0)  # lower: no-op
        metrics.gauge("t.gauge").max(7.0)
        for value in (1.0, 2.0, 3.0, 4.0):
            metrics.histogram("t.hist").observe(value)
        collected = metrics.collect()
        assert collected["counters"]["t.count"] == 5
        assert collected["gauges"]["t.gauge"] == 7.0
        hist = collected["histograms"]["t.hist"]
        assert hist["count"] == 4 and hist["sum"] == 10.0
        assert hist["min"] == 1.0 and hist["max"] == 4.0

    def test_histogram_memory_is_bounded(self):
        hist = metrics.histogram("t.bounded", reservoir=64)
        for i in range(5000):
            hist.observe(float(i))
        assert hist.count == 5000
        assert len(hist._reservoir) == 64
        # Exact aggregates survive the sampling.
        assert hist.min == 0.0 and hist.max == 4999.0

    def test_histogram_reservoir_is_deterministic(self):
        a = metrics.MetricsRegistry()
        b = metrics.MetricsRegistry()
        for i in range(3000):
            a.histogram("same.name").observe(float(i % 97))
            b.histogram("same.name").observe(float(i % 97))
        assert a.histogram("same.name").summary() == b.histogram("same.name").summary()

    def test_disable_returns_null_instruments(self):
        metrics.counter("t.kept").inc(3)
        metrics.disable()
        assert not metrics.enabled()
        metrics.counter("t.kept").inc(100)
        metrics.histogram("t.dropped").observe(1.0)
        metrics.enable()
        collected = metrics.collect()
        assert collected["counters"]["t.kept"] == 3
        assert "t.dropped" not in collected["histograms"]

    def test_snapshot_delta_merge(self):
        metrics.counter("t.a").inc(2)
        before = metrics.snapshot_counters()
        metrics.counter("t.a").inc(3)
        metrics.counter("t.b").inc()
        delta = metrics.counters_delta(before)
        assert delta == {"t.a": 3, "t.b": 1}
        other = metrics.MetricsRegistry()
        other.merge_counters(delta)
        assert other.snapshot_counters() == {"t.a": 3, "t.b": 1}

    def test_absorb_cache_info(self):
        metrics.absorb_cache_info(
            "t.cache", {"hits": 10, "misses": 2}, {"hits": 15, "misses": 2, "overflows": 1}
        )
        counters = metrics.collect()["counters"]
        assert counters["t.cache.hits"] == 5
        assert counters["t.cache.overflows"] == 1
        assert "t.cache.misses" not in counters  # zero deltas are dropped

    def test_prometheus_rendering(self):
        metrics.counter("srp.scratch_solves").inc(7)
        metrics.gauge("process.peak_rss_mb").set(123.5)
        for value in range(10):
            metrics.histogram("pipeline.class_seconds").observe(float(value))
        text = metrics.render_prometheus([metrics.REGISTRY])
        assert "repro_srp_scratch_solves_total 7" in text
        assert "repro_process_peak_rss_mb 123.5" in text
        assert 'repro_pipeline_class_seconds{quantile="0.5"}' in text
        assert "repro_pipeline_class_seconds_count 10" in text

    def test_prometheus_sums_counters_across_registries(self):
        extra = metrics.MetricsRegistry()
        metrics.counter("t.shared").inc(2)
        extra.counter("t.shared").inc(5)
        text = metrics.render_prometheus([metrics.REGISTRY, extra])
        assert "repro_t_shared_total 7" in text


# ----------------------------------------------------------------------
# Tracing primitives
# ----------------------------------------------------------------------
class TestTrace:
    def test_disabled_span_is_shared_noop(self):
        assert trace.span("anything", cls="x") is trace.span("other") is trace._NULL_SPAN

    def test_name_is_a_legal_tag(self):
        trace.begin("run")
        with trace.span("scenario", name="link:a-b"):
            pass
        root = trace.end()
        assert root.children[0].tags == {"name": "link:a-b"}

    def test_span_tree_and_metric_deltas(self):
        trace.begin("run", command="test")
        with trace.span("outer"):
            metrics.counter("t.work").inc(2)
            with trace.span("inner", cls="c1"):
                metrics.counter("t.work").inc(5)
        root = trace.end()
        assert not trace.enabled()
        (outer,) = root.children
        (inner,) = outer.children
        assert outer.metrics == {"t.work": 7}
        assert inner.metrics == {"t.work": 5}
        assert outer.self_metrics() == {"t.work": 2}
        assert outer.duration_ms >= inner.duration_ms

    def test_capture_unit_detached_root(self):
        # A pool worker whose process never saw begin(): capture still works.
        assert not trace.enabled()
        with trace.capture_unit(True, True, cls="10.0.0.0/24") as blob:
            metrics.counter("t.unit").inc(3)
            with trace.span("compress", cls="10.0.0.0/24"):
                pass
        assert not trace.enabled()
        assert blob["span"]["name"] == "class"
        assert blob["span"]["children"][0]["name"] == "compress"
        assert blob["metrics"]["t.unit"] == 3

    def test_capture_unit_without_flags_is_free(self):
        with trace.capture_unit(False, False, cls="x") as blob:
            pass
        assert blob == {"span": None, "metrics": None}

    def test_merge_chunk_spans(self):
        chunks = [
            {"name": "class", "tags": {"cls": "p", "chunk": 0}, "dur_ms": 2.0,
             "metrics": {"a": 1}, "children": [{"name": "s1", "tags": {}, "dur_ms": 1.0,
                                               "metrics": {}, "children": []}]},
            {"name": "class", "tags": {"cls": "p", "chunk": 1}, "dur_ms": 3.0,
             "metrics": {"a": 2, "b": 1}, "children": [{"name": "s2", "tags": {}, "dur_ms": 1.0,
                                                        "metrics": {}, "children": []}]},
        ]
        merged = trace.merge_chunk_spans(chunks)
        assert merged["tags"] == {"cls": "p"}
        assert merged["dur_ms"] == 5.0
        assert merged["metrics"] == {"a": 3, "b": 1}
        assert [c["name"] for c in merged["children"]] == ["s1", "s2"]

    @given(
        st.lists(
            st.lists(st.text("ab", min_size=1, max_size=3), max_size=4),
            min_size=1,
            max_size=5,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_merge_chunk_spans_concatenates_in_chunk_order(self, chunk_children):
        chunks = [
            {
                "name": "class",
                "tags": {"cls": "p", "chunk": index},
                "dur_ms": float(index),
                "metrics": {"n": len(children)},
                "children": [
                    {"name": name, "tags": {}, "dur_ms": 0.0, "metrics": {}, "children": []}
                    for name in children
                ],
            }
            for index, children in enumerate(chunk_children)
        ]
        merged = trace.merge_chunk_spans(chunks)
        assert [c["name"] for c in merged["children"]] == [
            name for children in chunk_children for name in children
        ]
        assert merged["metrics"].get("n", 0) == sum(len(c) for c in chunk_children)
        assert "chunk" not in merged["tags"]

    def test_jsonl_round_trip(self, tmp_path):
        trace.begin("run", command="test")
        with trace.span("family", family="ring"):
            with trace.span("class", cls="10.0.0.0/24"):
                metrics.counter("t.x").inc()
        root = trace.end()
        path = tmp_path / "trace.jsonl"
        trace.write_jsonl(str(path), root, context={"command": "test"})

        lines = [json.loads(line) for line in path.read_text().splitlines()]
        header = lines[0]
        assert header["kind"] == "trace"
        assert header["schema_version"] == trace.TRACE_SCHEMA_VERSION
        assert header["command"] == "test"
        assert {"id", "parent", "name", "tags", "dur_ms", "self_ms", "metrics"} <= set(lines[1])

        read_header, read_root = trace.read_jsonl(str(path))
        assert read_header["command"] == "test"
        assert read_root.structure() == root.structure()

    def test_read_jsonl_rejects_wrong_kind(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text(json.dumps({"kind": "report", "schema_version": 1}) + "\n")
        with pytest.raises(ValueError, match="not a trace file"):
            trace.read_jsonl(str(path))

    def test_summary_and_hotspots(self):
        trace.begin("run")
        with trace.span("slow"):
            with trace.span("fast"):
                pass
        root = trace.end()
        info = trace.summary(root, top=5)
        assert info["span_count"] == 3
        assert info["root"] == "run"
        names = [row["name"] for row in info["hotspots"]]
        assert set(names) <= {"run", "slow", "fast"}


# ----------------------------------------------------------------------
# Cross-executor parity: one deterministic tree
# ----------------------------------------------------------------------
def _traced_structure(run):
    trace.begin("run")
    try:
        run()
    finally:
        root = trace.end()
    return root.structure()


class TestExecutorParity:
    def test_compress_serial_process_auto(self, small_fattree, always_fork):
        artifact = EncodedNetwork.build(small_fattree)

        def run_with(**kwargs):
            return _traced_structure(
                lambda: CompressionPipeline(artifact=artifact, **kwargs).run()
            )

        serial = run_with(executor="serial")
        process = run_with(executor="process", workers=2)
        auto = run_with(executor="auto", workers=2)
        assert serial == process == auto

    def test_failure_split_units_reassemble(self, small_fattree):
        """Few classes + many workers forces scenario chunking; the
        merged chunk spans must reproduce the serial sweep's tree."""
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=False, limit=2)
        serial = _traced_structure(
            lambda: FailureSweep(small_fattree, executor="serial", **kwargs).run()
        )
        stolen = _traced_structure(
            lambda: FailureSweep(
                small_fattree, executor="process", workers=4, **kwargs
            ).run()
        )
        assert serial == stolen

    def test_delta_split_units_reassemble(self, small_fattree):
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        script = generated_change_script(small_fattree, "fattree")
        kwargs = dict(script=script, oracle=False, revalidate=True, limit=2)
        serial = _traced_structure(
            lambda: DeltaSweep(small_fattree, executor="serial", **kwargs).run()
        )
        stolen = _traced_structure(
            lambda: DeltaSweep(
                small_fattree, executor="process", workers=4, **kwargs
            ).run()
        )
        assert serial == stolen

    def test_auto_probe_then_fork_traces_and_counts_like_serial(
        self, small_fattree, always_fork
    ):
        """The probed prefix runs in this process, the suffix in a pool
        (split into scenario chunks: 2 classes left for 4 workers): one
        trace tree, and every class's counters counted exactly once."""
        from repro.failures import FailureSweep

        kwargs = dict(k=1, soundness=False, oracle=False, limit=4)

        def traced_and_counted(**executor):
            before = metrics.snapshot_counters()
            structure = _traced_structure(
                lambda: FailureSweep(small_fattree, **kwargs, **executor).run()
            )
            delta = metrics.counters_delta(before)
            return structure, {
                name: delta.get(name, 0)
                for name in ("srp.seeded_solves", "srp.scratch_solves")
            }, delta

        serial, serial_solves, _ = traced_and_counted(executor="serial")
        auto, auto_solves, delta = traced_and_counted(workers=4)
        assert auto == serial
        assert delta.get("pipeline.executor.pool") == 1
        assert delta.get("shard.split_classes") == 2
        # Seeded re-solves are one per (class, scenario) wherever they ran;
        # a split class re-pays its scratch baseline once per chunk.
        assert auto_solves["srp.seeded_solves"] == serial_solves["srp.seeded_solves"] > 0
        assert auto_solves["srp.scratch_solves"] > serial_solves["srp.scratch_solves"]

    @given(st.integers(1, 6))
    @settings(max_examples=5, deadline=None)
    def test_process_parity_any_worker_count(self, workers):
        # Built per example (hypothesis forbids fixture reuse across examples).
        from repro.netgen.families import build_topology

        network = build_topology("ring", 4)
        artifact = EncodedNetwork.build(network)
        serial = _traced_structure(
            lambda: CompressionPipeline(artifact=artifact, executor="serial").run()
        )
        pooled = _traced_structure(
            lambda: CompressionPipeline(
                artifact=artifact, executor="process", workers=workers
            ).run()
        )
        assert serial == pooled

    def test_process_workers_ship_counter_deltas(self, small_fattree):
        artifact = EncodedNetwork.build(small_fattree)
        before = metrics.snapshot_counters()
        CompressionPipeline(artifact=artifact, executor="process", workers=2).run()
        delta = metrics.counters_delta(before)
        # The compress work happens in pool workers; their solver/class
        # counters must still land in the coordinator's registry.
        assert delta.get("pipeline.classes_completed", 0) == len(
            artifact.classes
        )
        assert delta.get("abstraction.refinement_cache.misses", 0) > 0


# ----------------------------------------------------------------------
# Report envelopes
# ----------------------------------------------------------------------
class TestReportEnvelope:
    def test_compress_report_carries_obs_metrics(self, small_ring):
        report = CompressionPipeline(small_ring, executor="serial").run().report
        data = report.to_dict()
        block = data["obs_metrics"]
        assert block["counters"].get("abstraction.refinement_cache.misses", 0) > 0
        # One family per distinct specialised key map; the text summary
        # says how many classes shared them (no report field of its own).
        families = block["counters"]["abstraction.class_families"]
        assert families == block["counters"]["abstraction.refinement_cache.misses"]
        assert f"class families: {int(families)} ({len(report.records)} classes)" in (
            report.summary_lines()
        )
        assert "pipeline.class_seconds" in block["histograms"]
        assert block["gauges"].get("process.peak_rss_mb", 0) > 0
        assert data.get("trace_summary") is None or "trace_summary" not in data

    def test_trace_summary_attached_when_tracing(self, small_ring):
        trace.begin("run", command="compress")
        report = CompressionPipeline(small_ring, executor="serial").run().report
        trace.end()
        data = report.to_dict()
        assert data["trace_summary"]["root"] == "run"
        assert data["trace_summary"]["span_count"] > 1


# ----------------------------------------------------------------------
# Serve scrape surfaces
# ----------------------------------------------------------------------
class TestServeObservability:
    @pytest.fixture(scope="class")
    def service(self, request):
        from repro.netgen.families import build_topology
        from repro.serve import VerificationService
        from repro.api import Session

        network = build_topology("ring", 5)
        return VerificationService(Session(network))

    def test_query_stats_memory_is_bounded(self):
        from repro.serve.service import QueryStats

        stats = QueryStats()
        for i in range(5000):
            stats.record("verify", 0.001 * (i % 50), coalesced=i % 3 == 0)
        summary = stats.summary()["verify"]
        assert summary["count"] == 5000
        hist = stats.registry.histogram("serve.latency.verify")
        assert len(hist._reservoir) <= metrics.DEFAULT_RESERVOIR

    def test_stats_summary_shape_is_backward_compatible(self, service):
        service.verify(prefix=str(service.session.classes[0].prefix))
        summary = service.stats_summary()
        block = summary["queries"]["verify"]
        assert {"count", "coalesced", "mean_ms", "p50_ms", "p95_ms", "max_ms"} == set(block)
        assert summary["answer_cache"]["limit"] > 0
        assert summary["process"]["peak_rss_mb"] > 0

    def test_health_reports_rss_cache_and_store(self, service):
        health = service.health()
        assert health["ok"] and health["warm"]
        assert health["peak_rss_mb"] > 0
        assert health["answer_cache"]["size"] <= health["answer_cache"]["limit"]
        assert health["store"]["root"] is None

    def test_answer_cache_counters(self, service):
        prefix = str(service.session.classes[1].prefix)
        service.verify(prefix=prefix)
        service.verify(prefix=prefix)
        counters = service.registry.collect()["counters"]
        assert counters["serve.answer_cache.hits"] >= 1
        assert counters["serve.answer_cache.misses"] >= 1

    def test_metrics_endpoint_scrapes_prometheus_text(self, service):
        from repro.serve.http import create_server
        import threading
        import urllib.request

        service.verify(prefix=str(service.session.classes[2].prefix))
        server = create_server(service, port=0)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        try:
            host, port = server.server_address[:2]
            with urllib.request.urlopen(f"http://{host}:{port}/metrics") as response:
                assert response.headers["Content-Type"].startswith("text/plain")
                body = response.read().decode("utf-8")
        finally:
            server.shutdown()
            server.server_close()
        assert 'repro_serve_latency_verify{quantile="0.5"}' in body
        assert "repro_serve_latency_verify_count" in body
        assert "repro_process_peak_rss_mb" in body
        # Global solver counters ride along on the same scrape.
        assert "repro_srp_scratch_solves_total" in body
