"""Tests for the span-scoped sampling profiler (repro.obs.profile):
sample attribution to open spans, CPU self-time credit, the folded
flamegraph export, the null profiler, file round trips and their
adversarial rejections, and the CLI integration."""

from __future__ import annotations

import json
import re
import time

import pytest

from repro.obs import events, metrics, profile, trace
from repro.obs.jsonl import ObsFileError
from repro.pipeline.cli import main as pipeline_main


@pytest.fixture(autouse=True)
def clean_obs_state():
    events.reset()
    metrics.reset()
    metrics.enable()
    yield
    if trace.enabled():
        trace.end()
    events.reset()
    metrics.reset()
    metrics.enable()


def _busy(seconds: float) -> None:
    """Burn CPU (not sleep) so the sampler finds a running frame."""
    deadline = time.perf_counter() + seconds
    x = 0
    while time.perf_counter() < deadline:
        x += 1
    return x


# ----------------------------------------------------------------------
# Sampling
# ----------------------------------------------------------------------
class TestSamplingProfiler:
    def test_samples_attribute_to_open_span(self):
        trace.begin("run", command="test")
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            with trace.span("hot-section"):
                _busy(0.2)
        root = trace.end()
        assert profiler.sample_count > 0
        span_paths = {span for span, _ in profiler.samples}
        assert any("hot-section" in path for path in span_paths)
        # CPU self-time was credited to the sampled span.
        hot = root.children[0]
        assert hot.name == "hot-section"
        assert hot.cpu_ms > 0

    def test_samples_without_span_use_sentinel(self):
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            _busy(0.1)
        assert profiler.sample_count > 0
        assert {span for span, _ in profiler.samples} == {profile.NO_SPAN}

    def test_folded_lines_format(self):
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            _busy(0.1)
        lines = profiler.folded()
        assert lines
        # Canonical folded shape: frames;joined;by;semicolons SPACE count.
        for line in lines:
            stack, sep, count = line.rpartition(" ")
            assert sep and stack and re.fullmatch(r"[0-9]+", count)
            assert int(count) > 0

    def test_start_stop_idempotent(self):
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        assert not profiler.active()
        profiler.start()
        profiler.start()
        assert profiler.active()
        profiler.stop()
        profiler.stop()
        assert not profiler.active()


# ----------------------------------------------------------------------
# Folded rendering + summary (pure functions on records)
# ----------------------------------------------------------------------
class TestExport:
    RECORDS = [
        {"span": "run;compress", "stack": ["cli.main", "core.solve"], "count": 7},
        {"span": "run", "stack": ["cli.main"], "count": 2},
    ]

    def test_folded_lines(self):
        assert profile.folded_lines(self.RECORDS) == [
            "run;compress;cli.main;core.solve 7",
            "run;cli.main 2",
        ]

    def test_summary_ranks_leaf_frames(self):
        ranked = profile.summary(self.RECORDS, top=5)
        assert ranked[0] == {"frame": "core.solve", "samples": 7}
        assert ranked[1] == {"frame": "cli.main", "samples": 2}


# ----------------------------------------------------------------------
# File round trip + adversarial reads
# ----------------------------------------------------------------------
class TestProfileFile:
    def _write(self, tmp_path):
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            _busy(0.1)
        path = tmp_path / "profile.jsonl"
        profile.write_jsonl(str(path), profiler, context={"command": "test"})
        return path, profiler

    def test_roundtrip(self, tmp_path):
        path, profiler = self._write(tmp_path)
        header, records = profile.read_jsonl(str(path))
        assert header["kind"] == "profile"
        assert header["schema_version"] == profile.PROFILE_SCHEMA_VERSION
        assert header["sample_count"] == profiler.sample_count
        assert header["interval_ms"] == profiler.interval_ms
        assert records == profiler.records()
        assert profile.folded_lines(records) == profiler.folded()

    def test_refuses_truncated_tail(self, tmp_path):
        path, _ = self._write(tmp_path)
        path.write_text(path.read_text().rstrip("\n"))
        with pytest.raises(ObsFileError) as err:
            profile.read_jsonl(str(path))
        assert err.value.reason == "truncated"

    def test_refuses_corrupt_json(self, tmp_path):
        path, _ = self._write(tmp_path)
        lines = path.read_text().splitlines()
        lines[1] = "{broken"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObsFileError) as err:
            profile.read_jsonl(str(path))
        assert err.value.reason == "corrupt_json"

    def test_refuses_wrong_schema_version(self, tmp_path):
        path, _ = self._write(tmp_path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        header["schema_version"] = profile.PROFILE_SCHEMA_VERSION + 1
        lines[0] = json.dumps(header)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ObsFileError) as err:
            profile.read_jsonl(str(path))
        assert err.value.reason == "schema_mismatch"

    def test_refuses_record_missing_fields(self, tmp_path):
        path, _ = self._write(tmp_path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({"span": "x"}) + "\n")
        with pytest.raises(ObsFileError) as err:
            profile.read_jsonl(str(path))
        assert err.value.reason == "missing_field"


# ----------------------------------------------------------------------
# CLI: --profile on pipelines, profile flamegraph/summarize
# ----------------------------------------------------------------------
class TestProfileCli:
    def test_profiled_compress_writes_valid_profile(self, tmp_path, capsys):
        path = tmp_path / "compress.profile.jsonl"
        code = pipeline_main([
            "compress", "--topo", "ring", "--size", "5",
            "--executor", "serial", "--profile", str(path),
        ])
        assert code == 0
        assert f"profile written to {path}" in capsys.readouterr().out
        header, _ = profile.read_jsonl(str(path))
        assert header["command"] == "compress"

    def test_flamegraph_subcommand(self, tmp_path, capsys):
        src = tmp_path / "p.jsonl"
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            _busy(0.1)
        profile.write_jsonl(str(src), profiler)
        out = tmp_path / "p.folded"
        code = pipeline_main(
            ["profile", "flamegraph", str(src), "--out", str(out)]
        )
        assert code == 0
        capsys.readouterr()
        lines = out.read_text().splitlines()
        assert lines == profiler.folded()

    def test_summarize_subcommand(self, tmp_path, capsys):
        src = tmp_path / "p.jsonl"
        profiler = profile.SamplingProfiler(interval_ms=1.0)
        with profiler:
            _busy(0.1)
        profile.write_jsonl(str(src), profiler)
        code = pipeline_main(["profile", "summarize", str(src), "--top", "3"])
        assert code == 0
        assert "samples" in capsys.readouterr().out

    def test_rejects_corrupt_file_with_diagnostic(self, tmp_path, capsys):
        path = tmp_path / "bad.jsonl"
        path.write_text("{broken\n")
        code = pipeline_main(["profile", "summarize", str(path)])
        assert code == 2
        assert "corrupt_json" in capsys.readouterr().err
