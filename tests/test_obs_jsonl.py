"""Tests for the shared observability JSONL reader (repro.obs.jsonl):
the header/record round trip and every refusal reason, checked on the
reader itself rather than through one of the file formats built on it."""

from __future__ import annotations

import json

import pytest

from repro.obs.jsonl import ObsFileError, header_line, read_records

KIND = "sample_obs"
SCHEMA = 3


def _write(path, header=None, records=(), terminated=True):
    lines = [header if header is not None else header_line(KIND, SCHEMA)]
    lines.extend(json.dumps(record) for record in records)
    path.write_text("\n".join(lines) + ("\n" if terminated else ""))
    return str(path)


class TestRoundTrip:
    def test_header_and_records_come_back_in_order(self, tmp_path):
        records = [{"i": i, "name": f"r{i}"} for i in range(3)]
        header, loaded = read_records(_write(tmp_path / "f.jsonl", records=records), KIND, SCHEMA)
        assert header["kind"] == KIND and header["schema_version"] == SCHEMA
        assert "generated_by" in header
        assert loaded == records

    def test_header_context_is_kept(self, tmp_path):
        path = _write(tmp_path / "f.jsonl", header=header_line(KIND, SCHEMA, {"run": "x"}))
        header, loaded = read_records(path, KIND, SCHEMA)
        assert header["run"] == "x" and loaded == []

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(header_line(KIND, SCHEMA) + "\n\n" + json.dumps({"a": 1}) + "\n\n")
        assert read_records(str(path), KIND, SCHEMA)[1] == [{"a": 1}]


class TestRefusals:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("  \n")
        with pytest.raises(ObsFileError) as err:
            read_records(str(path), KIND, SCHEMA)
        assert err.value.reason == "empty"

    def test_missing_final_newline_is_truncation(self, tmp_path):
        path = _write(tmp_path / "f.jsonl", records=[{"a": 1}], terminated=False)
        with pytest.raises(ObsFileError) as err:
            read_records(path, KIND, SCHEMA)
        assert err.value.reason == "truncated"

    def test_corrupt_line_mid_file_names_its_line(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text(header_line(KIND, SCHEMA) + '\n{"a": \n{"b": 2}\n')
        with pytest.raises(ObsFileError) as err:
            read_records(str(path), KIND, SCHEMA)
        assert err.value.reason == "corrupt_json"
        assert err.value.path == str(path)
        assert "line 2" in str(err.value) and str(path) in str(err.value)

    def test_non_object_line(self, tmp_path):
        path = _write(tmp_path / "f.jsonl", records=[[1, 2]])
        with pytest.raises(ObsFileError) as err:
            read_records(path, KIND, SCHEMA)
        assert err.value.reason == "not_an_object"
        assert "line 2 is a list" in str(err.value)

    def test_wrong_kind(self, tmp_path):
        path = _write(tmp_path / "f.jsonl", header=header_line("other_obs", SCHEMA))
        with pytest.raises(ObsFileError) as err:
            read_records(path, KIND, SCHEMA)
        assert err.value.reason == "wrong_kind"

    def test_schema_mismatch(self, tmp_path):
        path = _write(tmp_path / "f.jsonl", header=header_line(KIND, SCHEMA + 1))
        with pytest.raises(ObsFileError) as err:
            read_records(path, KIND, SCHEMA)
        assert err.value.reason == "schema_mismatch"
        assert f"expected {SCHEMA}" in str(err.value)

    def test_refusal_is_a_value_error(self, tmp_path):
        path = tmp_path / "f.jsonl"
        path.write_text("")
        with pytest.raises(ValueError):
            read_records(str(path), KIND, SCHEMA)
