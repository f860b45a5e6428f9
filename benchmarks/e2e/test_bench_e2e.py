"""Smoke test of the end-to-end benchmark (beside it, outside tier-1).

Runs ``run.py --smoke`` once and checks that every workload and metric
named in ``BENCHMARK.json`` shows up with its unit::

    python -m pytest benchmarks/e2e/test_bench_e2e.py -q
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


@pytest.fixture(scope="module")
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json", "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke_output() -> str:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    return done.stdout


def test_names_are_well_formed_and_unique(spec):
    names = [
        entry["name"] for key in ("workloads", "end_to_end", "per_layer") for entry in spec[key]
    ]
    assert all(NAME.fullmatch(name) for name in names)
    assert len(set(names)) == len(names)
    assert spec["paths"] == ["benchmarks/e2e"]
    assert any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    )


def test_every_workload_and_metric_is_printed_with_its_unit(spec, smoke_output):
    for workload in spec["workloads"]:
        assert f"== {workload['name']} (seed 1, untraced) ==" in smoke_output
        assert f"== {workload['name']} (seed 1, traced) ==" in smoke_output
    for metric in spec["end_to_end"] + spec["per_layer"]:
        # Printed as "<name>   <value> <unit>" by some pass of some workload.
        pattern = rf"^\s+{re.escape(metric['name'])}\s+\S+ {re.escape(metric['unit'])}\b"
        assert re.search(pattern, smoke_output, re.MULTILINE), metric["name"]
    assert "failed_share 0.0000" in smoke_output
    assert "FAILED" not in smoke_output


def test_result_line_of_one_pass(spec):
    for traced, key in ((0, "end_to_end"), (1, "per_layer")):
        done = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
                "compress-fattree", "--seed", "3", "--seconds", "1", "--trace", str(traced),
            ],
            cwd=ROOT, capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr[-2000:]
        result = json.loads(done.stdout.splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
        assert {name: m["unit"] for name, m in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
