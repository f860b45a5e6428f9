"""Golden failure/delta reports: every executor reproduces the recorded run.

``tests/golden/*.json`` hold timing-scrubbed ``to_dict()`` output of
failure and change sweeps on all five netgen families at default size,
written by the code *before* the sweeps were merged onto one perturbation
engine.  Serial, process (classes limited to 7 under 4 workers, so the
pool's planner must split every class into sub-class chunks),
the default ``"auto"`` executor made to fork after its two-class probe
(the other five classes split the same way) and spilled runs must all
reproduce them key for key.

Regenerate (only when a report's content is *meant* to change):
``PYTHONPATH=src python tests/test_golden_reports.py``.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.delta import DeltaSweep
from repro.failures import FailureSweep
from repro.netgen.changes import default_change_steps, generated_change_script
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology

GOLDEN = Path(__file__).parent / "golden"

#: Keys that legitimately differ run to run (wall clock, memory, telemetry).
_SCRUBBED = ("incremental_speedup", "peak_rss_mb", "obs_metrics", "trace_summary",
             "generated_by")

#: Classes the process mode is limited to: fewer than ``2 * workers``, so
#: every class is split into sub-class chunks and re-merged.
SPLIT_LIMIT = 7
SPLIT_WORKERS = 4

FAMILIES = sorted(TOPOLOGY_FAMILIES)

#: ``case name -> (kind, family, sweep kwargs)``.
CASES = {
    **{f"failures-{family}-k1": ("failures", family, dict(k=1)) for family in FAMILIES},
    **{
        f"failures-{family}-k2-sample12": ("failures", family, dict(k=2, sample=12, seed=1))
        for family in ("mesh", "wan")
    },
    "failures-ring-k1-nodes": ("failures", "ring", dict(k=1, include_nodes=True)),
    **{
        f"delta-{family}-seed{seed}": ("delta", family, dict(seed=seed))
        for family in FAMILIES
        for seed in (0, 1)
    },
}

MODES = {
    "serial": dict(executor="serial"),
    "split": dict(executor="process", workers=SPLIT_WORKERS, limit=SPLIT_LIMIT),
    "auto": dict(executor="auto", workers=SPLIT_WORKERS, limit=SPLIT_LIMIT),
    "spill": dict(executor="serial", spill=True),
}


def scrub(value, drop=()):
    """``value`` without timing/telemetry keys (and ``drop``), recursively."""
    if isinstance(value, dict):
        return {
            key: scrub(item, drop)
            for key, item in value.items()
            if not key.endswith("seconds") and key not in _SCRUBBED and key not in drop
        }
    if isinstance(value, list):
        return [scrub(item, drop) for item in value]
    return value


def run_case(name: str, **mode):
    kind, family, kwargs = CASES[name]
    network = build_topology(family)
    if kind == "failures":
        return FailureSweep(network, **kwargs, **mode).run()
    script = generated_change_script(
        network, family, steps=default_change_steps(family), seed=kwargs["seed"]
    )
    return DeltaSweep(network, script=script, **mode).run()


def load_golden(name: str) -> dict:
    return json.loads((GOLDEN / f"{name}.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("mode", sorted(MODES))
@pytest.mark.parametrize("name", sorted(CASES))
def test_report_matches_golden(name, mode, tmp_path, request):
    options = dict(MODES[mode])
    if options.get("spill"):
        options["spill_path"] = str(tmp_path / "records.jsonl")
    if mode == "auto":
        request.getfixturevalue("always_fork")
    report = run_case(name, **options)
    expected = load_golden(name)
    drop = ["executor", "workers"]
    if mode in ("split", "auto"):
        # The golden run swept every class, this one the first few: the
        # records must match one for one; the aggregates are functions of
        # the records and are pinned by the two full-sweep modes.
        assert report.num_classes < 2 * SPLIT_WORKERS
        expected["records"] = expected["records"][: report.num_classes]
        drop += ["aggregate", "num_classes"]
    assert scrub(json.loads(report.to_json()), drop) == scrub(expected, drop)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for case in sorted(CASES):
        text = json.dumps(
            scrub(json.loads(run_case(case).to_json())), indent=1, sort_keys=True
        )
        (GOLDEN / f"{case}.json").write_text(text + "\n", encoding="utf-8")
        print(f"wrote {case}.json ({len(text)} bytes)")
