"""The six workloads: what each child runs, and how its answer is checked.

A workload is one input plus the driver that consumes it.  The batch
workloads are one child process per run; ``serve-mixed`` is a server
child under a closed-loop client (see :mod:`serveload`).  Reasons for
each choice are in ``README.md`` and repeated in ``BENCHMARK.json``.

Answers are checked against the hand-written ``expected.json``; the
code under test never supplies its own reference.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Iterator, List, Tuple

from harness import HERE, pipeline_cmd, python_cmd

VERIFY_POLICY = HERE / "children" / "verify_policy.py"


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``args`` are the arguments after the entry point, with ``{size}`` and
    ``{seed}`` substituted; ``entry`` names the entry point (``cli`` =
    ``python -m repro.pipeline``, ``verify_policy`` = the child script,
    ``serve`` = the server child, which takes family and size from here).
    """

    name: str
    entry: str
    family: str
    size: int
    smoke_size: int
    args: Tuple[str, ...]

    def size_for(self, smoke: bool) -> int:
        return self.smoke_size if smoke else self.size

    def argv(self, seed: int, smoke: bool) -> List[str]:
        return [a.format(size=self.size_for(smoke), seed=seed) for a in self.args]

    def command(self, seed: int, smoke: bool) -> List[str]:
        argv = self.argv(seed, smoke)
        if self.entry == "verify_policy":
            return python_cmd(str(VERIFY_POLICY), *argv)
        return pipeline_cmd(*argv)

    @property
    def setup_flags(self) -> List[str]:
        """Stops the same command after import -> generate -> encode."""
        return ["--setup-only"] if self.entry == "verify_policy" else ["--limit", "0"]

    def network(self, smoke: bool):
        """The workload's input network, for the traced pass's own checks."""
        if self.entry == "verify_policy":
            from repro.netgen import fattree_network

            return fattree_network(self.size_for(smoke), policy="prefer_bottom")
        from repro.netgen.families import build_topology

        return build_topology(self.family, self.size_for(smoke))


_SERIAL = ("--executor", "serial")
_FATTREE = ("compress", "--topo", "fattree", "--size", "{size}")

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload("compress-fattree", "cli", "fattree", 16, 4, _FATTREE + _SERIAL),
        # No executor flags: what a user gets by default (process pool).
        Workload("compress-fattree-pool", "cli", "fattree", 12, 6, _FATTREE),
        Workload("verify-policy", "verify_policy", "fattree", 10, 4, ("--size", "{size}")),
        Workload(
            "failures-fattree", "cli", "fattree", 6, 4,
            ("failures", "--family", "fattree", "--size", "{size}", "--k", "2",
             "--sample", "12", "--seed", "{seed}") + _SERIAL,
        ),
        Workload(
            "delta-wan", "cli", "wan", 10, 4,
            ("delta", "--family", "wan", "--size", "{size}", "--seed", "{seed}") + _SERIAL,
        ),
        Workload("serve-mixed", "serve", "fattree", 6, 4, ()),
    )
}


def store_save_args(family: str, size: int, store) -> List[str]:
    """``store save`` arguments: the warm baseline ``serve-mixed`` serves."""
    return [
        "store", "save", "--topo", family, "--size", str(size),
        "--store", str(store), "--executor", "serial",
    ]


# ----------------------------------------------------------------------
# Expected answers
# ----------------------------------------------------------------------
def load_expected(workload: str, smoke: bool) -> dict:
    with open(HERE / "expected.json", "r", encoding="utf-8") as handle:
        return json.load(handle)["smoke" if smoke else "full"][workload]


def _operations(report: dict) -> Iterator[Tuple[str, bool]]:
    """Every per-class operation of a report as ``(label, succeeded)``.

    An operation fails when its class timed out, when the abstract and
    concrete verdicts differ, or when an incremental re-solve differs
    from the scratch solve.
    """
    kind = report["kind"]
    for record in report["records"]:
        prefix = record["prefix"]
        if kind == "compression":
            yield prefix, record["abstract_nodes"] > 0
        elif kind == "verification":
            agrees = all(
                not (v["comparable"] and v["mismatched"]) for v in record["verdicts"]
            )
            yield prefix, agrees and not record["timed_out"]
        elif kind == "failures":
            for outcome in record["scenarios"]:
                soundness = outcome.get("soundness") or {}
                yield f"{prefix}/{outcome['scenario']}", (
                    outcome["incremental_matches_scratch"] is not False
                    and soundness.get("agrees", True)
                )
        elif kind == "delta":
            for outcome in record["steps"]:
                revalidation = outcome.get("revalidation") or {}
                yield f"{prefix}/{outcome['step']}", (
                    outcome["incremental_matches_scratch"] is not False
                    and revalidation.get("agrees", True)
                )
        else:
            raise ValueError(f"unknown report kind {kind!r}")


def report_facts(report: dict) -> dict:
    """The facts of a report that ``expected.json`` may pin."""
    kind = report["kind"]
    facts = {"kind": kind, "ok": report["ok"], "classes": len(report["records"])}
    if kind in ("compression", "verification"):
        nodes = [r["abstract_nodes"] for r in report["records"]]
        facts["abstract_nodes_mean"] = sum(nodes) / len(nodes)
    if kind == "compression":
        facts["abstract_edges_mean"] = report["aggregate"]["mean_abstract_edges"]
    elif kind == "verification":
        facts["failing_nodes"] = {
            name: totals["concrete_failed"]
            for name, totals in report["aggregate"]["property_totals"].items()
        }
    elif kind == "failures":
        facts["scenarios"] = report["num_scenarios"]
        facts["failing_nodes"] = report["aggregate"]["property_failure_counts"]
    elif kind == "delta":
        facts["steps"] = report["num_steps"]
        facts["first_breaking_change"] = report["aggregate"]["first_breaking_change"]
    return facts


def check_report(report: dict, expected: dict, seed: int) -> Tuple[int, List[str]]:
    """``(operations attempted, descriptions of the failed ones)``.

    Operations are the per-class ones plus one per expected fact; facts
    under ``"seeds"`` in ``expected.json`` apply to that seed only.
    """
    failures: List[str] = []
    attempted = 0
    for label, succeeded in _operations(report):
        attempted += 1
        if not succeeded:
            failures.append(f"class operation failed: {label}")
    facts = report_facts(report)
    pinned = {k: v for k, v in expected.items() if k != "seeds"}
    pinned.update(expected.get("seeds", {}).get(str(seed), {}))
    for key, want in pinned.items():
        attempted += 1
        if facts.get(key) != want:
            failures.append(f"{key}: expected {want!r}, got {facts.get(key)!r}")
    return attempted, failures
