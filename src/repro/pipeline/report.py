"""Aggregated results of a pipeline run (and their JSON wire format).

The pipeline streams one :class:`EcRecord` per destination equivalence
class back to the coordinator; the :class:`PipelineReport` merges them into
the run-level view used by the CLI, the scaling benchmark and CI artifacts.
Records carry the *canonical* partition (sorted groups of concrete node
names) so that two runs can be compared for bit-identical output
independently of worker scheduling, abstract node naming or process hash
seeds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, TYPE_CHECKING

from repro.config.transfer import VIRTUAL_DESTINATION
from repro.reporting import ReportEnvelope, StreamingReport

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.abstraction.bonsai import CompressionResult

#: Format version for the JSON reports uploaded as CI artifacts.
REPORT_VERSION = 1


@dataclass
class EcRecord:
    """The outcome of compressing one destination equivalence class."""

    prefix: str
    origins: List[str]
    concrete_nodes: int
    concrete_edges: int
    abstract_nodes: int
    abstract_edges: int
    iterations: int
    compression_seconds: float
    #: Canonical partition: each group is the sorted list of its concrete
    #: members' names, groups sorted by their first member.
    groups: List[List[str]]
    #: Local-preference case splitting: ``[[base_size, num_copies], ...]``.
    split_cases: List[List[int]] = field(default_factory=list)

    @classmethod
    def from_result(cls, result: "CompressionResult") -> "EcRecord":
        abstraction = result.refinement.abstraction
        groups = sorted(
            sorted(str(node) for node in group)
            for group in abstraction.groups()
            if group != frozenset({VIRTUAL_DESTINATION})
        )
        split_cases = sorted(
            [len(abstraction.concrete_nodes(base)), len(copies)]
            for base, copies in abstraction.split_groups.items()
        )
        return cls(
            prefix=str(result.equivalence_class.prefix),
            origins=sorted(str(o) for o in result.equivalence_class.origins),
            concrete_nodes=result.concrete_nodes,
            concrete_edges=result.concrete_edges,
            abstract_nodes=result.abstract_nodes,
            abstract_edges=result.abstract_edges,
            iterations=result.refinement.iterations,
            compression_seconds=result.compression_seconds,
            groups=groups,
            split_cases=split_cases,
        )

    def canonical(self) -> Tuple:
        """Everything except timings, for serial/parallel parity checks."""
        return (
            self.prefix,
            tuple(self.origins),
            self.concrete_nodes,
            self.concrete_edges,
            self.abstract_nodes,
            self.abstract_edges,
            tuple(tuple(group) for group in self.groups),
            tuple(tuple(case) for case in self.split_cases),
        )

    @property
    def node_ratio(self) -> float:
        return self.concrete_nodes / max(1, self.abstract_nodes)

    @property
    def edge_ratio(self) -> float:
        return self.concrete_edges / max(1, self.abstract_edges)


@dataclass
class PipelineReport(StreamingReport, ReportEnvelope):
    """Run-level aggregation of every per-class record.

    Records arrive either all at once (``records=[...]``) or
    incrementally through the :class:`~repro.reporting.StreamingReport`
    path (``merge_partial`` plus an optional disk spill); aggregates read
    through :meth:`iter_records` so both paths produce identical output.
    """

    kind = "compression"

    network_name: str
    executor: str
    workers: int
    batch_size: int
    num_batches: int
    num_classes: int
    encode_seconds: float
    total_seconds: float
    records: List[EcRecord] = field(default_factory=list)
    #: Optional wall-clock of a serial reference run of the same workload
    #: (filled in by the scaling benchmark to compute the speedup).
    serial_seconds: Optional[float] = None
    #: Peak resident set of the producing run in MiB, when measured
    #: (``--memory-budget`` runs and the scale benchmark fill this).
    peak_rss_mb: Optional[float] = None
    version: int = REPORT_VERSION

    # ------------------------------------------------------------------
    # Aggregates
    # ------------------------------------------------------------------
    @property
    def mean_abstract_nodes(self) -> float:
        count = self.record_count()
        if not count:
            return 0.0
        return sum(r.abstract_nodes for r in self.iter_records()) / count

    @property
    def mean_abstract_edges(self) -> float:
        count = self.record_count()
        if not count:
            return 0.0
        return sum(r.abstract_edges for r in self.iter_records()) / count

    @property
    def mean_node_ratio(self) -> float:
        count = self.record_count()
        if not count:
            return 0.0
        return sum(r.node_ratio for r in self.iter_records()) / count

    @property
    def total_compression_seconds(self) -> float:
        """CPU seconds spent compressing, summed over all classes."""
        return sum(r.compression_seconds for r in self.iter_records())

    @property
    def speedup(self) -> Optional[float]:
        """Wall-clock speedup over the serial reference run, if recorded."""
        if self.serial_seconds is None or self.total_seconds <= 0:
            return None
        return self.serial_seconds / self.total_seconds

    def canonical_records(self) -> Tuple[Tuple, ...]:
        """The canonical per-class outcomes, in prefix order."""
        return tuple(
            record.canonical()
            for record in sorted(self.iter_records(), key=lambda r: r.prefix)
        )

    def ok(self) -> bool:
        """The report-level gate: every enumerated class was compressed."""
        return self.record_count() == self.num_classes

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    @classmethod
    def record_from_payload(cls, payload: Dict) -> EcRecord:
        return EcRecord(**payload)

    def aggregate(self) -> Dict[str, object]:
        return {
            "mean_abstract_nodes": self.mean_abstract_nodes,
            "mean_abstract_edges": self.mean_abstract_edges,
            "mean_node_ratio": self.mean_node_ratio,
            "total_compression_seconds": self.total_compression_seconds,
            "speedup": self.speedup,
        }

    def to_json(self, indent: int = 2, handle=None) -> Optional[str]:
        # Defined here, not just inherited: the e2e benchmark's layer
        # ledger wraps it through this class's own ``__dict__``.
        return super().to_json(indent, handle)

    # ------------------------------------------------------------------
    # Display
    # ------------------------------------------------------------------
    def summary_lines(self) -> List[str]:
        lines = [
            f"network: {self.network_name}",
            self.executor_line(
                f", batch_size={self.batch_size}, batches={self.num_batches}"
            ),
            f"equivalence classes: {self.num_classes}",
            f"one-time encoding: {self.encode_seconds:.3f}s",
            f"wall clock: {self.total_seconds:.3f}s "
            f"(per-class CPU total {self.total_compression_seconds:.3f}s)",
            f"mean abstract size: {self.mean_abstract_nodes:.1f} nodes / "
            f"{self.mean_abstract_edges:.1f} edges "
            f"(mean node ratio {self.mean_node_ratio:.2f}x)",
        ]
        counters = (self.__dict__.get("_obs_metrics") or {}).get("counters", {})
        families = int(counters.get("abstraction.class_families", 0))
        if families:  # classes of one family share key map, inputs and base
            lines.append(f"class families: {families} ({self.record_count()} classes)")
        orbit = sorted((k[18:], int(n)) for k, n in counters.items() if "abstraction.orbit." in k)
        if orbit:  # classes that took their partition from their orbit's representative
            mapped = sum(n for how, n in orbit if how.startswith("mapped."))
            why = ", ".join(f"{n} {how}" for how, n in orbit)
            lines.append(f"class orbits: {mapped} of {self.record_count()} classes mapped ({why})")
        if self.speedup is not None:
            lines.append(
                f"speedup vs serial: {self.speedup:.2f}x "
                f"(serial {self.serial_seconds:.3f}s)"
            )
        return lines
