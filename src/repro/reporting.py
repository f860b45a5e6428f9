"""The common report envelope shared by every JSON report kind.

Four subsystems emit run-level JSON reports -- compression
(:class:`~repro.pipeline.report.PipelineReport`), batch verification
(:class:`~repro.analysis.batch.VerificationReport`), failure sweeps
(:class:`~repro.failures.sweep.FailureReport`) and change-impact sweeps
(:class:`~repro.delta.sweep.DeltaReport`; both views of
:class:`~repro.pipeline.perturb.PerturbationReport`).  Each grew its own
wire format PR by PR; consumers (CI gates, benchmarks, the artifact
store, the serve API) had to know which class wrote a given file before
they could read it.

:class:`ReportEnvelope` is the shared base: every report now serialises
a common envelope --

* ``schema_version`` -- the cross-report schema revision (bumped when
  the *envelope* changes; each report keeps its own per-kind ``version``
  field for payload evolution);
* ``kind`` -- the registry key naming the report class;
* ``ok`` -- the report's own gate (:meth:`ReportEnvelope.ok`), so a
  consumer can pass/fail on any report without knowing its kind;
* ``generated_by`` -- the producing package and version.

and :func:`load_report` reads *any* report back by dispatching on
``kind``.  Pre-envelope reports (no ``kind`` key) still load through the
per-class ``from_json`` constructors, which tolerate the envelope keys'
absence -- the backward-compatible-upgrade discipline: new readers accept
old files, old readers ignore the new keys.
"""

from __future__ import annotations

import bisect
import copy
import dataclasses
import importlib
import io
import json
from typing import Dict, Iterator, List, Optional, Type

#: Cross-report envelope schema revision.
REPORT_SCHEMA_VERSION = 2

#: Stamped into every report so a file names its producer.
GENERATED_BY = "repro-bonsai 1.0.0"

#: ``kind`` -> ``"module:Class"`` path of its report class, imported on
#: first use (like :data:`repro.pipeline.core.CLASS_TASKS`) so this module
#: stays dependency-free.
REPORT_KINDS: Dict[str, str] = {
    "compression": "repro.pipeline.report:PipelineReport",
    "verification": "repro.analysis.batch:VerificationReport",
    "failures": "repro.failures.sweep:FailureReport",
    "delta": "repro.delta.sweep:DeltaReport",
}


class ReportEnvelope:
    """Mixin giving a report class the shared envelope.

    Subclasses set the class attribute ``kind`` (the registry key) and
    implement :meth:`ok`; :meth:`envelope_dict` is what their
    ``to_dict`` merges in, and :meth:`strip_envelope` is what their
    ``from_dict`` uses to drop the envelope keys before rebuilding the
    dataclass.
    """

    #: Registry key; subclasses must override.
    kind: str = ""

    #: The keys the envelope contributes to ``to_dict`` output.
    ENVELOPE_KEYS = ("schema_version", "kind", "ok", "generated_by",
                     "obs_metrics", "trace_summary")

    def ok(self) -> bool:
        """The report-level gate: True when the run passed its checks."""
        raise NotImplementedError

    def attach_observability(
        self, metrics_block=None, trace_summary=None, executor_selected: str = ""
    ) -> None:
        """Stamp run-level telemetry (counter deltas, gauges, histogram
        summaries, optional trace hotspots) onto the envelope; emitted by
        :meth:`envelope_dict` when present.  Stored in ``__dict__`` so
        frozen/slotted report dataclasses need no new fields.
        ``executor_selected`` (what the ``"auto"`` executor chose) goes
        into :meth:`executor_line` only, never into the JSON."""
        if metrics_block is not None:
            self.__dict__["_obs_metrics"] = metrics_block
        if trace_summary is not None:
            self.__dict__["_trace_summary"] = trace_summary
        if executor_selected:
            self.__dict__["_executor_selected"] = executor_selected

    def executor_line(self, detail: str = "") -> str:
        """The summary's executor line: the requested executor and, when
        the fan-out chose for itself, what ran and why."""
        selected = self.__dict__.get("_executor_selected")
        if selected:
            return f"executor: {self.executor} -> {selected}"
        return f"executor: {self.executor} (workers={self.workers}{detail})"

    def envelope_dict(self) -> Dict[str, object]:
        envelope: Dict[str, object] = {
            "schema_version": REPORT_SCHEMA_VERSION,
            "kind": self.kind,
            "ok": bool(self.ok()),
            "generated_by": GENERATED_BY,
        }
        obs_metrics = self.__dict__.get("_obs_metrics")
        if obs_metrics is not None:
            envelope["obs_metrics"] = obs_metrics
        trace_summary = self.__dict__.get("_trace_summary")
        if trace_summary is not None:
            envelope["trace_summary"] = trace_summary
        return envelope

    @classmethod
    def strip_envelope(cls, data: Dict) -> Dict:
        """A copy of ``data`` without the envelope keys (tolerates their
        absence, so pre-envelope report files keep loading)."""
        payload = dict(data)
        for key in cls.ENVELOPE_KEYS:
            payload.pop(key, None)
        return payload


class StreamingReport:
    """Mixin: incremental record aggregation with optional disk spill.

    The sweep engines historically collected every per-class record in
    memory and built the report at the end; on fat-tree k=16 / wan-1000
    the records *are* the peak RSS.  This mixin gives a report the
    streaming path instead:

    * :meth:`merge_partial` folds one ``(class index, record)`` in as it
      arrives off the pool, keeping ``records`` ordered by class index
      (completion order never leaks into the output -- streamed reports
      stay bit-identical to serial ones);
    * :meth:`attach_spill` redirects merged records to a
      :class:`~repro.pipeline.stream.RecordSpill` JSONL file, so the
      driver holds O(1) records; :meth:`iter_records` re-reads them one
      at a time, in class order, whenever an aggregate or serialisation
      needs them;
    * :meth:`to_json` (:meth:`write_to` / :meth:`write_json` into a
      file) writes the report record by record, in one layout whether it
      spilled or not -- plain JSON, loadable by the ordinary ``from_json``.

    Aggregates in the report classes iterate :meth:`iter_records` (and
    count via :meth:`record_count`) instead of touching ``self.records``
    directly, so both paths share one implementation.

    The wire format is shared too: a report kind (a dataclass that is
    also a :class:`ReportEnvelope`) supplies :meth:`aggregate`, its
    ``to_dict`` block of run-level numbers, and
    :meth:`record_from_payload`, which rebuilds one record from its JSON
    payload; :meth:`to_dict` / :meth:`from_dict` do the rest.
    """

    def attach_spill(self, spill) -> None:
        """Redirect subsequently merged records to ``spill``."""
        self.__dict__["_spill"] = spill

    @property
    def spill(self):
        """The attached :class:`RecordSpill`, or ``None``."""
        return self.__dict__.get("_spill")

    def merge_partial(self, index: int, record) -> None:
        """Fold in one per-class record as it streams off the pool."""
        spill = self.spill
        if spill is not None:
            spill.append(index, self.record_payload(record))
            return
        order = self.__dict__.setdefault("_merge_order", [])
        position = bisect.bisect_left(order, index)
        order.insert(position, index)
        self.records.insert(position, record)

    def iter_records(self) -> Iterator:
        """Every record, in class order, one at a time (spilled records
        are re-read from disk, not materialised together)."""
        yield from self.records
        spill = self.spill
        if spill is not None:
            for _, payload in spill:
                yield self.record_from_payload(payload)

    def record_count(self) -> int:
        spill = self.spill
        return len(self.records) + (len(spill) if spill is not None else 0)

    def record_payload(self, record) -> Dict:
        """One record's JSON payload (what ``to_dict`` emits per record)."""
        return dataclasses.asdict(record)

    @classmethod
    def record_from_payload(cls, payload: Dict):
        """Rebuild one record from :meth:`record_payload` output."""
        raise NotImplementedError

    def records_payload(self) -> List[Dict]:
        return [self.record_payload(record) for record in self.iter_records()]

    def aggregate(self) -> Dict[str, object]:
        """The run-level ``aggregate`` block of :meth:`to_dict`."""
        raise NotImplementedError

    def to_dict(self, include_records: bool = True) -> Dict:
        # ``dataclasses.asdict`` but the records, which are never walked here.
        data: Dict[str, object] = {
            spec.name: copy.deepcopy(getattr(self, spec.name))
            for spec in dataclasses.fields(self)
            if spec.name != "records"
        }
        if include_records:
            data["records"] = self.records_payload()
        data.update(self.envelope_dict())
        data["aggregate"] = self.aggregate()
        return data

    def to_json(self, indent: int = 2, handle=None) -> Optional[str]:
        """The report as one JSON object: returned as a string, or written
        to the open text ``handle`` (then ``None``).

        The one writer, and a streaming one: the header keys in sorted
        order, the records one at a time in class order (a spilled report
        re-reads them from disk one by one), so neither the whole dict nor
        the whole string of a report is built to write it.  The bytes are
        ``json.dumps(self.to_dict(), indent=indent, sort_keys=True)``'s.
        """
        target = io.StringIO() if handle is None else handle
        header = self.to_dict(include_records=False)
        header["records"] = None  # written below, in its sorted place
        pad = " " * indent
        for position, key in enumerate(sorted(header)):
            target.write(f"{',' if position else '{'}\n{pad}{json.dumps(key)}: ")
            if key != "records":
                target.write(_indented(header[key], indent, pad))
                continue
            opening = "["
            for record in self.iter_records():
                payload = _indented(self.record_payload(record), indent, pad * 2)
                target.write(f"{opening}\n{pad * 2}{payload}")
                opening = ","
            target.write("[]" if opening == "[" else f"\n{pad}]")
        target.write("\n}")
        return target.getvalue() if handle is None else None

    @classmethod
    def from_dict(cls, data: Dict):
        payload = cls.strip_envelope(data)
        payload.pop("aggregate", None)
        records = [cls.record_from_payload(raw) for raw in payload.pop("records", [])]
        return cls(records=records, **payload)

    @classmethod
    def from_json(cls, text: str):
        return cls.from_dict(json.loads(text))

    def write_json(self, path: str, indent: int = 2) -> None:
        """Write the report to ``path`` (see :meth:`to_json`)."""
        with open(path, "w", encoding="utf-8") as handle:
            self.write_to(handle, indent)
            handle.write("\n")

    def write_to(self, handle, indent: int = 2) -> None:
        """Stream the report into the open text ``handle`` (:meth:`to_json`);
        ``from_json`` / :func:`load_report` read it back."""
        self.to_json(indent, handle)


def _indented(value, indent: int, pad: str) -> str:
    """``value`` as indented JSON, its lines after the first shifted by
    ``pad``: how ``json.dumps`` lays it out nested at that depth."""
    return json.dumps(value, indent=indent, sort_keys=True).replace("\n", "\n" + pad)


def registered_report_kinds() -> List[str]:
    """The report kinds :func:`load_report` reads."""
    return sorted(REPORT_KINDS)


def report_class_for(kind: str) -> Type:
    """The report class of ``kind``."""
    try:
        path = REPORT_KINDS[kind]
    except KeyError:
        known = ", ".join(sorted(REPORT_KINDS))
        raise ValueError(f"unknown report kind {kind!r}; registered: {known}") from None
    module, _, name = path.partition(":")
    return getattr(importlib.import_module(module), name)


def load_report(source):
    """Load any enveloped report, dispatching on its ``kind`` key.

    ``source`` is a JSON string or an already-parsed dict.  Raises
    :class:`ValueError` on missing/unknown ``kind`` -- pre-envelope files
    must be loaded through the specific class's ``from_json``, which is
    exactly the information their missing ``kind`` key cannot supply.
    """
    data = json.loads(source) if isinstance(source, str) else source
    if not isinstance(data, dict):
        raise ValueError(f"a report must be a JSON object, got {type(data).__name__}")
    kind = data.get("kind")
    if not kind:
        raise ValueError(
            "report has no 'kind' envelope key (pre-envelope file? "
            "load it with the specific report class's from_json)"
        )
    return report_class_for(kind).from_dict(data)
