"""Span-scoped sampling profiler with collapsed-stack flamegraph export.

A background daemon thread samples every live Python frame stack via
``sys._current_frames()`` at a fixed interval (default 5 ms, the
constructor's ``interval_ms``).  Each sample is attributed to
the deepest *trace span* open on the sampled thread (read from
:func:`repro.obs.trace.thread_stacks`), so the profile answers "which
code is hot *inside* which span" rather than just "which code is hot":

* every unique ``(span path, frame stack)`` pair accumulates a sample
  count -- exported in the standard collapsed-stack ``folded`` format
  (``span;frame;frame count``) that flamegraph tooling consumes
  directly;
* every sample credits ``interval_ms`` of CPU self-time to the deepest
  open span (``Span.cpu_ms``), which ``trace summarize --top`` reports
  alongside wall self-time.

Scope and overhead: only threads of the *coordinator* process are
sampled -- process-pool workers live in other interpreters and ship
span subtrees, not frames.  When profiling is off no profiler is built
(the CLI holds ``None``), so the ``obs_overhead`` gate is untouched.

Stack reads are GIL-atomic snapshots; a sample may occasionally land on
a span in the instant it closes, which at worst credits one interval to
a just-finished span -- noise far below the sampling resolution.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from typing import Dict, List, Optional, Tuple

#: Bumped when the profile JSONL format changes shape.
PROFILE_SCHEMA_VERSION = 1

#: Default sampling interval; ~200 Hz keeps overhead well under a
#: percent while resolving millisecond-scale spans.
DEFAULT_INTERVAL_MS = 5.0

#: Span-path label for samples taken while no trace span was open.
NO_SPAN = "<no-span>"


def _frame_label(frame) -> str:
    """``file.qualname`` -- short, stable, flamegraph-friendly."""
    code = frame.f_code
    filename = os.path.basename(code.co_filename)
    if filename.endswith(".py"):
        filename = filename[:-3]
    name = getattr(code, "co_qualname", code.co_name)
    return f"{filename}.{name}"


class SamplingProfiler:
    """The live profiler; ``start()`` spawns the sampler thread."""

    def __init__(self, interval_ms: float = DEFAULT_INTERVAL_MS):
        self.interval_ms = float(interval_ms)
        #: (span path, frame labels root->leaf) -> sample count.
        self.samples: Dict[Tuple[str, Tuple[str, ...]], int] = {}
        self.sample_count = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None
        self._lock = threading.Lock()

    # -- lifecycle ---------------------------------------------------------

    def active(self) -> bool:
        return self._thread is not None

    def start(self) -> "SamplingProfiler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-profiler", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> "SamplingProfiler":
        thread = self._thread
        if thread is None:
            return self
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None
        return self

    def __enter__(self) -> "SamplingProfiler":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- sampling ----------------------------------------------------------

    def _run(self) -> None:
        from repro.obs import trace

        interval_s = self.interval_ms / 1000.0
        own_ident = threading.get_ident()
        while not self._stop.wait(interval_s):
            frames = sys._current_frames()
            stacks = trace.thread_stacks()
            with self._lock:
                for ident, frame in frames.items():
                    if ident == own_ident:
                        continue
                    span_stack = stacks.get(ident)
                    if span_stack:
                        span = span_stack[-1]
                        span.cpu_ms += self.interval_ms
                        span_path = ";".join(s.name for s in span_stack)
                    else:
                        span_path = NO_SPAN
                    labels: List[str] = []
                    while frame is not None:
                        labels.append(_frame_label(frame))
                        frame = frame.f_back
                    labels.reverse()
                    key = (span_path, tuple(labels))
                    self.samples[key] = self.samples.get(key, 0) + 1
                    self.sample_count += 1

    # -- export ------------------------------------------------------------

    def records(self) -> List[Dict[str, object]]:
        """One record per unique (span path, stack), deterministic order."""
        with self._lock:
            items = sorted(self.samples.items())
        return [
            {"span": span_path, "stack": list(stack), "count": count}
            for (span_path, stack), count in items
        ]

    def folded(self) -> List[str]:
        """Collapsed-stack lines: ``span;frame;frame count``."""
        return folded_lines(self.records())


def folded_lines(records: List[Dict[str, object]]) -> List[str]:
    """Render profile records in the collapsed-stack ``folded`` format
    flamegraph tools consume: semicolon-joined frames, space, count."""
    lines: List[str] = []
    for record in records:
        frames = [str(record.get("span") or NO_SPAN)]
        frames.extend(str(label) for label in record.get("stack") or [])
        lines.append(f"{';'.join(frames)} {int(record['count'])}")
    return lines


# -- JSONL files -----------------------------------------------------------


def write_jsonl(
    path: str,
    profiler: SamplingProfiler,
    context: Optional[Dict[str, object]] = None,
) -> None:
    """Header line plus one line per unique sampled stack."""
    from repro.obs.jsonl import header_line

    extra: Dict[str, object] = {
        "interval_ms": profiler.interval_ms,
        "sample_count": profiler.sample_count,
    }
    if context:
        extra.update(context)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(header_line("profile", PROFILE_SCHEMA_VERSION, extra) + "\n")
        for record in profiler.records():
            handle.write(json.dumps(record, sort_keys=True) + "\n")


def read_jsonl(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Validate and load ``(header, stack records)`` from a profile file."""
    from repro.obs.jsonl import ObsFileError, read_records

    header, records = read_records(path, "profile", PROFILE_SCHEMA_VERSION)
    for record in records:
        if "stack" not in record or "count" not in record:
            raise ObsFileError(
                path, "missing_field",
                f"profile record missing 'stack'/'count': {record!r:.120}",
            )
    return header, records


def summary(records: List[Dict[str, object]], top: int = 10) -> List[Dict[str, object]]:
    """Top leaf frames by sample count (the profile's hotspot view)."""
    leaves: Dict[str, int] = {}
    for record in records:
        stack = record.get("stack") or []
        leaf = str(stack[-1]) if stack else NO_SPAN
        leaves[leaf] = leaves.get(leaf, 0) + int(record["count"])
    ranked = sorted(leaves.items(), key=lambda item: (-item[1], item[0]))
    return [{"frame": frame, "samples": count} for frame, count in ranked[:top]]
