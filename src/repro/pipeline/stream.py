"""JSONL record spill: the disk half of streaming report aggregation.

A sweep over a big topology produces one record per destination class,
and each record can carry hundreds of per-scenario verdict lists.  With
collect-then-merge aggregation the driver's peak RSS is the whole sweep;
with streaming aggregation (``report.merge_partial`` as results arrive)
plus a :class:`RecordSpill`, the driver holds O(1) records: each record
is serialised to one JSON line on disk the moment it arrives and re-read
one line at a time when the report aggregates or writes itself out.

An ``OSError`` writing, flushing or reading the spill (``ENOSPC``...)
is a refusal: :class:`~repro.pipeline.core.PipelineError` naming the
path and reason, a ``pipeline.spill.refused.<reason>`` count and one
``spill.refused`` event -- never a report missing records.

The spill keeps an in-memory ``(class index, byte offset, length)`` table
so iteration yields records in *class order* regardless of the order the
scheduler completed them in -- the same canonicalisation the in-memory
path gets by sorting, so spilled reports stay bit-identical to serial
ones (timings aside).
"""

from __future__ import annotations

import errno
import json
import os
import tempfile
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.pipeline.core import PipelineError


class RecordSpill:
    """An append-only JSONL file of ``(index, payload)`` records.

    Parameters
    ----------
    path:
        Where to spill.  Default: an anonymous temp file, unlinked on
        :meth:`close` (and best-effort on garbage collection).
    """

    def __init__(self, path: Optional[str] = None) -> None:
        if path is None:
            handle = tempfile.NamedTemporaryFile(
                mode="w+", encoding="utf-8", suffix=".jsonl",
                prefix="repro-spill-", delete=False,
            )
            self.path = handle.name
            self._owns_file = True
        else:
            handle = open(path, "w+", encoding="utf-8")
            self.path = str(path)
            self._owns_file = False
        self._handle = handle
        #: ``(class index, byte offset, line length)`` per appended record.
        self._entries: List[Tuple[int, int, int]] = []
        self._closed = False

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def append(self, index: int, payload: Dict) -> None:
        """Spill one record's JSON payload under its class index."""
        if self._closed:
            raise ValueError("record spill is closed")
        line = json.dumps(payload, sort_keys=True)
        try:
            self._handle.seek(0, os.SEEK_END)
            offset = self._handle.tell()
            self._handle.write(line)
            self._handle.write("\n")
        except OSError as exc:
            raise self._refuse("write", exc) from exc
        size = len(line.encode("utf-8"))
        if not self._entries:
            # One event per spill activation (per-record would be noise).
            _events.emit("spill.open", path=self.path)
        self._entries.append((index, offset, size))
        _metrics.counter("pipeline.spill_records").inc()
        _metrics.counter("pipeline.spill_bytes").inc(size + 1)

    # ------------------------------------------------------------------
    # Reading (records come back in class-index order)
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[int, Dict]]:
        """Yield ``(index, payload)`` sorted by class index, one record in
        memory at a time."""
        if self._closed:
            raise ValueError("record spill is closed")
        try:
            self._handle.flush()
            with open(self.path, "rb") as reader:
                for index, offset, length in sorted(self._entries):
                    reader.seek(offset)
                    yield index, json.loads(reader.read(length).decode("utf-8"))
        except OSError as exc:
            raise self._refuse("flush or read", exc) from exc

    def _refuse(self, action: str, exc: OSError) -> PipelineError:
        """Count, announce and build (not raise) one refusal."""
        reason = errno.errorcode.get(exc.errno, "oserror").lower()
        detail = f"cannot {action} record spill {self.path}: {reason} ({exc.strerror or exc})"
        _metrics.counter(f"pipeline.spill.refused.{reason}").inc()
        _events.emit("spill.refused", path=self.path, reason=reason, detail=detail)
        return PipelineError(detail)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Close (and, for anonymous spills, delete) the backing file."""
        if self._closed:
            return
        self._closed = True
        if self._entries:
            _events.emit("spill.close", path=self.path, records=len(self._entries))
        try:
            self._handle.close()
        finally:
            if self._owns_file:
                try:
                    os.unlink(self.path)
                except OSError:
                    pass

    def __enter__(self) -> "RecordSpill":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC timing dependent
        try:
            self.close()
        except Exception:
            pass
