"""Structured tracing: parent-linked spans that survive process pools.

Usage::

    from repro.obs import trace
    trace.begin("compress")
    with trace.span("compress", cls="dc1"):
        ...
    root = trace.end()
    trace.write_jsonl("run.jsonl", root, context={"command": "compress"})

A span records its name, string tags, wall time and the registry
counter delta that accrued while it was open (inclusive of children;
``self_metrics`` subtracts the children's share).  When tracing is
disabled -- the default -- :func:`span` returns a shared no-op context
manager: one global check, no allocation.

**Pool propagation.**  Spans cannot cross process boundaries live, so
work units run under :func:`capture_unit`: the worker opens a detached
root span (and, in process pools, snapshots its local registry), runs
the unit, and ships the serialized span subtree + counter delta back
with the result.  The coordinator buffers the captures and attaches
them *sorted by class index* at the end of the run, so the final tree
is bit-identical across the serial, process and auto executors
regardless of completion order.

**File format.**  ``write_jsonl`` emits one header line
(``schema_version``/``kind``/``generated_by`` plus run context) followed
by one line per span in pre-order, each carrying a deterministic
pre-order ``id`` and its ``parent`` id -- so the (id, parent, name,
tags) skeleton of a trace file is reproducible byte for byte.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Tuple

from repro.obs import metrics

#: Bumped when the JSONL trace format changes shape.
TRACE_SCHEMA_VERSION = 1

_ENABLED = False
_ROOT: Optional["Span"] = None
_TLS = threading.local()

#: Every thread's live span stack, keyed by thread ident, so the sampling
#: profiler can attribute a stack sample to the deepest open span of the
#: thread it sampled.  Thread-locals are unreadable cross-thread; this
#: registry shares the *same list objects* as ``_TLS.stack``, and single
#: reads of a list under the GIL are safe without a lock.
_THREAD_STACKS: Dict[int, List["Span"]] = {}


class Span:
    """One timed, tagged node in the trace tree."""

    __slots__ = (
        "name", "tags", "duration_ms", "cpu_ms", "children", "metrics",
        "_t0", "_counters0",
    )

    def __init__(self, name: str, tags: Optional[Dict[str, object]] = None):
        self.name = name
        self.tags: Dict[str, object] = tags or {}
        self.duration_ms: float = 0.0
        #: CPU self-time credited by the sampling profiler (sample count
        #: times sampling interval); stays 0.0 when no profiler ran.
        self.cpu_ms: float = 0.0
        self.children: List[Span] = []
        #: Counter delta accrued while the span was open (inclusive).
        self.metrics: Dict[str, float] = {}
        self._t0: float = 0.0
        self._counters0: Dict[str, float] = {}

    # -- lifecycle ---------------------------------------------------------

    def _open(self) -> None:
        self._counters0 = metrics.snapshot_counters()
        self._t0 = time.perf_counter()

    def _close(self) -> None:
        self.duration_ms = (time.perf_counter() - self._t0) * 1000.0
        self.metrics = metrics.counters_delta(self._counters0)

    # -- derived views -----------------------------------------------------

    def self_ms(self) -> float:
        """Wall time not attributed to any child span."""
        return max(0.0, self.duration_ms - sum(c.duration_ms for c in self.children))

    def self_metrics(self) -> Dict[str, float]:
        """Counter delta not attributed to any child span."""
        own = dict(self.metrics)
        for child in self.children:
            for name, amount in child.metrics.items():
                remaining = own.get(name, 0) - amount
                if remaining:
                    own[name] = remaining
                else:
                    own.pop(name, None)
        return own

    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "tags": self.tags,
            "dur_ms": self.duration_ms,
            "cpu_ms": self.cpu_ms,
            "metrics": self.metrics,
            "children": [child.to_dict() for child in self.children],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        span = cls(str(data["name"]), dict(data.get("tags") or {}))
        span.duration_ms = float(data.get("dur_ms") or 0.0)
        span.cpu_ms = float(data.get("cpu_ms") or 0.0)
        span.metrics = dict(data.get("metrics") or {})
        span.children = [cls.from_dict(child) for child in data.get("children") or []]
        return span

    def structure(self) -> Tuple:
        """The deterministic skeleton -- (name, sorted tags, children
        structures) -- used by the cross-executor parity tests."""
        tags = tuple(sorted((str(k), str(v)) for k, v in self.tags.items()))
        return (self.name, tags, tuple(child.structure() for child in self.children))

    def walk(self) -> Iterator["Span"]:
        yield self
        for child in self.children:
            yield from child.walk()


class _NullSpan:
    """Shared no-op context manager returned while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


def _stack() -> List[Span]:
    stack = getattr(_TLS, "stack", None)
    if stack is None:
        stack = _TLS.stack = []
        _THREAD_STACKS[threading.get_ident()] = stack
    return stack


def thread_stacks() -> Dict[int, List[Span]]:
    """The live per-thread span stacks (profiler read surface)."""
    return _THREAD_STACKS


def enabled() -> bool:
    return _ENABLED


def active() -> bool:
    """True when a trace is being collected (alias of :func:`enabled`)."""
    return _ENABLED


def begin(name: str = "run", /, **tags: object) -> Span:
    """Start collecting a trace; the returned span is the tree root."""
    global _ENABLED, _ROOT
    root = Span(name, dict(tags))
    root._open()
    _ROOT = root
    _stack().clear()
    _stack().append(root)
    _ENABLED = True
    return root


def end() -> Optional[Span]:
    """Stop collecting and return the finished root span."""
    global _ENABLED, _ROOT
    root = _ROOT
    if root is not None:
        root._close()
    _ENABLED = False
    _ROOT = None
    _stack().clear()
    return root


class _SpanContext:
    """Class-based context manager (cheaper than a generator) that opens
    a child span of the current one on enter and closes it on exit."""

    __slots__ = ("_node",)

    def __init__(self, node: Span):
        self._node = node

    def __enter__(self) -> Span:
        node = self._node
        stack = _stack()
        if stack:
            stack[-1].children.append(node)
        node._open()
        stack.append(node)
        return node

    def __exit__(self, *exc) -> None:
        _stack().pop()
        self._node._close()


def span(name: str, /, **tags: object):
    """Open a child span of the current one; a shared no-op when
    tracing is disabled (one global check, no allocation)."""
    if not _ENABLED:
        return _NULL_SPAN
    return _SpanContext(Span(name, dict(tags)))


def current() -> Optional[Span]:
    stack = _stack()
    return stack[-1] if stack else None


def attach(span_dict: Dict[str, object]) -> None:
    """Graft a serialized subtree under the current span (coordinator
    side of pool propagation).  No-op when tracing is disabled."""
    if not _ENABLED:
        return
    stack = _stack()
    if stack:
        stack[-1].children.append(Span.from_dict(span_dict))


@contextmanager
def capture_unit(capture: bool, ship_metrics: bool, name: str = "class", /, **tags: object):
    """Run one work unit, capturing its span subtree and/or counter delta.

    Yields a dict the caller ships back with the unit result:
    ``{"span": <span dict or None>, "metrics": <counter delta or None>}``.
    ``capture`` turns on span collection for the unit (enabling tracing
    locally inside a pool worker whose process never saw ``begin()``);
    ``ship_metrics`` snapshots the local registry so process workers can
    send their counter increments home.  In-process executors pass
    ``ship_metrics=False`` -- they already increment the shared registry,
    and merging the delta again would double count.
    """
    global _ENABLED
    blob: Dict[str, object] = {"span": None, "metrics": None}
    if not capture and not ship_metrics:
        yield blob
        return
    counters_before = metrics.snapshot_counters() if ship_metrics else None
    root: Optional[Span] = None
    was_enabled = _ENABLED
    stack = _stack()
    depth = len(stack)
    if capture:
        root = Span(name, dict(tags))
        root._open()
        stack.append(root)
        _ENABLED = True
    try:
        yield blob
    finally:
        if capture:
            del stack[depth:]
            root._close()
            _ENABLED = was_enabled
            blob["span"] = root.to_dict()
        if ship_metrics:
            blob["metrics"] = metrics.counters_delta(counters_before)


# -- JSONL files -----------------------------------------------------------


def write_jsonl(path: str, root: Span, context: Optional[Dict[str, object]] = None) -> None:
    """One header line, then every span pre-order with deterministic ids."""
    from repro.reporting import GENERATED_BY

    header: Dict[str, object] = {
        "schema_version": TRACE_SCHEMA_VERSION,
        "kind": "trace",
        "generated_by": GENERATED_BY,
    }
    if context:
        header.update(context)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(header, sort_keys=True) + "\n")
        next_id = 0

        def emit(span: Span, parent: Optional[int]) -> None:
            nonlocal next_id
            span_id = next_id
            next_id += 1
            handle.write(json.dumps({
                "id": span_id,
                "parent": parent,
                "name": span.name,
                "tags": span.tags,
                "dur_ms": round(span.duration_ms, 3),
                "self_ms": round(span.self_ms(), 3),
                "cpu_ms": round(span.cpu_ms, 3),
                "metrics": span.metrics,
            }, sort_keys=True) + "\n")
            for child in span.children:
                emit(child, span_id)

        emit(root, None)


def read_jsonl(path: str) -> Tuple[Dict[str, object], Span]:
    """Validate and load a trace file back into (header, root span).

    Shares the paranoid posture of :mod:`repro.obs.jsonl`: truncated,
    corrupt or schema-mismatched files raise
    :class:`~repro.obs.jsonl.ObsFileError` -- never a partial tree.
    """
    from repro.obs.jsonl import ObsFileError, read_records

    header, records = read_records(path, "trace", TRACE_SCHEMA_VERSION)
    spans: Dict[int, Span] = {}
    root: Optional[Span] = None
    for record in records:
        if "name" not in record or "id" not in record:
            raise ObsFileError(
                path, "missing_field",
                f"span record missing 'id'/'name': {record!r:.120}",
            )
        span_ = Span(str(record["name"]), dict(record.get("tags") or {}))
        span_.duration_ms = float(record.get("dur_ms") or 0.0)
        span_.cpu_ms = float(record.get("cpu_ms") or 0.0)
        span_.metrics = dict(record.get("metrics") or {})
        spans[int(record["id"])] = span_
        parent = record.get("parent")
        if parent is None:
            if root is not None:
                raise ObsFileError(path, "multiple_roots", "trace file has multiple roots")
            root = span_
        else:
            if int(parent) not in spans:
                raise ObsFileError(
                    path, "dangling_parent",
                    f"span {record['id']} references unknown parent {parent}",
                )
            spans[int(parent)].children.append(span_)
    if root is None:
        raise ObsFileError(path, "no_root", "trace file has no root span")
    return header, root


# -- summaries -------------------------------------------------------------


def hotspots(root: Span, top: int = 10) -> List[Dict[str, object]]:
    """Top span names by aggregate self time (plus sampled CPU self-time
    when a profiler ran alongside the trace)."""
    totals: Dict[str, Dict[str, float]] = {}
    for node in root.walk():
        entry = totals.setdefault(
            node.name, {"count": 0, "total_ms": 0.0, "self_ms": 0.0, "cpu_ms": 0.0}
        )
        entry["count"] += 1
        entry["total_ms"] += node.duration_ms
        entry["self_ms"] += node.self_ms()
        entry["cpu_ms"] += node.cpu_ms
    ranked = sorted(totals.items(), key=lambda item: (-item[1]["self_ms"], item[0]))
    return [
        {
            "name": name,
            "count": int(entry["count"]),
            "total_ms": round(entry["total_ms"], 3),
            "self_ms": round(entry["self_ms"], 3),
            "cpu_ms": round(entry["cpu_ms"], 3),
        }
        for name, entry in ranked[:top]
    ]


def summary(root: Span, top: int = 10) -> Dict[str, object]:
    """The compact block embedded in report envelopes."""
    return {
        "schema_version": TRACE_SCHEMA_VERSION,
        "root": root.name,
        "total_ms": round(root.duration_ms, 3),
        "span_count": sum(1 for _ in root.walk()),
        "hotspots": hotspots(root, top),
    }


def tree_lines(root: Span, max_depth: int = 4, max_children: int = 8) -> List[str]:
    """A human-readable span tree for ``trace summarize``."""
    lines: List[str] = []

    def render(span: Span, depth: int) -> None:
        tags = " ".join(f"{k}={v}" for k, v in sorted(span.tags.items(), key=lambda kv: str(kv[0])))
        label = f"{span.name}" + (f" [{tags}]" if tags else "")
        cpu = f", cpu {span.cpu_ms:.1f}ms" if span.cpu_ms else ""
        lines.append(
            f"{'  ' * depth}{label}  {span.duration_ms:.1f}ms"
            f" (self {span.self_ms():.1f}ms{cpu})"
        )
        if depth + 1 > max_depth:
            if span.children:
                lines.append(f"{'  ' * (depth + 1)}... {len(span.children)} children elided")
            return
        for index, child in enumerate(span.children):
            if index >= max_children:
                lines.append(f"{'  ' * (depth + 1)}... {len(span.children) - index} more")
                break
            render(child, depth + 1)

    render(root, 0)
    return lines
