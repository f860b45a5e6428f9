"""Structured event stream: what the pipeline is *doing*, as it does it.

Metrics say how much, traces say how long; events say *what happened,
when* -- a schema-versioned stream of typed records (sweep start/end,
executor selection, per-class completion, pool failures, spills,
incremental-to-scratch fallbacks, cache overflows, store loads and
refusals) that drives three consumers:

* a JSONL file (``--events PATH``) for offline inspection;
* a live progress meter (``--progress``) whose ETA comes from the class
  completion rate;
* a bounded in-memory :class:`EventLog` behind ``repro.serve``'s
  ``/events`` long-poll endpoint.

The bus is a plain subscriber list.  :func:`emit` starts with a single
truthiness check, so with no subscribers (the default) an emission site
costs one global load and one jump -- the ``obs_overhead`` gate's
budget is untouched.  Event types are dotted slugs (``class.completed``,
``store.refused``); every event carries ``seq`` (monotonic per process)
and ``ts`` (epoch seconds) assigned centrally by the bus so all
subscribers observe the same stream.

Scope: events are coordinator-side.  Worker-process emissions
(e.g. a scratch fallback inside a process-pool worker) stay in the
worker; the coordinator-side stream is identical across executors for
everything it owns -- notably per-class completions, which the parity
tests check across serial, process and auto runs.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Bumped when the JSONL event format changes shape.
EVENT_SCHEMA_VERSION = 1

_SUBSCRIBERS: List[Callable[[Dict[str, object]], None]] = []
_LOCK = threading.Lock()
_SEQ = 0


def enabled() -> bool:
    """True when at least one subscriber is attached (emission sites may
    use this to skip building expensive event payloads)."""
    return bool(_SUBSCRIBERS)


def emit(etype: str, **fields: object) -> None:
    """Publish one event to every subscriber.  Near-free when nobody
    listens: one global truthiness check, no allocation."""
    if not _SUBSCRIBERS:
        return
    global _SEQ
    with _LOCK:
        _SEQ += 1
        event: Dict[str, object] = {"seq": _SEQ, "ts": round(time.time(), 6), "type": etype}
        event.update(fields)
        subscribers = list(_SUBSCRIBERS)
    for subscriber in subscribers:
        subscriber(event)


def subscribe(subscriber: Callable[[Dict[str, object]], None]) -> Callable:
    with _LOCK:
        if subscriber not in _SUBSCRIBERS:
            _SUBSCRIBERS.append(subscriber)
    return subscriber


def unsubscribe(subscriber: Callable[[Dict[str, object]], None]) -> None:
    with _LOCK:
        if subscriber in _SUBSCRIBERS:
            _SUBSCRIBERS.remove(subscriber)


def reset() -> None:
    """Drop all subscribers and restart the sequence (test isolation)."""
    global _SEQ
    with _LOCK:
        _SUBSCRIBERS.clear()
        _SEQ = 0


# -- JSONL sink ------------------------------------------------------------


class EventWriter:
    """Subscriber that appends every event as one JSON line.

    The header line is written on open, every event line is flushed
    immediately (an event file is most useful when the run died), and
    :meth:`close` unsubscribes and closes the handle.
    """

    def __init__(self, path: str, context: Optional[Dict[str, object]] = None):
        from repro.obs.jsonl import header_line

        self.path = str(path)
        self._handle = open(path, "w", encoding="utf-8")
        self._handle.write(header_line("events", EVENT_SCHEMA_VERSION, context) + "\n")
        self._handle.flush()
        self._lock = threading.Lock()
        subscribe(self)

    def __call__(self, event: Dict[str, object]) -> None:
        with self._lock:
            if self._handle.closed:
                return
            self._handle.write(json.dumps(event, sort_keys=True) + "\n")
            self._handle.flush()

    def close(self) -> None:
        unsubscribe(self)
        with self._lock:
            if not self._handle.closed:
                self._handle.close()

    def __enter__(self) -> "EventWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_jsonl(path: str) -> Tuple[Dict[str, object], List[Dict[str, object]]]:
    """Validate and load ``(header, events)`` from an event file,
    refusing truncated/corrupt/mismatched files like every obs reader."""
    from repro.obs.jsonl import ObsFileError, read_records

    header, records = read_records(path, "events", EVENT_SCHEMA_VERSION)
    for record in records:
        if "type" not in record or "seq" not in record:
            raise ObsFileError(
                path, "missing_field",
                f"event record missing 'type'/'seq': {record!r:.120}",
            )
    return header, records


# -- bounded in-memory log (serve's /events) -------------------------------


#: Events an :class:`EventLog` keeps unless its ``capacity`` says otherwise.
DEFAULT_EVENT_BUFFER = 1024


class EventLog:
    """Bounded ring of recent events with a cursor-based long poll.

    Each retained event keeps its bus ``seq`` as the cursor; clients ask
    for "everything after cursor N" and block up to ``timeout`` seconds
    for fresh events.  When the ring overflows, the oldest events drop --
    a client whose cursor fell off the tail simply resumes from the
    oldest retained event (``dropped`` tells it how many it missed).
    """

    def __init__(self, capacity: Optional[int] = None):
        self.capacity = capacity if capacity and capacity > 0 else DEFAULT_EVENT_BUFFER
        self._events: List[Dict[str, object]] = []
        self._dropped = 0
        self._cond = threading.Condition()
        subscribe(self)

    def __call__(self, event: Dict[str, object]) -> None:
        with self._cond:
            self._events.append(event)
            if len(self._events) > self.capacity:
                excess = len(self._events) - self.capacity
                del self._events[:excess]
                self._dropped += excess
            self._cond.notify_all()

    def close(self) -> None:
        unsubscribe(self)

    def latest_cursor(self) -> int:
        with self._cond:
            return int(self._events[-1]["seq"]) if self._events else 0

    def since(
        self, cursor: int = 0, timeout: float = 0.0, limit: int = 500
    ) -> Dict[str, object]:
        """Events with ``seq > cursor`` (waiting up to ``timeout`` seconds
        for at least one), the next cursor, and the drop count."""
        deadline = time.monotonic() + max(0.0, timeout)
        with self._cond:
            while True:
                fresh = [e for e in self._events if int(e["seq"]) > cursor]
                if fresh or timeout <= 0:
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    break
                self._cond.wait(remaining)
            fresh = fresh[:limit]
            next_cursor = int(fresh[-1]["seq"]) if fresh else max(
                cursor, self.latest_cursor_locked()
            )
            return {
                "events": fresh,
                "cursor": next_cursor,
                "dropped": self._dropped,
            }

    def latest_cursor_locked(self) -> int:
        return int(self._events[-1]["seq"]) if self._events else 0


# -- live progress meter ---------------------------------------------------


class ProgressMeter:
    """Subscriber that renders a one-line live meter on ``stream``.

    ``sweep.start`` says how many classes the sweep runs and every
    ``class.completed`` advances the meter by one: with an observed rate
    of ``done / elapsed``, the ETA is ``(total - done) / rate``.
    """

    def __init__(self, stream=None, min_interval: float = 0.1):
        self.stream = stream if stream is not None else sys.stderr
        #: Minimum seconds between redraws.
        self.min_interval = min_interval
        self._lock = threading.Lock()
        self._reset("")
        subscribe(self)

    def _reset(self, task: str) -> None:
        self.task = task
        self.total_classes = 0
        self.done_classes = 0
        self._t0 = time.monotonic()
        self._last_render = 0.0

    def __call__(self, event: Dict[str, object]) -> None:
        etype = event.get("type")
        with self._lock:
            if etype == "sweep.start":
                self._reset(str(event.get("task", "")))
                self.total_classes = int(event.get("classes") or 0)
                self._render(force=True)
            elif etype == "class.completed":
                self.done_classes += 1
                self._render(force=self.done_classes == self.total_classes)
            elif etype == "sweep.end":
                self._render(force=True)
                self.stream.write("\n")
                self.stream.flush()

    def _render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        elapsed = now - self._t0
        done, total = self.done_classes, self.total_classes
        frac = min(1.0, done / total) if total else 0.0
        if done > 0 and elapsed > 0:
            eta = max(0.0, (total - done) * elapsed / done)
            eta_text = f"eta {eta:5.1f}s"
        else:
            eta_text = "eta   ?  "
        width = 24
        filled = int(frac * width)
        bar = "#" * filled + "-" * (width - filled)
        self.stream.write(
            f"\r{self.task or 'sweep'} [{bar}] "
            f"{self.done_classes}/{self.total_classes or '?'} classes "
            f"{frac * 100:5.1f}% {eta_text}"
        )
        self.stream.flush()

    def close(self) -> None:
        unsubscribe(self)
