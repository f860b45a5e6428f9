"""Process-global metrics registry: counters, gauges, bounded histograms.

The registry is the one place a count is kept: solver entry points,
the cross-class refinement memo and pool work bump its counters
directly, and nothing keeps a second tally beside them (a serve
instance keeps its query series in a registry of its own).  Its
counts survive process-pool workers and land in every report's
``obs_metrics``::

    from repro.obs import metrics
    metrics.counter("srp.scratch_solves").inc()
    metrics.histogram("serve.latency.verify").observe(seconds)

Design constraints, in order:

* **Near-zero overhead when disabled.**  ``disable()`` makes every
  lookup return a shared null instrument whose ``inc``/``set``/
  ``observe`` are empty methods; the enabled path is one dict lookup
  plus an attribute add.  The one exception to "one store" is the
  inner loops: the solver's transfer memo, the transfer's sender
  halves and memo overflows and the BDD specialise cache keep fast
  local counters, and :func:`absorb_cache_info` folds their deltas in
  at coarse boundaries (per solve, per specialise) -- the registry is an
  aggregation point, not an inner-loop primitive.
* **Pool-safe by snapshot/delta/merge.**  Process workers increment
  their own (fresh) registry; :func:`snapshot_counters` before a work
  unit and :func:`counters_delta` after yield a plain dict that ships
  back with the result, and the coordinator folds it in with
  :func:`merge_counters`.  The same mechanism gives trace spans their
  per-span metric deltas.
* **Bounded memory.**  Histograms keep exact ``count``/``sum``/``min``/
  ``max`` plus a fixed-size reservoir (Vitter's Algorithm R) for
  percentiles, so a histogram fed forever stays O(reservoir).  The
  reservoir RNG is seeded from the metric *name* (via ``zlib.crc32``,
  not ``hash()`` which varies with PYTHONHASHSEED), so a given sequence
  of observations reproduces bit-identically across runs.
"""

from __future__ import annotations

import random
import re
import threading
import zlib
from typing import Dict, Iterable, List, Optional, Tuple

#: Default reservoir size for bounded histograms; large enough that
#: p99 over it is stable, small enough to be free (1k floats).
DEFAULT_RESERVOIR = 1024


class Counter:
    """A monotonically increasing count (float-valued for byte sums)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """A point-in-time value (peak RSS, cache sizes)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def max(self, value: float) -> None:
        """Raise the gauge to ``value`` if it is higher (peak tracking)."""
        if value > self.value:
            self.value = float(value)


class Histogram:
    """Bounded-memory distribution: exact count/sum/min/max, reservoir
    percentiles.  Thread-safe (``observe`` under a lock -- it is called
    at query/class frequency, never in inner loops)."""

    __slots__ = ("name", "count", "sum", "min", "max", "_reservoir", "_rng", "_lock", "_size")

    def __init__(self, name: str, reservoir: int = DEFAULT_RESERVOIR):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._size = reservoir
        self._reservoir: List[float] = []
        # crc32, not hash(): stable across processes and PYTHONHASHSEED.
        self._rng = random.Random(zlib.crc32(name.encode("utf-8")))
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            self.count += 1
            self.sum += value
            if self.min is None or value < self.min:
                self.min = value
            if self.max is None or value > self.max:
                self.max = value
            if len(self._reservoir) < self._size:
                self._reservoir.append(value)
            else:
                # Algorithm R: keep each of the n observations with
                # probability size/n.
                slot = self._rng.randrange(self.count)
                if slot < self._size:
                    self._reservoir[slot] = value

    def summary(self) -> Dict[str, object]:
        with self._lock:
            sample = sorted(self._reservoir)
            count, total = self.count, self.sum
            lo, hi = self.min, self.max

        def pct(q: float) -> Optional[float]:
            if not sample:
                return None
            rank = max(0, min(len(sample) - 1, int(round(q / 100.0 * (len(sample) - 1)))))
            return sample[rank]

        return {
            "count": count,
            "sum": total,
            "min": lo,
            "max": hi,
            "mean": (total / count) if count else None,
            "p50": pct(50),
            "p95": pct(95),
            "p99": pct(99),
        }


class _NullInstrument:
    """Shared do-nothing counter/gauge/histogram used while disabled."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL = _NullInstrument()


class MetricsRegistry:
    """A named family of counters/gauges/histograms.

    One process-global instance (:data:`REGISTRY`) backs the module-level
    convenience functions; ``serve`` additionally keeps a private
    per-service registry so its lifetime counts reset with the service,
    not the process.
    """

    def __init__(self, enabled: bool = True):
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._enabled = enabled
        self._lock = threading.Lock()

    # -- instrument lookup -------------------------------------------------

    def counter(self, name: str) -> Counter:
        if not self._enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._counters.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._counters.setdefault(name, Counter(name))
        return instrument

    def gauge(self, name: str) -> Gauge:
        if not self._enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._gauges.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._gauges.setdefault(name, Gauge(name))
        return instrument

    def histogram(self, name: str, reservoir: int = DEFAULT_RESERVOIR) -> Histogram:
        if not self._enabled:
            return _NULL  # type: ignore[return-value]
        instrument = self._histograms.get(name)
        if instrument is None:
            with self._lock:
                instrument = self._histograms.setdefault(name, Histogram(name, reservoir))
        return instrument

    # -- lifecycle ---------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        """Make every instrument lookup return the shared null object.
        Existing instruments keep their values; new updates are dropped."""
        self._enabled = False

    def reset(self) -> None:
        """Drop every instrument (tests and pool workers)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()

    # -- snapshot / delta / merge (pool + span propagation) ----------------

    def snapshot_counters(self) -> Dict[str, float]:
        return {name: c.value for name, c in self._counters.items()}

    def counters_delta(self, before: Dict[str, float]) -> Dict[str, float]:
        """Counter increments since ``before`` (only non-zero entries)."""
        delta: Dict[str, float] = {}
        for name, instrument in list(self._counters.items()):
            change = instrument.value - before.get(name, 0)
            if change:
                delta[name] = change
        return delta

    def merge_counters(self, delta: Dict[str, float]) -> None:
        """Fold a worker's counter delta into this registry."""
        for name, amount in delta.items():
            self.counter(name).inc(amount)

    # -- export ------------------------------------------------------------

    def collect(self) -> Dict[str, object]:
        """Everything, as plain JSON-ready dicts (for /stats and report
        envelopes)."""
        return {
            "counters": {name: c.value for name, c in sorted(self._counters.items())},
            "gauges": {name: g.value for name, g in sorted(self._gauges.items())},
            "histograms": {name: h.summary() for name, h in sorted(self._histograms.items())},
        }


#: The process-global registry behind the module-level helpers.
REGISTRY = MetricsRegistry()


def counter(name: str) -> Counter:
    return REGISTRY.counter(name)


def gauge(name: str) -> Gauge:
    return REGISTRY.gauge(name)


def histogram(name: str, reservoir: int = DEFAULT_RESERVOIR) -> Histogram:
    return REGISTRY.histogram(name, reservoir)


def enable() -> None:
    REGISTRY.enable()


def disable() -> None:
    REGISTRY.disable()


def reset() -> None:
    REGISTRY.reset()


def enabled() -> bool:
    return REGISTRY.enabled


def snapshot_counters() -> Dict[str, float]:
    return REGISTRY.snapshot_counters()


def counters_delta(before: Dict[str, float]) -> Dict[str, float]:
    return REGISTRY.counters_delta(before)


def merge_counters(delta: Dict[str, float]) -> None:
    REGISTRY.merge_counters(delta)


def collect() -> Dict[str, object]:
    return REGISTRY.collect()


# -- Prometheus text exposition -------------------------------------------

_NAME_RE = re.compile(r"[^a-zA-Z0-9_]")


def prometheus_name(name: str, prefix: str = "repro") -> str:
    """``srp.transfer_cache.hits`` -> ``repro_srp_transfer_cache_hits``."""
    return f"{prefix}_{_NAME_RE.sub('_', name)}"


def render_prometheus(registries: Iterable[MetricsRegistry], prefix: str = "repro") -> str:
    """The registries' instruments in Prometheus text exposition format.

    Later registries win on name collisions (the serve registry overlays
    the global one).  Histograms render as summaries: ``{quantile=...}``
    series plus ``_count`` and ``_sum``.
    """
    counters: Dict[str, float] = {}
    gauges: Dict[str, float] = {}
    histograms: Dict[str, Histogram] = {}
    for registry in registries:
        for name, c in registry._counters.items():
            counters[name] = counters.get(name, 0) + c.value
        for name, g in registry._gauges.items():
            gauges[name] = g.value
        for name, h in registry._histograms.items():
            histograms[name] = h

    lines: List[str] = []

    def fmt(value: float) -> str:
        return repr(float(value)) if isinstance(value, float) and not value.is_integer() else str(int(value))

    for name in sorted(counters):
        metric = prometheus_name(name, prefix) + "_total"
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {fmt(counters[name])}")
    for name in sorted(gauges):
        metric = prometheus_name(name, prefix)
        lines.append(f"# TYPE {metric} gauge")
        lines.append(f"{metric} {fmt(gauges[name])}")
    for name in sorted(histograms):
        metric = prometheus_name(name, prefix)
        summary = histograms[name].summary()
        lines.append(f"# TYPE {metric} summary")
        for q, key in (("0.5", "p50"), ("0.95", "p95"), ("0.99", "p99")):
            value = summary[key]
            if value is not None:
                lines.append(f'{metric}{{quantile="{q}"}} {float(value)!r}')
        lines.append(f"{metric}_count {summary['count']}")
        lines.append(f"{metric}_sum {float(summary['sum'])!r}")
    return "\n".join(lines) + "\n"


def absorb_cache_info(prefix: str, before: Optional[Dict[str, int]], after: Optional[Dict[str, int]],
                      keys: Tuple[str, ...] = ("hits", "misses", "overflows")) -> None:
    """Fold the delta of a ``cache_info()``-style dict into counters.

    The existing caches keep fast local attribute counters in their hot
    loops; call sites snapshot ``cache_info()`` around a coarse boundary
    and absorb the difference here, so the registry sees every hit/miss
    without touching the inner loops.
    """
    if after is None:
        return
    for key in keys:
        now = after.get(key, 0)
        delta = now - (before.get(key, 0) if before else 0)
        if delta:
            REGISTRY.counter(f"{prefix}.{key}").inc(delta)
