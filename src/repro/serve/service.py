"""The warm-baseline verification service core (transport-agnostic).

:class:`VerificationService` wraps a :class:`repro.api.Session` and
answers verify / delta / failure / k-resilience queries concurrently:

* **Per-class batching**: concurrent queries that resolve to the same
  work unit (the same destination class and parameters) are *coalesced*
  -- one thread computes, the rest wait on the same in-flight result --
  so a thundering herd of identical verify calls costs one evaluation.
* **Shared warm state**: every query runs off the session's stored
  baseline (labelings, transfer memos, compressions) and the per-class
  baselines the session keeps, and
  verify answers are additionally memoised in a bounded cache (the
  network inside a session is immutable, so they never go stale).
* **Latency accounting**: :class:`QueryStats` records per-query wall
  clock and reports count / mean / p50 / p95 per query kind.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Optional, Sequence

from repro import perfutil
from repro.api import Session
from repro.delta.changeset import load_change_script
from repro.failures.scenario import _combinations_count, undirected_links
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry

#: Bound on the memoised verify answers (distinct (prefix, properties)
#: keys); overflow evicts wholesale, like the solver's TransferCache.
ANSWER_CACHE_LIMIT = 256

#: Largest ``<=k`` link-failure space a ``/failures`` or ``/k-resilience``
#: request without ``sample`` may enumerate; past it the request is
#: refused before any work starts.
MAX_ENUMERATED_SCENARIOS = 10_000

_LATENCY_PREFIX = "serve.latency."


class Refused(ValueError):
    """A request turned down with a reason, already counted under
    ``serve.refused.<reason>``: the HTTP layer answers it 400 as is."""


class ServiceSaturated(RuntimeError):
    """The service is at its in-flight bound; the caller should retry.

    The HTTP layer maps this to ``503`` with a ``Retry-After`` header --
    saturation is bounded and observable instead of silently queueing a
    thread per connection until the process keels over.
    """

    retry_after_seconds = 1

    def __init__(self, kind: str, inflight: int, limit: int):
        super().__init__(
            f"service saturated: {inflight} requests in flight (limit {limit}); "
            f"retry {kind!r} shortly"
        )
        self.kind = kind
        self.inflight = inflight
        self.limit = limit


class QueryStats:
    """Per-kind latency accounting on bounded histograms.

    Backed by a private :class:`MetricsRegistry`, so a service that runs
    for weeks holds O(reservoir) floats per query kind instead of every
    sample ever recorded, and its counts reset with the service rather
    than the process.  ``summary()`` keeps the historical ``/stats``
    shape (count / coalesced / mean / p50 / p95 / max, all in ms).
    """

    def __init__(self, registry: Optional[MetricsRegistry] = None) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()

    def record(self, kind: str, seconds: float, coalesced: bool = False) -> None:
        self.registry.histogram(_LATENCY_PREFIX + kind).observe(seconds)
        if coalesced:
            self.registry.counter(f"serve.coalesced.{kind}").inc()

    def summary(self) -> Dict[str, Dict[str, float]]:
        collected = self.registry.collect()
        out: Dict[str, Dict[str, float]] = {}
        for name, stats in collected["histograms"].items():
            if not name.startswith(_LATENCY_PREFIX):
                continue
            kind = name[len(_LATENCY_PREFIX):]
            out[kind] = {
                "count": stats["count"],
                "coalesced": collected["counters"].get(f"serve.coalesced.{kind}", 0),
                "mean_ms": 1e3 * (stats["mean"] or 0.0),
                "p50_ms": 1e3 * (stats["p50"] or 0.0),
                "p95_ms": 1e3 * (stats["p95"] or 0.0),
                "max_ms": 1e3 * (stats["max"] or 0.0),
            }
        return out


class _Coalescer:
    """Deduplicate concurrent identical computations by key.

    The first caller of a key becomes the owner and computes; callers
    arriving while it is in flight block on the same event and share the
    owner's result (or exception).  Results are *not* retained after the
    flight completes -- caching is the caller's concern.
    """

    class _Flight:
        __slots__ = ("event", "result", "error")

        def __init__(self) -> None:
            self.event = threading.Event()
            self.result = None
            self.error: Optional[BaseException] = None

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._inflight: Dict[object, "_Coalescer._Flight"] = {}

    def run(self, key, compute: Callable[[], object]):
        """``(result, coalesced)``: coalesced is True for non-owners."""
        with self._lock:
            flight = self._inflight.get(key)
            owner = flight is None
            if owner:
                flight = self._inflight[key] = self._Flight()
        if not owner:
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            return flight.result, True
        try:
            flight.result = compute()
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            with self._lock:
                self._inflight.pop(key, None)
            flight.event.set()
        return flight.result, False


class VerificationService:
    """Concurrent query front-end over one warm :class:`Session`."""

    def __init__(
        self,
        session: Session,
        max_inflight: Optional[int] = None,
    ) -> None:
        self.session = session
        self.stats = QueryStats()
        #: Per-service registry: query latencies, coalescing and answer
        #: cache counters live here (and reset with the service); solver
        #: and cache counters stay in the process-global registry.
        self.registry = self.stats.registry
        self._coalescer = _Coalescer()
        self._cache_lock = threading.Lock()
        self._answers: Dict[object, Dict] = {}
        #: Total concurrent queries this service accepts; ``None``/0
        #: means unbounded (the historical behaviour).
        self.max_inflight = max_inflight if max_inflight and max_inflight > 0 else None
        self._inflight_lock = threading.Lock()
        self._inflight: Dict[str, int] = {}
        #: Recent structured events, served via ``/events`` long polls.
        self.event_log = EventLog()

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    @contextmanager
    def track_request(self, kind: str):
        """Count one in-flight request of ``kind`` (per-endpoint gauge);
        refuse with :class:`ServiceSaturated` at the in-flight bound."""
        with self._inflight_lock:
            total = sum(self._inflight.values())
            if self.max_inflight is not None and total >= self.max_inflight:
                self.registry.counter(f"serve.rejected.{kind}").inc()
                raise ServiceSaturated(kind, total, self.max_inflight)
            self._inflight[kind] = self._inflight.get(kind, 0) + 1
            self.registry.gauge(f"serve.inflight.{kind}").set(self._inflight[kind])
        try:
            yield
        finally:
            with self._inflight_lock:
                self._inflight[kind] -= 1
                self.registry.gauge(f"serve.inflight.{kind}").set(self._inflight[kind])

    def inflight_snapshot(self) -> Dict[str, int]:
        with self._inflight_lock:
            return dict(self._inflight)

    # ------------------------------------------------------------------
    # Event stream
    # ------------------------------------------------------------------
    def events_since(self, cursor: int = 0, timeout: float = 0.0) -> Dict[str, object]:
        """Events after ``cursor`` (long-polling up to ``timeout`` s)."""
        payload = self.event_log.since(cursor, timeout=min(max(timeout, 0.0), 30.0))
        payload["ok"] = True
        return payload

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def _answer_cache_info(self) -> Dict[str, object]:
        with self._cache_lock:
            size = len(self._answers)
        collected = self.registry.collect()["counters"]
        return {
            "size": size,
            "limit": ANSWER_CACHE_LIMIT,
            "hits": collected.get("serve.answer_cache.hits", 0),
            "misses": collected.get("serve.answer_cache.misses", 0),
            "overflows": collected.get("serve.answer_cache.overflows", 0),
        }

    def health(self) -> Dict[str, object]:
        rss = perfutil.peak_rss_mb()
        self.registry.gauge("process.peak_rss_mb").max(rss)
        return {
            "ok": True,
            "network": self.session.network.name,
            "fingerprint": self.session.fingerprint,
            "classes": len(self.session.classes),
            "warm": True,
            "peak_rss_mb": round(rss, 3),
            "answer_cache": self._answer_cache_info(),
            "store": {
                "root": None if self.session._store_root is None else str(self.session._store_root),
                "rebuilt": self.session.rebuilt,
                "rebuild_reason": self.session.rebuild_reason,
            },
        }

    def stats_summary(self) -> Dict[str, object]:
        rss = perfutil.peak_rss_mb()
        self.registry.gauge("process.peak_rss_mb").max(rss)
        return {
            "ok": True,
            "queries": self.stats.summary(),
            "process": {"peak_rss_mb": round(rss, 3)},
            "answer_cache": self._answer_cache_info(),
            "inflight": {
                "limit": self.max_inflight,
                "by_kind": self.inflight_snapshot(),
            },
        }

    def metrics_text(self) -> str:
        """Prometheus text exposition of the global + service registries."""
        self.registry.gauge("process.peak_rss_mb").max(perfutil.peak_rss_mb())
        return _metrics.render_prometheus([_metrics.REGISTRY, self.registry])

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def _cached(self, key, compute: Callable[[], Dict]) -> Dict:
        with self._cache_lock:
            answer = self._answers.get(key)
        if answer is not None:
            self.registry.counter("serve.answer_cache.hits").inc()
            return answer
        self.registry.counter("serve.answer_cache.misses").inc()
        answer = compute()
        with self._cache_lock:
            if len(self._answers) >= ANSWER_CACHE_LIMIT:
                self._answers.clear()
                self.registry.counter("serve.answer_cache.overflows").inc()
                _events.emit(
                    "cache.overflow",
                    cache="serve.answer_cache",
                    limit=ANSWER_CACHE_LIMIT,
                )
            self._answers[key] = answer
        return answer

    def verify(
        self,
        prefix: Optional[str] = None,
        properties: Optional[Sequence[str]] = None,
    ) -> Dict:
        """Warm differential verification (whole network or one class).

        Identical concurrent queries coalesce per destination class, and
        answers are memoised -- the session's network never changes.
        """
        props = None if properties is None else tuple(properties)
        key = ("verify", prefix, props)
        start = time.perf_counter()

        def compute() -> Dict:
            report = self.session.verify(
                None if props is None else list(props), prefix=prefix
            )
            return report.to_dict()

        answer, coalesced = self._coalescer.run(key, lambda: self._cached(key, compute))
        self.stats.record("verify", time.perf_counter() - start, coalesced)
        return answer

    def delta(self, script: Sequence[Dict], revalidate: bool = True) -> Dict:
        """Validate a change script (the grammar of
        :func:`~repro.delta.changeset.load_change_script`) against the
        stored baseline: zero baseline re-solves."""
        # Wrapped as the request body carries it, so a string is refused
        # rather than read as JSON text.
        changesets = load_change_script({"script": script})
        key = ("delta", json.dumps([cs.to_dict() for cs in changesets], sort_keys=True), revalidate)
        start = time.perf_counter()

        def compute() -> Dict:
            report = self.session.delta(changesets, revalidate=revalidate)
            return report.to_dict()

        answer, coalesced = self._coalescer.run(key, compute)
        self.stats.record("delta", time.perf_counter() - start, coalesced)
        return answer

    def refused(self, reason: str, message: str) -> Refused:
        """Count and announce one refused request; the :class:`Refused`
        carrying ``message`` back, for the caller to raise or answer."""
        self.registry.counter(f"serve.refused.{reason}").inc()
        _events.emit("serve.refused", reason=reason, error=message)
        return Refused(message)

    def _check_enumerable(self, k: int, sample: Optional[int]) -> None:
        """Refuse an unsampled sweep whose ``<=k`` failure space is larger
        than :data:`MAX_ENUMERATED_SCENARIOS` (counted, not enumerated)."""
        if sample is not None:
            return
        total = failure_space(self.session.network, k)
        if total > MAX_ENUMERATED_SCENARIOS:
            raise self.refused(
                "scenarios",
                f"k={k} enumerates {total} failure scenarios (limit "
                f"{MAX_ENUMERATED_SCENARIOS}); pass 'sample' to sample them",
            )

    def failures(
        self,
        k: int = 1,
        sample: Optional[int] = None,
        properties: Optional[Sequence[str]] = None,
    ) -> Dict:
        self._check_enumerable(k, sample)
        props = None if properties is None else tuple(properties)
        key = ("failures", k, sample, props)
        start = time.perf_counter()

        def compute() -> Dict:
            report = self.session.failures(
                k=k,
                sample=sample,
                properties=None if props is None else list(props),
            )
            return report.to_dict()

        answer, coalesced = self._coalescer.run(key, compute)
        self.stats.record("failures", time.perf_counter() - start, coalesced)
        return answer

    def k_resilience(
        self,
        max_k: int = 2,
        prop: str = "reachability",
        sample: Optional[int] = None,
    ) -> Dict:
        self._check_enumerable(max_k, sample)
        key = ("k-resilience", max_k, prop, sample)
        start = time.perf_counter()

        def compute() -> Dict:
            kwargs = {} if sample is None else {"sample": sample}
            result = dict(self.session.k_resilience(max_k=max_k, prop=prop, **kwargs))
            result["ok"] = True
            return result

        answer, coalesced = self._coalescer.run(key, compute)
        self.stats.record("k_resilience", time.perf_counter() - start, coalesced)
        return answer


def failure_space(network, k: int) -> int:
    """How many link-failure scenarios of at most ``k`` links ``network``
    has, without enumerating them."""
    links = len(undirected_links(network))
    return sum(_combinations_count(links, size) for size in range(1, min(k, links) + 1))

