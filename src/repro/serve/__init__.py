"""The long-running warm-baseline verification service.

Loads (or builds) a :class:`~repro.store.BaselineArtifact`, keeps it warm
in a :class:`~repro.api.Session`, and answers verify / delta / failure /
k-resilience queries concurrently over stdlib HTTP -- coalescing
concurrent identical queries per destination class, sharing the stored
bounded memos across requests and reporting per-query latency
percentiles.  Start it with ``python -m repro.pipeline serve``.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".http": ("ServeHandler", "create_server", "serve", "warm_service"),
    ".service": ("QueryStats", "VerificationService"),
})
