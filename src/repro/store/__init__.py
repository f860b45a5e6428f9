"""Persistent baseline artifacts: build once, validate and serve forever.

The tentpole of ROADMAP item 1: the dominant baseline cost of every sweep
(encode + solve + compress) is paid once by
:meth:`BaselineArtifact.build`, persisted by :class:`ArtifactStore` under
the network's content fingerprint with integrity checksums and a schema
version, and reloaded -- with full verification, refusing (never crashing
on, never silently serving) corrupt or foreign entries -- by later
processes: ``--baseline`` delta runs, :class:`repro.api.Session` and the
``repro.serve`` daemon.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".artifact": ("ARTIFACT_SCHEMA_VERSION", "BaselineArtifact", "ClassBaseline"),
    ".fingerprint": ("canonical_form", "network_fingerprint"),
    ".store": (
        "COSTS_SCHEMA_VERSION", "STORE_SCHEMA_VERSION", "ArtifactStore", "StoreError",
    ),
})
