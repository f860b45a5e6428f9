"""The versioned on-disk artifact store (refuse-and-rebuild loading).

Layout: one directory per network fingerprint under the store root --

    <root>/<fingerprint>/meta.json     integrity + provenance sidecar
    <root>/<fingerprint>/payload.pkl   the pickled BaselineArtifact

``meta.json`` is the trust boundary in front of the pickle: it records
the store schema version, the fingerprint the artifact claims to be for,
the payload's SHA-256 and size, and display provenance.  :meth:`load`
verifies *all* of it -- schema compatibility, checksum, and that the
unpickled artifact's own fingerprint matches the directory it was found
in -- before handing the payload to anyone.  Any mismatch raises
:class:`StoreError` with a diagnostic naming what failed; nothing is ever
served stale or half-read.  :meth:`load_or_build` turns that refusal into
a rebuild: corrupted entries are replaced, not crashed on.

Writes are atomic (a per-writer temp file + ``os.replace``) so a crashed
save leaves either the old entry or none, never a torn one, and two
processes saving one fingerprint at once both succeed.  A save holds an
exclusive ``flock`` on the entry directory across its two writes and a
load a shared one across its two reads, so no entry pairs one writer's
meta with another's payload: pickle bytes depend on the writer's hash
seed, so two writers' payloads of one artifact can differ.
"""

from __future__ import annotations

import contextlib
import fcntl
import hashlib
import json
import os
import pickle
import shutil
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.config.network import Network
from repro.obs import events as _events
from repro.obs import metrics as _metrics
from repro.store.artifact import ARTIFACT_SCHEMA_VERSION, BaselineArtifact
from repro.store.fingerprint import network_fingerprint

#: Bump when the on-disk layout (meta keys, file names) changes.
STORE_SCHEMA_VERSION = 1

_META_NAME = "meta.json"
_PAYLOAD_NAME = "payload.pkl"


class StoreError(Exception):
    """A store entry is missing, corrupt or foreign; callers rebuild.

    ``reason`` is a stable machine-readable slug (``missing``,
    ``checksum_mismatch``, ...) that labels the ``store.refused.<reason>``
    counter and the structured ``store.refused`` event, so refusals are
    observable instead of silently dissolving into rebuilds.
    """

    def __init__(self, message: str, reason: str = "unknown"):
        super().__init__(message)
        self.reason = reason


def _refuse(fingerprint: str, reason: str, detail: str) -> "StoreError":
    """Count, announce and build (not raise) one load refusal."""
    _metrics.counter(f"store.refused.{reason}").inc()
    _events.emit(
        "store.refused",
        fingerprint=str(fingerprint)[:12],
        reason=reason,
        detail=detail,
    )
    return StoreError(detail, reason)


def refusal_counts(counters: Optional[Dict[str, float]] = None) -> Dict[str, int]:
    """This process's ``store.refused.<reason>`` counters, keyed by
    reason slug (what ``store info`` surfaces)."""
    if counters is None:
        counters = _metrics.collect()["counters"]
    prefix = "store.refused."
    return {
        key[len(prefix):]: int(value)
        for key, value in sorted(counters.items())
        if key.startswith(prefix)
    }


def _sha256(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def _atomic_write(path: Path, payload: bytes) -> None:
    """Write ``payload`` to a temp file of this writer's own next to
    ``path``, then rename it into place: concurrent saves of one entry
    each replace the file whole, and a failed write leaves no temp file."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


@contextlib.contextmanager
def _entry_lock(entry: Path, operation: int):
    """Hold ``flock(operation)`` on the entry directory's own descriptor
    (no lock file, so an entry holds exactly its meta and payload)."""
    fd = os.open(entry, os.O_RDONLY)
    try:
        fcntl.flock(fd, operation)
        yield
    finally:
        os.close(fd)


class ArtifactStore:
    """A directory of fingerprint-keyed :class:`BaselineArtifact` entries."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------
    def entry_dir(self, fingerprint: str) -> Path:
        return self.root / fingerprint

    def has(self, fingerprint: str) -> bool:
        entry = self.entry_dir(fingerprint)
        return (entry / _META_NAME).is_file() and (entry / _PAYLOAD_NAME).is_file()

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, artifact: BaselineArtifact) -> Path:
        """Persist an artifact under its fingerprint; returns the entry dir."""
        entry = self.entry_dir(artifact.fingerprint)
        entry.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(artifact, protocol=pickle.HIGHEST_PROTOCOL)
        meta = {
            "store_schema_version": STORE_SCHEMA_VERSION,
            "artifact_schema_version": artifact.schema_version,
            "fingerprint": artifact.fingerprint,
            "network_name": artifact.network_name,
            "num_classes": len(artifact.baselines),
            "payload_sha256": _sha256(payload),
            "payload_bytes": len(payload),
            "saved_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        }
        # Payload first: a crash between the two writes leaves a stale
        # meta whose checksum refuses the new payload (refuse-and-rebuild)
        # rather than a fresh meta blessing a missing payload.
        with _entry_lock(entry, fcntl.LOCK_EX):
            _atomic_write(entry / _PAYLOAD_NAME, payload)
            _atomic_write(
                entry / _META_NAME,
                json.dumps(meta, indent=2, sort_keys=True).encode("utf-8"),
            )
        return entry

    # ------------------------------------------------------------------
    # Load (strict)
    # ------------------------------------------------------------------
    def load(self, fingerprint: str) -> BaselineArtifact:
        """Load and fully verify one entry; :class:`StoreError` otherwise."""
        entry = self.entry_dir(fingerprint)
        meta_path = entry / _META_NAME
        payload_path = entry / _PAYLOAD_NAME
        if not meta_path.is_file() or not payload_path.is_file():
            raise _refuse(
                fingerprint, "missing",
                f"no artifact for fingerprint {fingerprint[:12]}... under {self.root}",
            )
        with _entry_lock(entry, fcntl.LOCK_SH):
            try:
                meta = json.loads(meta_path.read_text())
            except (OSError, ValueError) as exc:
                raise _refuse(
                    fingerprint, "unreadable_meta",
                    f"unreadable meta for {fingerprint[:12]}...: {exc}",
                ) from exc
            payload = payload_path.read_bytes()

        if meta.get("store_schema_version") != STORE_SCHEMA_VERSION:
            raise _refuse(
                fingerprint, "store_schema_mismatch",
                f"store schema mismatch for {fingerprint[:12]}...: "
                f"entry has {meta.get('store_schema_version')!r}, "
                f"this build reads {STORE_SCHEMA_VERSION}",
            )
        if meta.get("artifact_schema_version") != ARTIFACT_SCHEMA_VERSION:
            raise _refuse(
                fingerprint, "artifact_schema_mismatch",
                f"artifact schema mismatch for {fingerprint[:12]}...: "
                f"entry has {meta.get('artifact_schema_version')!r}, "
                f"this build reads {ARTIFACT_SCHEMA_VERSION}",
            )
        if meta.get("fingerprint") != fingerprint:
            raise _refuse(
                fingerprint, "foreign_meta",
                f"foreign entry: meta claims fingerprint "
                f"{str(meta.get('fingerprint'))[:12]}... but was found under "
                f"{fingerprint[:12]}...",
            )

        digest = _sha256(payload)
        if digest != meta.get("payload_sha256"):
            raise _refuse(
                fingerprint, "checksum_mismatch",
                f"payload checksum mismatch for {fingerprint[:12]}... "
                f"(expected {str(meta.get('payload_sha256'))[:12]}..., "
                f"got {digest[:12]}...): truncated or corrupted entry",
            )
        try:
            artifact = pickle.loads(payload)
        except Exception as exc:  # pickle raises a zoo of error types
            raise _refuse(
                fingerprint, "unpickle_error",
                f"payload for {fingerprint[:12]}... does not unpickle: {exc}",
            ) from exc
        if not isinstance(artifact, BaselineArtifact):
            raise _refuse(
                fingerprint, "wrong_type",
                f"payload for {fingerprint[:12]}... is a "
                f"{type(artifact).__name__}, not a BaselineArtifact",
            )
        if artifact.fingerprint != fingerprint:
            raise _refuse(
                fingerprint, "foreign_payload",
                f"foreign artifact: payload carries fingerprint "
                f"{artifact.fingerprint[:12]}... but was stored under "
                f"{fingerprint[:12]}...",
            )
        _metrics.counter("store.loads").inc()
        _events.emit("store.loaded", fingerprint=fingerprint[:12])
        return artifact

    def load_for(self, network: Network) -> BaselineArtifact:
        """Strict load of the entry matching ``network``'s content."""
        return self.load(network_fingerprint(network))

    # ------------------------------------------------------------------
    # Load or rebuild
    # ------------------------------------------------------------------
    def load_or_build(
        self, network: Network, **build_kwargs
    ) -> Tuple[BaselineArtifact, bool, str]:
        """``(artifact, rebuilt, reason)``: a verified load, or a fresh
        build saved over whatever refused to load (``reason`` is the
        diagnostic; empty on a clean load)."""
        fingerprint = network_fingerprint(network)
        try:
            return self.load(fingerprint), False, ""
        except StoreError as exc:
            reason = str(exc)
        artifact = BaselineArtifact.build(network, **build_kwargs)
        self.save(artifact)
        return artifact, True, reason

    # ------------------------------------------------------------------
    # Inventory
    # ------------------------------------------------------------------
    def list(self) -> List[Dict]:
        """The meta of every readable entry, sorted by network name."""
        entries: List[Dict] = []
        if not self.root.is_dir():
            return entries
        for child in sorted(self.root.iterdir()):
            meta_path = child / _META_NAME
            if not meta_path.is_file():
                continue
            try:
                entries.append(json.loads(meta_path.read_text()))
            except (OSError, ValueError):
                entries.append({"fingerprint": child.name, "unreadable": True})
        entries.sort(key=lambda m: (str(m.get("network_name", "")), str(m.get("fingerprint"))))
        return entries

    def delete(self, fingerprint: str) -> bool:
        """Remove one entry directory, whatever files it holds (sidecars
        older versions wrote included); True when it existed."""
        entry = self.entry_dir(fingerprint)
        # Only ever a direct child of the root: never the root, never beyond.
        if entry.resolve().parent != self.root.resolve() or not entry.is_dir():
            return False
        shutil.rmtree(entry)
        return True

    def meta(self, fingerprint: str) -> Optional[Dict]:
        meta_path = self.entry_dir(fingerprint) / _META_NAME
        if not meta_path.is_file():
            return None
        try:
            return json.loads(meta_path.read_text())
        except (OSError, ValueError):
            return None
