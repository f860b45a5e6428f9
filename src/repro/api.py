"""The programmatic facade: one :class:`Session` for every analysis.

Examples, the CLI and the ``repro.serve`` daemon previously each
re-implemented the same driver wiring (encode, solve, compress, then
dispatch to a sweep).  A :class:`Session` holds a network together with
its warm :class:`~repro.store.BaselineArtifact` and exposes the four
pillars as methods -- :meth:`verify`, :meth:`failures`, :meth:`delta`,
:meth:`k_resilience` -- plus :meth:`save` / :meth:`Session.load` against
an :class:`~repro.store.ArtifactStore`.

The warm paths are the point: :meth:`verify`, :meth:`delta` and
:meth:`failures` run the same class tasks as the cold CLI, against
per-class baselines validated from the store (a zero-dirty seeded solve)
on a class's first query of any kind and kept for the session's life, and
against the stored compressions: zero baseline re-solves, no
re-compression, and nothing that does not depend on the request is redone
per request.
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.abstraction.ec import EquivalenceClass
from repro.analysis.batch import BatchVerifier, PropertySuite, VerificationReport
from repro.config.network import Network
from repro.delta.changeset import ChangeSet
from repro.delta.sweep import DeltaReport, DeltaSweep
from repro.failures.sweep import FailureReport, FailureSweep
from repro.pipeline.perturb import WarmBaselines
from repro.store import ArtifactStore, BaselineArtifact


class Session:
    """A network plus its warm baseline, ready to answer queries.

    Parameters
    ----------
    network:
        The configured network.  Omit when ``baseline`` is given.
    baseline:
        An already-built (or loaded) :class:`BaselineArtifact`.  When
        omitted, one is built -- through ``store`` (load-or-build) when a
        store root is given, from scratch otherwise.
    store:
        Artifact-store root directory: :class:`Session` loads a matching
        entry when one verifies, and saves fresh builds back.
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        baseline: Optional[BaselineArtifact] = None,
        store=None,
    ) -> None:
        if baseline is None and network is None:
            raise ValueError("a Session needs a network or a BaselineArtifact")
        self.rebuilt = False
        self.rebuild_reason = ""
        if baseline is None:
            if store is not None:
                baseline, self.rebuilt, self.rebuild_reason = ArtifactStore(
                    store
                ).load_or_build(network)
            else:
                baseline = BaselineArtifact.build(network)
        elif network is not None and network is not baseline.network:
            if not baseline.matches(network):
                raise ValueError(
                    "baseline artifact does not match the network "
                    "(content fingerprints differ)"
                )
        self.baseline = baseline
        self.network = baseline.network
        self._store_root = store
        #: What every query's class baselines come from (never persisted).
        self._warm = WarmBaselines(baseline.baselines)

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    @classmethod
    def load(
        cls,
        store,
        network: Optional[Network] = None,
        fingerprint: Optional[str] = None,
    ) -> "Session":
        """Strict load from a store, by network content or fingerprint.

        Raises :class:`~repro.store.StoreError` when the entry is missing
        or fails verification (use the constructor with ``store=`` for
        load-or-build semantics).
        """
        artifact_store = ArtifactStore(store)
        if fingerprint is not None:
            baseline = artifact_store.load(fingerprint)
        elif network is not None:
            baseline = artifact_store.load_for(network)
        else:
            raise ValueError("Session.load needs a network or a fingerprint")
        return cls(baseline=baseline, store=store)

    def save(self, store=None) -> Path:
        """Persist the baseline; returns the store entry directory."""
        root = store if store is not None else self._store_root
        if root is None:
            raise ValueError("no store root: pass one to save() or the constructor")
        return ArtifactStore(root).save(self.baseline)

    @property
    def fingerprint(self) -> str:
        return self.baseline.fingerprint

    @property
    def classes(self) -> List[EquivalenceClass]:
        return list(self.baseline.encoded.classes)

    def class_for(self, prefix: str) -> Optional[EquivalenceClass]:
        for candidate in self.baseline.encoded.classes:
            if str(candidate.prefix) == str(prefix):
                return candidate
        return None

    # ------------------------------------------------------------------
    # The pillars
    # ------------------------------------------------------------------
    def _suite(
        self, properties: Optional[Sequence[str]], **params
    ) -> PropertySuite:
        if properties is None:
            return PropertySuite.default(**params)
        return PropertySuite.from_names(list(properties), **params)

    def verify(
        self,
        properties: Optional[Sequence[str]] = None,
        *,
        prefix: Optional[str] = None,
        path_bound: Optional[int] = None,
        waypoints: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> VerificationReport:
        """Differential verification over the session's baselines: the
        :class:`BatchVerifier` (serial unless ``executor`` says otherwise)
        on the stored artifact, each class's baseline validated once and
        kept for :meth:`delta` and :meth:`failures` too.

        ``prefix`` restricts the run to that one destination class.
        """
        params: Dict[str, object] = {"path_bound": path_bound}
        if waypoints is not None:
            params["waypoints"] = tuple(waypoints)
        artifact = self.baseline.encoded
        if prefix is not None:
            equivalence_class = self.class_for(prefix)
            if equivalence_class is None:
                raise ValueError(f"no destination class at prefix {prefix!r}")
            artifact = replace(artifact, classes=[equivalence_class])
        kwargs.setdefault("executor", "serial")
        return self._run_warm(
            BatchVerifier(artifact=artifact, suite=self._suite(properties, **params), **kwargs)
        )

    def _run_warm(self, sweep):
        """Run ``sweep`` (a perturbation sweep or a :class:`BatchVerifier`)
        against the baselines this session keeps, not a memo of its own."""
        sweep.warm = self._warm
        return sweep.run()

    def failures(
        self,
        k: int = 1,
        properties: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> FailureReport:
        """k-failure sweep against the stored baseline: zero baseline
        re-solves, stored compressions for the soundness check."""
        suite = None if properties is None else PropertySuite.from_names(list(properties))
        kwargs.setdefault("executor", "serial")
        return self._run_warm(
            FailureSweep(baseline=self.baseline, k=k, suite=suite, **kwargs)
        )

    def k_resilience(
        self, max_k: int = 2, prop: str = "reachability", **kwargs
    ) -> Dict[str, object]:
        """Smallest failure count breaking ``prop``, scanning k=1..max_k."""
        results: Dict[str, object] = {"property": prop, "max_k": max_k}
        for k in range(1, max_k + 1):
            report = self.failures(k=k, properties=[prop], **kwargs)
            resilience = report.k_resilience(prop)
            results[f"k={k}"] = resilience
            if any(entry["fragile"] for entry in resilience["per_class"].values()):
                results["breaking_k"] = k
                break
        else:
            results["breaking_k"] = None
        return results

    def delta(
        self,
        script: Sequence[ChangeSet],
        properties: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> DeltaReport:
        """Validate a change script against the stored baseline: zero
        baseline re-solves, stored compressions for revalidation."""
        suite = None if properties is None else PropertySuite.from_names(list(properties))
        kwargs.setdefault("executor", "serial")
        kwargs.setdefault("oracle", False)
        return self._run_warm(
            DeltaSweep(baseline=self.baseline, script=list(script), suite=suite, **kwargs)
        )
