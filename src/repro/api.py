"""The programmatic facade: one :class:`Session` for every analysis.

Examples, the CLI and the ``repro.serve`` daemon previously each
re-implemented the same driver wiring (encode, solve, compress, then
dispatch to a sweep).  A :class:`Session` holds a network together with
its warm :class:`~repro.store.BaselineArtifact` and exposes the four
pillars as methods -- :meth:`verify`, :meth:`failures`, :meth:`delta`,
:meth:`k_resilience` -- plus :meth:`save` / :meth:`Session.load` against
an :class:`~repro.store.ArtifactStore`.

The warm paths are the point: :meth:`verify` answers off the stored
forwarding tables and compressions (no re-solve, no re-compression), and
:meth:`delta` / :meth:`failures` compare every perturbation against
per-class baselines validated from the store on a class's first query and
kept for the session's life: zero baseline re-solves, and nothing that
does not depend on the request is redone per request.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from repro.abstraction.ec import EquivalenceClass
from repro.analysis.batch import (
    BatchVerifier,
    ClassVerificationRecord,
    PropertySuite,
    PropertyVerdict,
    VerificationReport,
)
from repro.analysis.properties import evaluate_suite
from repro.config.network import Network
from repro.delta.changeset import ChangeSet
from repro.delta.sweep import DeltaReport, DeltaSweep
from repro.failures.soundness import compare_verdicts, lifted_abstract_verdicts
from repro.failures.sweep import FailureReport, FailureSweep
from repro.pipeline.perturb import PerturbationSweep, WarmBaselines
from repro.store import ArtifactStore, BaselineArtifact
from repro.store.artifact import ClassBaseline


def _warm_class_record(
    network: Network,
    equivalence_class: EquivalenceClass,
    baseline: ClassBaseline,
    suite: PropertySuite,
) -> ClassVerificationRecord:
    """A differential verification record computed entirely from stored
    baseline artifacts: properties are evaluated off the stored concrete
    forwarding table and lifted through the stored compression -- no
    concrete re-solve, no re-compression."""
    specs = suite.specs()
    nodes = sorted(network.graph.nodes, key=str)
    node_names = [str(node) for node in nodes]
    waypoints = frozenset(str(o) for o in equivalence_class.origins)
    path_bound = (
        suite.path_bound if suite.path_bound is not None else network.graph.num_nodes()
    )

    concrete_start = time.perf_counter()
    concrete = evaluate_suite(specs, baseline.table, nodes, waypoints, path_bound)
    concrete_seconds = time.perf_counter() - concrete_start

    abstract_start = time.perf_counter()
    compression = baseline.compression
    lifted = lifted_abstract_verdicts(
        compression.abstraction,
        compression.abstract_network,
        equivalence_class,
        specs,
        node_names,
        waypoints,
        path_bound,
    )
    abstract_seconds = time.perf_counter() - abstract_start
    mismatched = compare_verdicts(concrete, lifted)

    verdicts = [
        PropertyVerdict(
            property=spec.name,
            nodes_checked=len(node_names),
            concrete_failing=[n for n in node_names if not concrete[spec.name][n]],
            abstract_failing=[n for n in node_names if not lifted[spec.name][n]],
            mismatched=list(mismatched.get(spec.name, [])),
        )
        for spec in specs
    ]
    return ClassVerificationRecord(
        prefix=str(equivalence_class.prefix),
        origins=sorted(str(o) for o in equivalence_class.origins),
        concrete_nodes=network.graph.num_nodes(),
        abstract_nodes=compression.abstract_nodes,
        concrete_seconds=concrete_seconds,
        abstract_seconds=abstract_seconds,
        compression_seconds=0.0,
        verdicts=verdicts,
    )


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
    use_bdds / compress:
        Forwarded to :meth:`BaselineArtifact.build` when building.
    """

    def __init__(
        self,
        network: Optional[Network] = None,
        *,
        baseline: Optional[BaselineArtifact] = None,
        store=None,
        use_bdds: bool = True,
        compress: bool = True,
    ) -> None:
        if baseline is None and network is None:
            raise ValueError("a Session needs a network or a BaselineArtifact")
        self.rebuilt = False
        self.rebuild_reason = ""
        if baseline is None:
            if store is not None:
                baseline, self.rebuilt, self.rebuild_reason = ArtifactStore(
                    store
                ).load_or_build(network, use_bdds=use_bdds, compress=compress)
            else:
                baseline = BaselineArtifact.build(
                    network, use_bdds=use_bdds, compress=compress
                )
        elif network is not None and network is not baseline.network:
            if not baseline.matches(network):
                raise ValueError(
                    "baseline artifact does not match the network "
                    "(content fingerprints differ)"
                )
        self.baseline = baseline
        self.network = baseline.network
        self._store_root = store
        #: What :meth:`delta` and :meth:`failures` queries share (never persisted).
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

    def _warm_ready(self, suite: PropertySuite) -> bool:
        """Warm verification needs stored tables and compressions for every
        class and the default (origin) waypointing -- explicit waypoint
        sets go through the batch path, which handles the non-comparable
        flagging."""
        if suite.waypoints is not None:
            return False
        classes = self.baseline.encoded.classes
        if not classes:
            return False
        for equivalence_class in classes:
            stored = self.baseline.baseline_for(equivalence_class.prefix)
            if (
                stored is None
                or stored.table is None
                or stored.compression is None
                or stored.compression.abstract_network is None
            ):
                return False
        return True

    def verify(
        self,
        properties: Optional[Sequence[str]] = None,
        *,
        prefix: Optional[str] = None,
        warm: bool = True,
        path_bound: Optional[int] = None,
        waypoints: Optional[Sequence[str]] = None,
        **kwargs,
    ) -> VerificationReport:
        """Differential verification; warm (stored-baseline) by default.

        ``prefix`` restricts to one destination class (warm path only).
        Falls back to the :class:`BatchVerifier` when the artifact lacks
        tables/compressions or the suite needs explicit waypoints.
        """
        params: Dict[str, object] = {"path_bound": path_bound}
        if waypoints is not None:
            params["waypoints"] = tuple(waypoints)
        suite = self._suite(properties, **params)

        if warm and self._warm_ready(suite):
            start = time.perf_counter()
            classes = self.baseline.encoded.classes
            if prefix is not None:
                classes = [ec for ec in classes if str(ec.prefix) == str(prefix)]
                if not classes:
                    raise ValueError(f"no destination class at prefix {prefix!r}")
            records = [
                _warm_class_record(
                    self.network,
                    equivalence_class,
                    self.baseline.baseline_for(equivalence_class.prefix),
                    suite,
                )
                for equivalence_class in classes
            ]
            return VerificationReport(
                network_name=self.network.name,
                executor="warm",
                workers=1,
                num_classes=len(records),
                properties=list(suite.names),
                path_bound=suite.path_bound,
                encode_seconds=0.0,
                total_seconds=time.perf_counter() - start,
                records=records,
            )
        if prefix is not None:
            raise ValueError(
                "per-prefix verification requires the warm path "
                "(stored tables and compressions for every class)"
            )
        kwargs.setdefault("executor", "serial")
        return BatchVerifier(
            artifact=self.baseline.encoded, suite=suite, **kwargs
        ).run()

    def _run_warm(self, sweep: PerturbationSweep):
        """Run ``sweep`` against the baselines this session keeps, not a memo of its own."""
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
        kwargs.setdefault("rebuild_oracle", False)
        return self._run_warm(
            DeltaSweep(baseline=self.baseline, script=list(script), suite=suite, **kwargs)
        )
