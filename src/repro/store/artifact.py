"""The persistent baseline artifact: everything a warm start needs.

Every sweep pillar (verify / failures / delta) re-pays the same dominant
baseline cost in-process before its incremental machinery can shine:
encode the policy BDDs, solve every destination class's SRP, compress
every class.  :class:`BaselineArtifact` captures the *outputs* of that
work -- the :class:`~repro.pipeline.encoded.EncodedNetwork`, per-class
baseline labelings, transfer memos, refinement signatures, canonical
partitions and compressions -- keyed by the network's content fingerprint
so a later process (the CLI's ``--baseline`` mode, the serve daemon, a
:class:`~repro.api.Session`) can validate changes and answer queries with
zero baseline re-solves.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.abstraction.bonsai import CompressionResult
from repro.analysis.dataplane import ForwardingTable, forwarding_table_from_solution
from repro.config.network import Network
from repro.delta.revalidate import class_signature
from repro.pipeline.core import ClassFanOut
from repro.pipeline.encoded import EncodedNetwork
from repro.pipeline.report import EcRecord
from repro.srp.solver import TransferCache, solve
from repro.store.fingerprint import network_fingerprint

#: Bump when the pickled artifact layout changes incompatibly.
ARTIFACT_SCHEMA_VERSION = 1


@dataclass
class ClassBaseline:
    """The solved-and-compressed baseline of one destination class."""

    prefix: str
    origins: List[str]
    #: The stable labeling of the class's concrete SRP (node -> attribute).
    labeling: Dict
    #: The transfer memo of the baseline solve, ``(edge, label) -> attr``;
    #: seeds incremental re-solves so their offer tables are pure hits.
    transfer_memo: Dict
    #: The refinement-input signature (:func:`class_signature`) deciding
    #: reuse-vs-recompress for changed networks.
    signature: Tuple
    #: Canonical abstraction partition (sorted groups of concrete names).
    partition: List[List[str]] = field(default_factory=list)
    #: The full compression, when the artifact was built with one.
    compression: Optional[CompressionResult] = None
    #: The baseline concrete forwarding table (warm queries evaluate
    #: properties straight off it, no re-solve).
    table: Optional[ForwardingTable] = None
    solve_seconds: float = 0.0
    compress_seconds: float = 0.0


def baseline_class_task(bonsai, equivalence_class, options: dict) -> ClassBaseline:
    """The ``"baseline"`` task: solve (and optionally compress) one class.

    This is the per-class body of :meth:`BaselineArtifact.build`, hoisted
    into a registered task so artifact bakes ride the same fan-out (and
    process pool) as every sweep pillar.
    """
    network = bonsai.network
    prefix = equivalence_class.prefix
    origins = set(equivalence_class.origins)
    solve_start = time.perf_counter()
    cache = TransferCache()
    solution = solve(bonsai.concrete_srp(equivalence_class), transfer_cache=cache)
    table = forwarding_table_from_solution(network, solution, equivalence_class)
    solve_seconds = time.perf_counter() - solve_start

    compression = None
    partition: List[List[str]] = []
    compress_seconds = 0.0
    if options.get("compress", True):
        compression = bonsai.compress(equivalence_class, build_network=True, srp=solution.srp)
        compress_seconds = compression.compression_seconds
        partition = EcRecord.from_result(compression).groups

    return ClassBaseline(
        prefix=str(prefix),
        origins=sorted(str(origin) for origin in origins),
        labeling=dict(solution.labeling),
        transfer_memo=dict(cache),
        signature=class_signature(network, prefix, equivalence_class.origins),
        partition=partition,
        compression=compression,
        table=table,
        solve_seconds=solve_seconds,
        compress_seconds=compress_seconds,
    )



@dataclass
class BaselineArtifact:
    """A warm baseline for one network, ready to persist or serve."""

    fingerprint: str
    network_name: str
    use_bdds: bool
    encoded: EncodedNetwork
    #: ``str(prefix) -> ClassBaseline`` for every routable class.
    baselines: Dict[str, ClassBaseline]
    schema_version: int = ARTIFACT_SCHEMA_VERSION
    build_seconds: float = 0.0

    @property
    def network(self) -> Network:
        return self.encoded.network

    @classmethod
    def build(
        cls,
        network: Optional[Network] = None,
        *,
        artifact: Optional[EncodedNetwork] = None,
        use_bdds: bool = True,
        compress: bool = True,
        limit: Optional[int] = None,
        executor: str = "serial",
        workers: Optional[int] = None,
    ) -> "BaselineArtifact":
        """Pay the full baseline cost once: encode, solve and (optionally)
        compress every destination class.

        ``artifact`` reuses an existing :class:`EncodedNetwork`;
        ``compress=False`` skips the per-class compressions (the delta
        revalidator then recompresses lazily, as without a baseline);
        ``limit`` bounds the classes covered (smoke runs).  The per-class
        work rides the ``"baseline"`` fan-out task, so ``executor`` /
        ``workers`` parallelise big bakes through the same process pool
        as the sweeps (default: serial, as before).
        """
        start = time.perf_counter()
        if artifact is None:
            if network is None:
                raise ValueError("either a network or an EncodedNetwork is required")
            artifact = EncodedNetwork.build(network, use_bdds=use_bdds)
        network = artifact.network

        fanout = ClassFanOut(
            artifact=artifact,
            task="baseline",
            task_options={"compress": compress},
            executor=executor,
            workers=workers,
            limit=limit,
            use_bdds=artifact.use_bdds,
        )
        baselines: Dict[str, ClassBaseline] = {
            baseline.prefix: baseline for baseline in fanout.execute()
        }

        return cls(
            fingerprint=network_fingerprint(network),
            network_name=network.name,
            use_bdds=artifact.use_bdds,
            encoded=artifact,
            baselines=baselines,
            build_seconds=time.perf_counter() - start,
        )

    def baseline_for(self, prefix) -> Optional[ClassBaseline]:
        return self.baselines.get(str(prefix))

    def matches(self, network: Network) -> bool:
        """Whether ``network``'s content fingerprint equals this artifact's."""
        return network_fingerprint(network) == self.fingerprint

    def stats(self) -> Dict[str, object]:
        return {
            "fingerprint": self.fingerprint,
            "network_name": self.network_name,
            "use_bdds": self.use_bdds,
            "num_classes": len(self.baselines),
            "compressed_classes": sum(
                1 for b in self.baselines.values() if b.compression is not None
            ),
            "build_seconds": self.build_seconds,
            "schema_version": self.schema_version,
        }
