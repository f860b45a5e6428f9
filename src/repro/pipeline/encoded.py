"""The pickleable one-time encoding artifact shared by all workers.

Compressing a network involves two very different kinds of work: a
*one-time* phase (discovering the destination equivalence classes and
encoding every interface policy as a BDD) and a *per-class* phase
(specialize, refine, emit).  The per-class work is embarrassingly parallel
-- classes never interact (§5.1) -- but only if the one-time artifacts can
be handed to each worker instead of being recomputed there.

:class:`EncodedNetwork` is that artifact: the configured network, its
equivalence classes and the fully encoded policy-BDD store, all in plain
pickleable data.  Each worker unpickles its own copy, which also gives it
its own :class:`~repro.bdd.manager.BddManager` so hash-consing stays
process-local (BDD node ids are only meaningful relative to one manager).
"""

from __future__ import annotations

import pickle
import time
from dataclasses import dataclass
from typing import List, Optional

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.bdd.policy import PolicyBddEncoder
from repro.config.network import Network


@dataclass
class EncodedNetwork:
    """Everything a compression worker needs, encoded once."""

    network: Network
    classes: List[EquivalenceClass]
    encoder: PolicyBddEncoder
    encode_seconds: float

    @classmethod
    def build(
        cls,
        network: Network,
        encoder: Optional[PolicyBddEncoder] = None,
    ) -> "EncodedNetwork":
        """Run the one-time phase: enumerate classes and encode the BDDs.

        A pre-built ``encoder`` (for example from an existing
        :class:`~repro.abstraction.bonsai.Bonsai`) is reused as-is.
        """
        start = time.perf_counter()
        classes = routable_equivalence_classes(network)
        if encoder is None:
            encoder = PolicyBddEncoder(network)
            encoder.encode_all_edges()
        return cls(
            network=network,
            classes=classes,
            encoder=encoder,
            encode_seconds=time.perf_counter() - start,
        )

    def make_bonsai(self) -> Bonsai:
        """A :class:`Bonsai` wired to this artifact's pre-built encoder."""
        bonsai = Bonsai(self.network, encoder=self.encoder)
        bonsai.bdd_seconds = self.encode_seconds
        return bonsai

    # ------------------------------------------------------------------
    # Wire format
    # ------------------------------------------------------------------
    def to_bytes(self) -> bytes:
        """Serialise the artifact for shipping to workers."""
        return pickle.dumps(self, protocol=pickle.HIGHEST_PROTOCOL)

    @classmethod
    def from_bytes(cls, payload: bytes) -> "EncodedNetwork":
        artifact = pickle.loads(payload)
        if not isinstance(artifact, cls):
            raise TypeError(f"expected a pickled {cls.__name__}, got {type(artifact)!r}")
        return artifact
