"""A size-parameterised registry of the generated topology families.

The compression pipeline CLI (``python -m repro.pipeline``) and the scaling
benchmark address every generator through one ``(family, size)`` interface,
so this module maps each family name to a builder taking a single integer:

* ``fattree`` -- ``size`` is the arity ``k`` (must be even);
* ``mesh`` / ``ring`` -- ``size`` is the number of routers;
* ``datacenter`` -- ``size`` is the number of clusters (other knobs follow
  the small test scale);
* ``wan`` -- ``size`` is the number of regions (other knobs follow the
  small test scale).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.config.network import Network
from repro.netgen.datacenter import DatacenterParams, datacenter_network
from repro.netgen.fattree import fattree_network
from repro.netgen.mesh import full_mesh_network
from repro.netgen.ring import ring_network
from repro.netgen.wan import WanParams, wan_network


def _datacenter(size: int) -> Network:
    return datacenter_network(
        DatacenterParams(
            clusters=size,
            spines_per_cluster=2,
            leaves_per_cluster=4,
            core_routers=2,
            static_leaves_per_cluster=1,
        )
    )


def _wan(size: int) -> Network:
    return wan_network(
        WanParams(
            core_routers=2,
            regions=size,
            access_per_region=4,
            static_access_per_region=1,
        )
    )


#: family name -> (builder, human description of the size parameter).
TOPOLOGY_FAMILIES: Dict[str, Tuple[Callable[[int], Network], str]] = {
    "fattree": (fattree_network, "fat-tree arity k (even)"),
    "mesh": (full_mesh_network, "number of routers"),
    "ring": (ring_network, "number of routers"),
    "datacenter": (_datacenter, "number of clusters"),
    "wan": (_wan, "number of regions"),
}

#: The size each family defaults to when the CLI is invoked without
#: ``--size`` (small enough for smoke runs, large enough to compress).
DEFAULT_FAMILY_SIZES: Dict[str, int] = {
    "fattree": 4,
    "mesh": 6,
    "ring": 8,
    "datacenter": 2,
    "wan": 2,
}


#: Scenario-aware failure-sweep defaults: how many scenarios a
#: ``failures`` run samples per family when the user does not say.
#: ``None`` means "enumerate exhaustively" -- right for sparse families
#: whose ≤k spaces stay small (fat-trees, rings); dense or large families
#: (the full mesh most of all: C(n*(n-1)/2, k) scenarios) get a
#: deterministic seeded sample so default sweeps stay interactive.
DEFAULT_FAILURE_SAMPLES: Dict[str, Optional[int]] = {
    "fattree": None,
    "ring": None,
    "mesh": 24,
    "datacenter": 32,
    "wan": 32,
}


def default_size(family: str) -> int:
    """The default size parameter for ``family``."""
    try:
        return DEFAULT_FAMILY_SIZES[family]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_FAMILIES))
        raise ValueError(
            f"unknown topology family {family!r}; expected one of: {known}"
        ) from None


def default_failure_sample(family: str, k: int = 1) -> Optional[int]:
    """The default scenario-sample cap for a failure sweep of ``family``.

    Exhaustive single-link sweeps are the audit operators actually run, so
    ``k=1`` enumerates exhaustively everywhere; beyond that the per-family
    cap applies (``None`` keeps exhaustive enumeration).
    """
    try:
        cap = DEFAULT_FAILURE_SAMPLES[family]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_FAMILIES))
        raise ValueError(
            f"unknown topology family {family!r}; expected one of: {known}"
        ) from None
    if k <= 1:
        return None
    return cap


def build_topology(family: str, size: Optional[int] = None) -> Network:
    """Build a configured network of ``family`` at ``size`` (default size
    per :data:`DEFAULT_FAMILY_SIZES` when omitted)."""
    try:
        builder, _ = TOPOLOGY_FAMILIES[family]
    except KeyError:
        known = ", ".join(sorted(TOPOLOGY_FAMILIES))
        raise ValueError(f"unknown topology family {family!r}; expected one of: {known}")
    return builder(size if size is not None else default_size(family))
