"""Bonsai: control plane compression (Beckett et al., SIGCOMM 2018).

This package reimplements the paper's system in pure Python: the Stable
Routing Problem (SRP) model, protocol models, a configuration IR, a BDD
engine for canonical policy comparison, the abstraction-refinement
compression algorithm, and the downstream analyses used in the evaluation.

Typical usage::

    from repro import Bonsai, fattree_network

    network = fattree_network(k=4)
    bonsai = Bonsai(network)
    results = bonsai.compress_all(limit=4)
    print(bonsai.summarize(results).as_row())
"""

from repro._lazy import lazy_exports

__version__ = "1.0.0"

# Resolved on first use (see repro._lazy): ``import repro`` loads no pillar.
__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    ".abstraction": (
        "Bonsai", "CompressionResult", "CompressionSummary", "NetworkAbstraction",
        "build_abstract_srp", "check_bgp_effective", "check_cp_equivalence",
        "check_effective", "compute_abstraction",
    ),
    ".analysis": (
        "compute_forwarding_table", "BatchVerifier", "PropertySuite", "VerificationReport",
    ),
    ".config": ("Network", "Prefix", "parse_network"),
    ".delta": (
        "ChangeSet", "DeltaReport", "DeltaSweep", "load_change_script", "sweep_changes",
    ),
    ".failures": (
        "FailureScenario", "FailureSweep", "FailureReport", "enumerate_link_failures",
        "incremental_resolve", "sweep_network",
    ),
    ".netgen": (
        "datacenter_network", "fattree_network", "full_mesh_network", "ring_network",
        "wan_network",
    ),
    ".routing": (
        "build_bgp_srp", "build_multiprotocol_srp", "build_ospf_srp", "build_rip_srp",
        "build_static_srp",
    ),
    ".pipeline": (
        "CompressionPipeline", "EncodedNetwork", "PipelineError", "PipelineReport",
    ),
    ".srp": ("SRP", "Solution", "solve"),
    ".topology": ("Graph",),
    ".reporting": ("ReportEnvelope", "load_report"),
    ".store": (
        "ArtifactStore", "BaselineArtifact", "ClassBaseline", "StoreError",
        "network_fingerprint",
    ),
    ".api": ("Session",),
    ".serve": ("VerificationService", "warm_service"),
})
__all__.append("__version__")
