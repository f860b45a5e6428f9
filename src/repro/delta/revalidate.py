"""Abstraction revalidation: does the baseline Bonsai survive a change?

Compression is the expensive half of change validation, so the sweep
asks, per destination class: can the baseline abstraction be *reused* for
the changed network, or must the class be re-compressed?

The decision is a signature comparison.  Refinement is a pure function of
(graph, per-edge specialized policy keys, origin set, per-node
local-preference sets) -- exactly the inputs the PR-3 cross-class
refinement cache keys on -- so if the changed network's signature for a
class equals the baseline's, the refinement problem is *identical* and
the baseline :class:`~repro.abstraction.bonsai.CompressionResult` is
still an effective abstraction of the changed network.  The signature
uses the specialized *syntactic* keys (canonical per destination): they
are conservative -- syntactically different but semantically equal
policies re-compress unnecessarily -- but never unsound, because
syntactic equality implies transfer equality.

On a mismatch the class is checked against a re-compression of the
changed network instead (a fresh :class:`~repro.abstraction.bonsai.Bonsai`;
changed configurations may enlarge the policy universe, so the baseline's
BDD encoder is not blindly reused the way the failure checker can).

That decision is all this module owns; the check itself, ending either
way in a differential lifted-vs-concrete verdict comparison, is the one
both perturbation kinds share
(:func:`~repro.pipeline.perturb.check_abstraction`).
"""

from __future__ import annotations

import time
from functools import partial
from typing import Callable, Dict, FrozenSet, List, Optional, Tuple

from repro.abstraction.bonsai import Bonsai, CompressionResult
from repro.abstraction.ec import EquivalenceClass
from repro.analysis.properties import PropertySpec, VerdictMap
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import syntactic_policy_keys
from repro.pipeline.perturb import AbstractionCheck, AbstractSide, check_abstraction


# ----------------------------------------------------------------------
# Signatures
# ----------------------------------------------------------------------
def class_signature(
    network: Network,
    prefix: Prefix,
    origins: FrozenSet[str],
    keys: Optional[Dict] = None,
) -> Tuple:
    """The refinement-input signature of one destination class.

    Two networks with equal signatures for a class pose the identical
    refinement problem: same node set, same directed edges (the key map's
    domain), same specialized per-edge policy keys, same origins (hence
    the same virtual-destination shape) and same per-node local-preference
    sets.  ``keys`` lets a caller that already specialized the network's
    policy keys for this prefix (the sweep's edge diff) share them.

    Signatures are compared with :func:`signature_matches`, not hashed:
    the key maps stay plain dicts so an equality check short-circuits on
    the first difference instead of paying a full deep hash up front.
    """
    if keys is None:
        keys = syntactic_policy_keys(network, prefix)
    return (
        frozenset(str(node) for node in network.graph.nodes),
        keys,
        frozenset(str(origin) for origin in origins),
        network.local_pref_values_by_device(),
    )


def signature_matches(baseline_signature: Tuple, changed_signature: Tuple) -> str:
    """"" when the signatures coincide, else a human-readable reason."""
    base_nodes, base_keys, base_origins, base_lp = baseline_signature
    new_nodes, new_keys, new_origins, new_lp = changed_signature
    if base_nodes != new_nodes:
        return "topology changed: node set differs"
    if base_origins != new_origins:
        added = sorted(new_origins - base_origins)
        gone = sorted(base_origins - new_origins)
        return f"origin set changed (+{added}, -{gone})"
    if set(base_keys) != set(new_keys):
        return "topology changed: edge set differs"
    if base_keys != new_keys:
        differing = sorted(
            str(edge)
            for edge in set(base_keys) | set(new_keys)
            if base_keys.get(edge) != new_keys.get(edge)
        )[:3]
        return f"specialized policy keys differ on {differing}"
    if base_lp != new_lp:
        return "per-device local-preference sets differ"
    return ""


# ----------------------------------------------------------------------
# The revalidator
# ----------------------------------------------------------------------
def revalidate_class(
    baseline: CompressionResult,
    baseline_signature: Tuple,
    changed_network: Network,
    changed_ec: EquivalenceClass,
    concrete_verdicts: VerdictMap,
    specs: List[PropertySpec],
    waypoints: FrozenSet[str],
    path_bound: int,
    recompress_bonsai: Callable[[], Bonsai],
    changed_keys: Optional[Dict] = None,
    baseline_lifted: Optional[VerdictMap] = None,
) -> Tuple[AbstractionCheck, Dict[str, float]]:
    """Decide reuse-vs-recompress for one class and differentially verify;
    returns the check and the change kind's own wire keys (its timings).

    ``concrete_verdicts`` are the per-node verdicts already computed on
    the changed concrete network by the sweep's incremental re-solve;
    ``recompress_bonsai`` lazily supplies a :class:`Bonsai` over the
    changed network (shared across classes by the sweep task) so the
    re-compression path does not rebuild the policy encoder per class.
    ``changed_keys`` shares the sweep's already-specialized policy keys;
    ``baseline_lifted`` shares a previous step's reuse-side lifted
    verdict map (valid because a matching signature fixes the abstract
    SRP, the node set and the waypoint set).
    """
    start = time.perf_counter()
    changed_signature = class_signature(
        changed_network, changed_ec.prefix, changed_ec.origins, keys=changed_keys
    )
    reason = signature_matches(baseline_signature, changed_signature)
    nodes = sorted(str(n) for n in changed_network.graph.nodes)
    checked = time.perf_counter()
    check = check_abstraction(
        reason,
        # A reused abstraction stands for the baseline prefix even where
        # the changed trie re-shaped it.
        partial(AbstractSide.of, baseline),
        lambda: recompress_bonsai().compress(changed_ec, build_network=False),
        concrete_verdicts, specs, nodes, waypoints, path_bound,
        lifted=baseline_lifted,
    )
    done = time.perf_counter()
    # Reuse charges the signature check plus the lifting to the
    # revalidation; a re-compression is timed on its own.
    return check, {
        "seconds": (done if check.held else checked) - start,
        "recompress_seconds": 0.0 if check.held else done - checked,
    }
