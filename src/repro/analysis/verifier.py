"""All-pairs reachability verification (the Minesweeper/NoD substitute, §8).

The paper's Figure 12 measures how long an external verifier
(Minesweeper) takes to answer an *all-pairs reachability* query on the
concrete network versus on the Bonsai-compressed network.  Minesweeper is
an SMT-based tool that is not available here; this module provides an
explicit-state verifier with the same interface and the same asymptotic
pain: its cost grows with (number of equivalence classes) x (number of
nodes) x (solution size), so compressing the network shrinks the work
super-linearly -- which is the shape Figure 12 demonstrates.

The verifier also supports a per-query timeout and a work budget so the
benchmarks can report timeouts the way the paper's plots do.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.analysis.dataplane import compute_forwarding_table
from repro.analysis.properties import reachable_sources
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.topology.graph import Node


class VerificationTimeout(Exception):
    """Raised when a verification run exceeds its time budget.

    ``partial`` carries whatever result the run produced before the budget
    ran out (a :class:`VerificationResult` here, a
    :class:`repro.analysis.batch.VerificationReport` for batch runs), so a
    caller that catches the timeout still sees the work that finished --
    the timeout is reported, never swallowed.
    """

    def __init__(self, message: str = "verification timed out", partial=None):
        super().__init__(message)
        self.partial = partial


@dataclass
class ReachabilityMatrix:
    """Which sources can reach which destination classes."""

    reachable: Dict[Prefix, Set[Node]] = field(default_factory=dict)

    def holds(self, source: Node, destination: Prefix) -> bool:
        for prefix, sources in self.reachable.items():
            if prefix.contains(destination) or destination.contains(prefix):
                return source in sources
        return False

    def total_pairs(self) -> int:
        return sum(len(sources) for sources in self.reachable.values())


@dataclass
class VerificationResult:
    """Outcome of an all-pairs reachability verification run."""

    network_name: str
    seconds: float
    classes_checked: int
    pairs_checked: int
    unreachable_pairs: int
    timed_out: bool = False
    compression_seconds: float = 0.0

    @property
    def total_seconds(self) -> float:
        """Verification time including any compression preprocessing."""
        return self.seconds + self.compression_seconds


def verify_all_pairs_reachability(
    network: Network,
    classes: Optional[List[EquivalenceClass]] = None,
    timeout_seconds: Optional[float] = None,
    raise_on_timeout: bool = False,
) -> VerificationResult:
    """Check reachability from every node to every destination class.

    This simulates the control plane of each class and records, per
    source, whether following its forwarding reaches the destination.
    With ``timeout_seconds`` set, the run aborts once the budget is
    exhausted, mirroring the 10-minute timeout used in the paper's
    Figure 12: the result reports ``timed_out=True``, and with
    ``raise_on_timeout`` a :class:`VerificationTimeout` carrying that
    partial result is raised instead of returning it quietly.
    """
    start = time.perf_counter()
    if classes is None:
        classes = routable_equivalence_classes(network)
    pairs = 0
    unreachable = 0
    checked = 0
    timed_out = False
    for ec in classes:
        if timeout_seconds is not None and time.perf_counter() - start > timeout_seconds:
            timed_out = True
            break
        table = compute_forwarding_table(network, ec)
        pairs += len(table.next_hops)
        unreachable += len(table.next_hops) - len(reachable_sources(table))
        checked += 1
    elapsed = time.perf_counter() - start
    result = VerificationResult(
        network_name=network.name,
        seconds=elapsed,
        classes_checked=checked,
        pairs_checked=pairs,
        unreachable_pairs=unreachable,
        timed_out=timed_out,
    )
    if timed_out and raise_on_timeout:
        raise VerificationTimeout(
            f"all-pairs verification of {network.name} exceeded "
            f"{timeout_seconds}s after {checked} classes",
            partial=result,
        )
    return result


def verify_with_abstraction(
    network: Network,
    classes: Optional[List[EquivalenceClass]] = None,
    timeout_seconds: Optional[float] = None,
    use_bdds: bool = True,
    raise_on_timeout: bool = False,
) -> VerificationResult:
    """Compress each class with Bonsai first, then verify the small network.

    The reported time includes partitioning, BDD construction and
    compression, exactly as in the paper's Figure 12 ("the verification
    time for abstract networks includes the time used to partition the
    network, build the BDDs, and compute the compressed network").

    On budget exhaustion the partial result reports ``timed_out=True``;
    with ``raise_on_timeout`` a :class:`VerificationTimeout` carrying that
    partial result is raised instead (reported, not swallowed).
    """
    start = time.perf_counter()
    bonsai = Bonsai(network, use_bdds=use_bdds)
    if classes is None:
        classes = bonsai.equivalence_classes()
    pairs = 0
    unreachable = 0
    checked = 0
    timed_out = False
    for ec in classes:
        if timeout_seconds is not None and time.perf_counter() - start > timeout_seconds:
            timed_out = True
            break
        result = bonsai.compress(ec, build_network=True)
        abstract_network = result.abstract_network
        if abstract_network is None:
            continue
        abstract_classes = routable_equivalence_classes(abstract_network)
        relevant = [
            abstract_ec
            for abstract_ec in abstract_classes
            if abstract_ec.prefix.overlaps(ec.prefix)
        ] or abstract_classes
        for abstract_ec in relevant:
            table = compute_forwarding_table(abstract_network, abstract_ec)
            pairs += len(table.next_hops)
            unreachable += len(table.next_hops) - len(reachable_sources(table))
        checked += 1
    elapsed = time.perf_counter() - start
    result = VerificationResult(
        network_name=f"{network.name} (abstract)",
        seconds=elapsed,
        classes_checked=checked,
        pairs_checked=pairs,
        unreachable_pairs=unreachable,
        timed_out=timed_out,
        compression_seconds=bonsai.bdd_seconds,
    )
    if timed_out and raise_on_timeout:
        raise VerificationTimeout(
            f"abstract verification of {network.name} exceeded "
            f"{timeout_seconds}s after {checked} classes",
            partial=result,
        )
    return result


def single_reachability_query(
    network: Network,
    source: Node,
    destination: Prefix,
    use_abstraction: bool = False,
) -> Tuple[bool, float]:
    """A single source/destination reachability query (§8's Batfish query).

    With ``use_abstraction`` the query first compresses only the relevant
    destination class and then answers on the compressed network.
    Returns ``(reachable, seconds)``.
    """
    start = time.perf_counter()
    if not use_abstraction:
        classes = [
            ec
            for ec in routable_equivalence_classes(network)
            if ec.prefix.overlaps(destination)
        ]
        if not classes:
            return False, time.perf_counter() - start
        table = compute_forwarding_table(network, classes[0])
        return table.reachable(source), time.perf_counter() - start

    bonsai = Bonsai(network)
    classes = [
        ec for ec in bonsai.equivalence_classes() if ec.prefix.overlaps(destination)
    ]
    if not classes:
        return False, time.perf_counter() - start
    result = bonsai.compress(classes[0], build_network=True)
    abstract_network = result.abstract_network
    assert abstract_network is not None
    abstract_source = result.abstraction.f(source)
    abstract_classes = [
        ec
        for ec in routable_equivalence_classes(abstract_network)
        if ec.prefix.overlaps(destination)
    ]
    if not abstract_classes:
        return False, time.perf_counter() - start
    table = compute_forwarding_table(abstract_network, abstract_classes[0])
    reachable = any(
        table.reachable(copy)
        for copy in result.abstraction.copies_of(abstract_source)
    )
    return reachable, time.perf_counter() - start
