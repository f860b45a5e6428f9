"""SRP solutions: labelings, forwarding relations and stability checks (§3.1).

A *solution* to an SRP is a labeling ``L : V -> A⊥`` satisfying the
stability constraints of Figure 4: the destination keeps its initial
attribute, a node with no offers has no route, and every other node holds a
minimal offered attribute.  The induced forwarding relation ``fwd_L(u)``
contains the edges whose offered attribute is as good as the chosen one.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.srp.instance import SRP
from repro.topology.graph import Edge, Node

Attribute = Any
Labeling = Dict[Node, Optional[Attribute]]


@dataclass
class Solution:
    """A stable solution to an SRP.

    Attributes
    ----------
    srp:
        The instance this labels.
    labeling:
        The attribute chosen at each node (``None`` meaning no route).
    transfer_cache:
        Optional memo of ``(edge, neighbour_label) -> transferred
        attribute`` filled in by the solver; seeds incremental re-solves.
    """

    srp: SRP
    labeling: Labeling = field(default_factory=dict)
    transfer_cache: Optional[Dict] = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Forwarding
    # ------------------------------------------------------------------
    @cached_property
    def forwarding(self) -> Dict[Node, Tuple[Edge, ...]]:
        """The paper's ``fwd_L``: per non-destination node, the edges
        carrying an offer as good as its chosen attribute (none for a node
        with no route), in out-edge order.  The worklist solvers assign it
        from the offer tables they converged on; it is derived here, through
        the live transfer, only for a solution built by hand."""
        srp = self.srp
        forwarding = {}
        for node in srp.graph.nodes:
            if node == srp.destination:
                continue
            chosen = self.labeling.get(node)
            forwarding[node] = () if chosen is None else tuple(
                edge
                for edge, attr in srp.choices(node, self.labeling)
                if srp.equally_preferred(attr, chosen)
            )
        return forwarding

    def next_hops(self, node: Node) -> Set[Node]:
        """The neighbours ``node`` forwards traffic to."""
        return {v for _, v in self.forwarding.get(node, ())}

    # ------------------------------------------------------------------
    # Stability
    # ------------------------------------------------------------------
    def is_stable(self) -> bool:
        """True iff the labeling satisfies the SRP solution constraints."""
        return not self.violations()

    def violations(self) -> List[str]:
        """Human-readable descriptions of every stability violation."""
        problems: List[str] = []
        srp = self.srp
        for node in srp.graph.nodes:
            label = self.labeling.get(node)
            if node == srp.destination:
                if label != srp.initial:
                    problems.append(
                        f"destination {node!r} labelled {label!r}, expected {srp.initial!r}"
                    )
                continue
            offers = [attr for _, attr in srp.choices(node, self.labeling)]
            if not offers:
                if label is not None:
                    problems.append(f"{node!r} has no offers but is labelled {label!r}")
                continue
            if label is None:
                problems.append(f"{node!r} has offers {offers!r} but no route")
                continue
            if not any(srp.equally_preferred(label, offer) for offer in offers):
                problems.append(f"{node!r} label {label!r} is not among its offers")
                continue
            better = [offer for offer in offers if srp.prefer(offer, label)]
            if better:
                problems.append(
                    f"{node!r} label {label!r} is not minimal; better offers: {better!r}"
                )
        return problems
