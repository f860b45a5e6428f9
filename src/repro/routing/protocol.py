"""Generic protocol interface used to build SRP instances (§3).

The paper factors every routing protocol into two generic parts:

1. a *comparison relation* ``≺`` that prefers certain attributes, and
2. a *transfer function* that transforms messages along edges.

A :class:`Protocol` bundles the comparison relation, the destination's
initial attribute, and a way to construct per-edge transfer functions.  The
SRP machinery in :mod:`repro.srp` is written purely against this interface,
so adding a protocol does not require touching the solver or the
abstraction algorithm.
"""

from __future__ import annotations

import abc
from typing import Any, Callable, Optional

from repro.topology.graph import Edge, Node

Attribute = Any
TransferFn = Callable[[Edge, Optional[Attribute]], Optional[Attribute]]


class Protocol(abc.ABC):
    """Abstract base for routing-protocol models.

    Subclasses provide the protocol name, the initial attribute announced
    by the destination, the strict preference relation, and a factory for
    per-edge transfer functions.
    """

    #: Short protocol identifier (e.g. ``"rip"``, ``"bgp"``).
    name: str = "abstract"

    @abc.abstractmethod
    def initial_attribute(self, destination: Node) -> Attribute:
        """The attribute ``ad`` the destination announces for itself."""

    @abc.abstractmethod
    def prefer(self, a: Attribute, b: Attribute) -> bool:
        """True iff ``a`` is *strictly* preferred to ``b`` (the paper's ``a ≺ b``)."""

    @abc.abstractmethod
    def default_transfer(self, edge: Edge, attribute: Optional[Attribute]) -> Optional[Attribute]:
        """The protocol's built-in transfer along ``edge`` with no extra policy.

        ``edge`` is ``(u, v)`` and ``attribute`` is the label of the
        *neighbour* ``v``; the result is the attribute as received at ``u``
        (or ``None`` when the route is dropped).
        """

    #: Optional sort key of ``≺``: ``prefer(a, b) ⟺ rank(a) < rank(b)``
    #: (so ``a ≈ b ⟺ rank(a) == rank(b)``) for every attribute the
    #: protocol's transfers can produce.  The solver then compares one
    #: memoised rank per attribute; ``None`` keeps it calling ``prefer``.
    rank: Optional[Callable[[Attribute], Any]] = None

    # ------------------------------------------------------------------
    # Derived comparisons
    # ------------------------------------------------------------------
    def equally_preferred(self, a: Attribute, b: Attribute) -> bool:
        """The paper's ``a ≈ b``: neither attribute is strictly preferred."""
        return not self.prefer(a, b) and not self.prefer(b, a)

    def best(self, attributes) -> Optional[Attribute]:
        """A minimal element of ``attributes`` under ``≺`` (ties broken by
        deterministic ordering of the remaining candidates), or ``None`` for
        an empty collection."""
        best: Optional[Attribute] = None
        for attr in attributes:
            if best is None or self.prefer(attr, best):
                best = attr
        return best

    # ------------------------------------------------------------------
    # Attribute abstraction (the paper's ``h``)
    # ------------------------------------------------------------------
    def abstract_attribute(
        self, attribute: Optional[Attribute], node_map: Callable[[Node], Node]
    ) -> Optional[Attribute]:
        """Apply the attribute abstraction ``h`` induced by a node map ``f``.

        For most protocols ``h`` is the identity; path-vector protocols
        override this to map the AS path through ``f``.  ``None`` always
        maps to ``None`` (drop-equivalence).
        """
        if attribute is None:
            return None
        return attribute

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__} {self.name}>"
