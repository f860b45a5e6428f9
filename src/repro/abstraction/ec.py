"""Destination equivalence classes (§5.1).

Routing announcements for unrelated destinations do not interact, so
Bonsai partitions the destination IP space using a prefix trie built from
every prefix the configurations mention and computes one abstraction per
class.  An :class:`EquivalenceClass` carries the class's representative
prefix and the devices that originate it; classes are disjoint, so they can
be compressed (and analysed) independently and in parallel.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.config.network import Network
from repro.config.prefix import Prefix


@dataclass(frozen=True)
class EquivalenceClass:
    """One destination equivalence class."""

    prefix: Prefix
    origins: frozenset

    @property
    def is_routable(self) -> bool:
        """Whether any device originates a route for this class."""
        return bool(self.origins)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"EC({self.prefix}, origins={sorted(map(str, self.origins))})"


def compute_equivalence_classes(network: Network) -> List[EquivalenceClass]:
    """All destination equivalence classes of a configured network."""
    return [
        EquivalenceClass(prefix=prefix, origins=frozenset(origins))
        for prefix, origins in network.destination_equivalence_classes()
    ]


def routable_equivalence_classes(network: Network) -> List[EquivalenceClass]:
    """Only the classes some device actually originates."""
    return [ec for ec in compute_equivalence_classes(network) if ec.is_routable]
