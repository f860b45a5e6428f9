"""IPv4 prefixes and the prefix trie used for destination equivalence classes.

Bonsai builds one abstraction per *destination equivalence class* (§5.1):
announcements for different destinations do not interact, so the IP space
is partitioned by the prefixes that appear anywhere in the configurations
(originated networks, static routes, prefix-list entries), and one abstract
network is computed per class.  The partitioning uses a binary prefix trie
whose leaves carry the set of destination (originating) nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Set, Tuple


def _parse_ipv4(address: str) -> int:
    parts = address.split(".")
    if len(parts) != 4:
        raise ValueError(f"malformed IPv4 address {address!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if octet < 0 or octet > 255:
            raise ValueError(f"malformed IPv4 address {address!r}")
        value = (value << 8) | octet
    return value


def _format_ipv4(value: int) -> str:
    return ".".join(str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0))


@dataclass(frozen=True, order=True)
class Prefix:
    """An IPv4 prefix ``address/length`` with host bits zeroed."""

    address: int
    length: int

    def __post_init__(self) -> None:
        if self.length < 0 or self.length > 32:
            raise ValueError(f"invalid prefix length {self.length}")
        if self.address < 0 or self.address >= (1 << 32):
            raise ValueError("address out of IPv4 range")
        mask = self.mask()
        if self.address & ~mask & 0xFFFFFFFF:
            # Normalise host bits instead of rejecting: mirror router behaviour.
            object.__setattr__(self, "address", self.address & mask)

    @classmethod
    def parse(cls, text: str) -> "Prefix":
        """Parse ``"10.0.1.0/24"`` (a bare address is treated as a /32)."""
        text = text.strip()
        if "/" in text:
            addr, _, length = text.partition("/")
            return cls(_parse_ipv4(addr), int(length))
        return cls(_parse_ipv4(text), 32)

    def mask(self) -> int:
        """The network mask as a 32-bit integer."""
        if self.length == 0:
            return 0
        return ((1 << self.length) - 1) << (32 - self.length)

    def contains(self, other: "Prefix") -> bool:
        """True if ``other`` is equal to or more specific than this prefix."""
        if other.length < self.length:
            return False
        return (other.address & self.mask()) == self.address

    def overlaps(self, other: "Prefix") -> bool:
        return self.contains(other) or other.contains(self)

    def bits(self) -> Tuple[int, ...]:
        """The prefix's significant bits, most significant first."""
        return tuple((self.address >> (31 - i)) & 1 for i in range(self.length))

    def child(self, bit: int) -> "Prefix":
        """The length+1 sub-prefix obtained by appending ``bit``."""
        if self.length >= 32:
            raise ValueError("cannot extend a /32 prefix")
        address = self.address
        if bit:
            address |= 1 << (31 - self.length)
        return Prefix(address, self.length + 1)

    def __str__(self) -> str:
        return f"{_format_ipv4(self.address)}/{self.length}"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Prefix({str(self)!r})"


#: The whole IPv4 space.
DEFAULT_PREFIX = Prefix(0, 0)


@dataclass
class _TrieNode:
    prefix: Prefix
    origins: Set[str] = field(default_factory=set)
    marked: bool = False
    children: Dict[int, "_TrieNode"] = field(default_factory=dict)


class PrefixTrie:
    """A binary trie over prefixes.

    Prefixes are inserted with an optional set of *origin* nodes (the
    routers that originate a route for the prefix).  The trie extracts
    destination equivalence classes: one class per marked trie node that
    has at least one origin, where the class's origins are those of the
    longest marked ancestor-or-self prefix.
    """

    def __init__(self) -> None:
        self._root = _TrieNode(prefix=DEFAULT_PREFIX)
        self._count = 0

    def insert(self, prefix: Prefix, origins: Iterable[str] = ()) -> None:
        """Insert ``prefix``, recording ``origins`` as its originating nodes."""
        node = self._root
        for bit in prefix.bits():
            if bit not in node.children:
                node.children[bit] = _TrieNode(prefix=node.prefix.child(bit))
            node = node.children[bit]
        if not node.marked:
            self._count += 1
        node.marked = True
        node.origins.update(origins)

    def __len__(self) -> int:
        return self._count

    def marked_prefixes(self) -> List[Prefix]:
        """All inserted prefixes, in trie (address) order."""
        result: List[Prefix] = []

        def walk(node: _TrieNode) -> None:
            if node.marked:
                result.append(node.prefix)
            for bit in sorted(node.children):
                walk(node.children[bit])

        walk(self._root)
        return result

    def equivalence_classes(self) -> List[Tuple[Prefix, Set[str]]]:
        """Destination equivalence classes as ``(prefix, origin nodes)`` pairs.

        A class is produced for every marked prefix; its origins are those
        of the prefix itself if present, otherwise inherited from the
        nearest marked ancestor.  Classes with no origins anywhere are kept
        (with an empty origin set) so that callers can report unroutable
        destinations.
        """
        result: List[Tuple[Prefix, Set[str]]] = []

        def walk(node: _TrieNode, inherited: Set[str]) -> None:
            current = inherited
            if node.marked:
                current = set(node.origins) if node.origins else set(inherited)
                result.append((node.prefix, current))
            for bit in sorted(node.children):
                walk(node.children[bit], current)

        walk(self._root, set())
        return result

    def __iter__(self) -> Iterator[Prefix]:
        return iter(self.marked_prefixes())
