"""Typed configuration changes: the vocabulary of change-impact analysis.

Bonsai's routine workload at scale is *change validation*: an operator
edits a route map, withdraws a prefix, or decommissions a link and wants
to know what breaks before the change ships.  This module models such
edits as first-class values:

* a :class:`Change` is one typed, JSON-serialisable configuration edit
  (link add/remove/cost, prefix origination add/withdraw, route-map
  clause insert/edit/delete, local-preference override, interface-ACL
  change, device add/remove);
* a :class:`ChangeSet` is an ordered bundle of changes applied
  atomically, with validation against a concrete
  :class:`~repro.config.network.Network` and a **non-mutating**
  :meth:`ChangeSet.apply` in the style of
  :meth:`repro.failures.scenario.FailureScenario.apply`: the derived
  network gets a fresh graph and copy-on-write device configurations --
  only devices a change touches are copied, every other
  :class:`~repro.config.device.DeviceConfig` object is shared with the
  original, so the baseline's fingerprint-guarded memos stay valid and
  "unchanged device" is literally pointer equality.

Changes travel through the pipeline's pickled task options in their wire
form (:meth:`ChangeSet.to_dict`), so change sweeps fan out over the same
serial/process/auto executors as everything else.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple, Type

from repro.config.acl import Acl, AclLine
from repro.config.device import BgpNeighborConfig, DeviceConfig, OspfLinkConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import (
    PrefixList,
    PrefixListEntry,
    RouteMap,
    RouteMapClause,
)
from repro.topology.graph import Graph


class ChangeError(ValueError):
    """Raised for changes that do not fit the network they are applied to."""


# ----------------------------------------------------------------------
# Copy-on-write editing
# ----------------------------------------------------------------------
def _copy_device(device: DeviceConfig) -> DeviceConfig:
    """A private editable copy of one device configuration.

    Containers are copied; the contained route maps, prefix lists, ACLs
    and sessions are immutable (or replaced wholesale on edit), so they
    are shared.
    """
    return DeviceConfig(
        name=device.name,
        asn=device.asn,
        route_maps=dict(device.route_maps),
        community_lists=dict(device.community_lists),
        prefix_lists=dict(device.prefix_lists),
        acls=dict(device.acls),
        bgp_neighbors=dict(device.bgp_neighbors),
        ospf_links=dict(device.ospf_links),
        static_routes=list(device.static_routes),
        originated_prefixes=list(device.originated_prefixes),
        interface_acls=dict(device.interface_acls),
    )


class NetworkEditor:
    """Mutable scratch state a :class:`ChangeSet` application runs against.

    Devices are copy-on-write: :meth:`edit` hands out a private copy the
    first time a device is touched and the same copy afterwards, while
    untouched devices remain the original's objects.
    """

    def __init__(self, network: Network):
        self.graph: Graph = network.graph.copy()
        self.devices: Dict[str, DeviceConfig] = dict(network.devices)
        self.touched: Set[str] = set()

    def has_device(self, name: str) -> bool:
        return name in self.devices

    def device(self, name: str) -> DeviceConfig:
        return self.devices[name]

    def edit(self, name: str) -> DeviceConfig:
        """The editable (copy-on-write) configuration of ``name``."""
        if name not in self.touched:
            self.devices[name] = _copy_device(self.devices[name])
            self.touched.add(name)
        return self.devices[name]

    def add_device(self, name: str, config: DeviceConfig) -> None:
        self.devices[name] = config
        self.touched.add(name)
        self.graph.add_node(name)

    def remove_device(self, name: str) -> None:
        self.graph.remove_node(name)
        self.devices.pop(name, None)
        self.touched.discard(name)

    def build(self, name: str) -> Network:
        return Network(graph=self.graph, devices=dict(self.devices), name=name)


def _clone_session(
    device: DeviceConfig, peer: str
) -> BgpNeighborConfig:
    """A session towards ``peer`` styled after the device's existing ones.

    Link/device additions need BGP sessions to carry routes; cloning the
    policies of the device's first (name-sorted) existing session keeps
    the new session consistent with the device's role instead of
    inventing a policy out of thin air.  A device with no sessions gets a
    policy-free (permit-everything) session.
    """
    template: Optional[BgpNeighborConfig] = None
    for existing_peer in sorted(device.bgp_neighbors):
        template = device.bgp_neighbors[existing_peer]
        break
    return BgpNeighborConfig(
        peer=peer,
        import_policy=template.import_policy if template else None,
        export_policy=template.export_policy if template else None,
        ibgp=template.ibgp if template else False,
    )


# ----------------------------------------------------------------------
# Wire helpers
# ----------------------------------------------------------------------
def _clause_to_dict(clause: RouteMapClause) -> Dict[str, object]:
    return {
        "sequence": clause.sequence,
        "action": clause.action,
        "match_community_lists": list(clause.match_community_lists),
        "match_prefix_lists": list(clause.match_prefix_lists),
        "set_local_pref": clause.set_local_pref,
        "set_communities": list(clause.set_communities),
        "delete_communities": list(clause.delete_communities),
        "prepend_as": clause.prepend_as,
    }


def _clause_from_dict(data: Dict[str, object]) -> RouteMapClause:
    return RouteMapClause(
        sequence=int(data["sequence"]),
        action=str(data.get("action", "permit")),
        match_community_lists=tuple(data.get("match_community_lists", ())),
        match_prefix_lists=tuple(data.get("match_prefix_lists", ())),
        set_local_pref=data.get("set_local_pref"),
        set_communities=tuple(data.get("set_communities", ())),
        delete_communities=tuple(data.get("delete_communities", ())),
        prepend_as=int(data.get("prepend_as", 0)),
    )


def _entry_to_dict(entry: PrefixListEntry) -> Dict[str, object]:
    return {
        "prefix": str(entry.prefix),
        "action": entry.action,
        "ge": entry.ge,
        "le": entry.le,
    }


def _entry_from_dict(data: Dict[str, object]) -> PrefixListEntry:
    return PrefixListEntry(
        prefix=Prefix.parse(str(data["prefix"])),
        action=str(data.get("action", "permit")),
        ge=data.get("ge"),
        le=data.get("le"),
    )


# ----------------------------------------------------------------------
# Change types
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Change:
    """Base class: one typed configuration edit."""

    kind = "change"

    def describe(self) -> str:  # pragma: no cover - overridden everywhere
        return self.kind

    def problems(self, editor: NetworkEditor) -> List[str]:
        """Reasons this change cannot apply to the editor's current state."""
        raise NotImplementedError

    def apply_to(self, editor: NetworkEditor) -> None:
        raise NotImplementedError

    def payload(self) -> Dict[str, object]:
        raise NotImplementedError

    def to_dict(self) -> Dict[str, object]:
        return {"kind": self.kind, **self.payload()}


@dataclass(frozen=True)
class LinkAdd(Change):
    """Commission a new physical link (both directed edges).

    With ``with_bgp`` (the default) a BGP session is established in both
    directions, cloning each endpoint's canonical session policies.
    """

    u: str
    v: str
    with_bgp: bool = True

    kind = "link-add"

    def describe(self) -> str:
        return f"link-add({self.u}|{self.v})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        out = []
        for node in (self.u, self.v):
            if not editor.graph.has_node(node):
                out.append(f"link-add endpoint {node!r} is not in the topology")
        if self.u == self.v:
            out.append("link-add endpoints must differ")
        if editor.graph.has_edge(self.u, self.v) or editor.graph.has_edge(self.v, self.u):
            out.append(f"link {self.u}|{self.v} already exists")
        return out

    def apply_to(self, editor: NetworkEditor) -> None:
        editor.graph.add_undirected_edge(self.u, self.v)
        if self.with_bgp:
            for a, b in ((self.u, self.v), (self.v, self.u)):
                device = editor.edit(a)
                device.bgp_neighbors[b] = _clone_session(device, b)

    def payload(self) -> Dict[str, object]:
        return {"u": self.u, "v": self.v, "with_bgp": self.with_bgp}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkAdd":
        return cls(
            u=str(data["u"]), v=str(data["v"]), with_bgp=bool(data.get("with_bgp", True))
        )


@dataclass(frozen=True)
class LinkRemove(Change):
    """Decommission a link: both directed edges plus the sessions over it.

    Unlike a *failure* (links down, configs untouched), a configuration
    change removes the BGP sessions and OSPF adjacencies riding the link
    so the derived network stays referentially consistent.
    """

    u: str
    v: str

    kind = "link-remove"

    def describe(self) -> str:
        return f"link-remove({self.u}|{self.v})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not (
            editor.graph.has_edge(self.u, self.v) or editor.graph.has_edge(self.v, self.u)
        ):
            return [f"link {self.u}|{self.v} is not in the topology"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        if editor.graph.has_edge(self.u, self.v):
            editor.graph.remove_edge(self.u, self.v)
        if editor.graph.has_edge(self.v, self.u):
            editor.graph.remove_edge(self.v, self.u)
        for a, b in ((self.u, self.v), (self.v, self.u)):
            if not editor.has_device(a):
                continue
            device = editor.device(a)
            if b in device.bgp_neighbors or b in device.ospf_links:
                device = editor.edit(a)
                device.bgp_neighbors.pop(b, None)
                device.ospf_links.pop(b, None)

    def payload(self) -> Dict[str, object]:
        return {"u": self.u, "v": self.v}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkRemove":
        return cls(u=str(data["u"]), v=str(data["v"]))


@dataclass(frozen=True)
class LinkCostSet(Change):
    """Set the OSPF cost of a link (symmetrically by default)."""

    u: str
    v: str
    cost: int
    symmetric: bool = True

    kind = "link-cost"

    def describe(self) -> str:
        return f"link-cost({self.u}|{self.v}={self.cost})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        out = []
        if self.cost < 1:
            out.append("link cost must be >= 1")
        ends = ((self.u, self.v), (self.v, self.u)) if self.symmetric else ((self.u, self.v),)
        for a, b in ends:
            if not editor.has_device(a) or b not in editor.device(a).ospf_links:
                out.append(f"{a} has no OSPF adjacency towards {b}")
        return out

    def apply_to(self, editor: NetworkEditor) -> None:
        ends = ((self.u, self.v), (self.v, self.u)) if self.symmetric else ((self.u, self.v),)
        for a, b in ends:
            device = editor.edit(a)
            old = device.ospf_links[b]
            device.ospf_links[b] = OspfLinkConfig(peer=b, cost=self.cost, area=old.area)

    def payload(self) -> Dict[str, object]:
        return {"u": self.u, "v": self.v, "cost": self.cost, "symmetric": self.symmetric}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LinkCostSet":
        return cls(
            u=str(data["u"]),
            v=str(data["v"]),
            cost=int(data["cost"]),
            symmetric=bool(data.get("symmetric", True)),
        )


@dataclass(frozen=True)
class PrefixOriginate(Change):
    """Start originating ``prefix`` from ``device`` (e.g. anycast it)."""

    device: str
    prefix: Prefix

    kind = "prefix-originate"

    def describe(self) -> str:
        return f"originate({self.device}:{self.prefix})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        if self.prefix in editor.device(self.device).originated_prefixes:
            return [f"{self.device} already originates {self.prefix}"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        editor.edit(self.device).originated_prefixes.append(self.prefix)

    def payload(self) -> Dict[str, object]:
        return {"device": self.device, "prefix": str(self.prefix)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PrefixOriginate":
        return cls(device=str(data["device"]), prefix=Prefix.parse(str(data["prefix"])))


@dataclass(frozen=True)
class PrefixWithdraw(Change):
    """Stop originating ``prefix`` from ``device``."""

    device: str
    prefix: Prefix

    kind = "prefix-withdraw"

    def describe(self) -> str:
        return f"withdraw({self.device}:{self.prefix})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        if self.prefix not in editor.device(self.device).originated_prefixes:
            return [f"{self.device} does not originate {self.prefix}"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        editor.edit(self.device).originated_prefixes.remove(self.prefix)

    def payload(self) -> Dict[str, object]:
        return {"device": self.device, "prefix": str(self.prefix)}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PrefixWithdraw":
        return cls(device=str(data["device"]), prefix=Prefix.parse(str(data["prefix"])))


@dataclass(frozen=True)
class PrefixListSet(Change):
    """Create or replace a named prefix list on a device."""

    device: str
    name: str
    entries: Tuple[PrefixListEntry, ...]

    kind = "prefix-list-set"

    def describe(self) -> str:
        return f"prefix-list({self.device}:{self.name})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        editor.edit(self.device).prefix_lists[self.name] = PrefixList(
            name=self.name, entries=tuple(self.entries)
        )

    def payload(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "name": self.name,
            "entries": [_entry_to_dict(entry) for entry in self.entries],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "PrefixListSet":
        return cls(
            device=str(data["device"]),
            name=str(data["name"]),
            entries=tuple(_entry_from_dict(raw) for raw in data.get("entries", ())),
        )


def _replace_route_map(
    editor: NetworkEditor, device_name: str, map_name: str, clauses: Sequence[RouteMapClause]
) -> None:
    editor.edit(device_name).route_maps[map_name] = RouteMap(
        name=map_name, clauses=tuple(clauses)
    )


@dataclass(frozen=True)
class RouteMapClauseInsert(Change):
    """Insert a new clause into an existing route map (sequence must be free)."""

    device: str
    route_map: str
    clause: RouteMapClause

    kind = "route-map-insert"

    def describe(self) -> str:
        return f"rm-insert({self.device}:{self.route_map}@{self.clause.sequence})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        maps = editor.device(self.device).route_maps
        if self.route_map not in maps:
            return [f"{self.device} has no route-map {self.route_map!r}"]
        if any(c.sequence == self.clause.sequence for c in maps[self.route_map].clauses):
            return [
                f"{self.device}:{self.route_map} already has clause "
                f"{self.clause.sequence} (use route-map-edit)"
            ]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        existing = editor.device(self.device).route_maps[self.route_map].clauses
        _replace_route_map(
            editor, self.device, self.route_map, existing + (self.clause,)
        )

    def payload(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "route_map": self.route_map,
            "clause": _clause_to_dict(self.clause),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RouteMapClauseInsert":
        return cls(
            device=str(data["device"]),
            route_map=str(data["route_map"]),
            clause=_clause_from_dict(data["clause"]),
        )


@dataclass(frozen=True)
class RouteMapClauseEdit(Change):
    """Replace the same-sequence clause of an existing route map."""

    device: str
    route_map: str
    clause: RouteMapClause

    kind = "route-map-edit"

    def describe(self) -> str:
        return f"rm-edit({self.device}:{self.route_map}@{self.clause.sequence})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        maps = editor.device(self.device).route_maps
        if self.route_map not in maps:
            return [f"{self.device} has no route-map {self.route_map!r}"]
        if not any(
            c.sequence == self.clause.sequence for c in maps[self.route_map].clauses
        ):
            return [
                f"{self.device}:{self.route_map} has no clause "
                f"{self.clause.sequence} (use route-map-insert)"
            ]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        existing = editor.device(self.device).route_maps[self.route_map].clauses
        clauses = tuple(
            self.clause if c.sequence == self.clause.sequence else c for c in existing
        )
        _replace_route_map(editor, self.device, self.route_map, clauses)

    def payload(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "route_map": self.route_map,
            "clause": _clause_to_dict(self.clause),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RouteMapClauseEdit":
        return cls(
            device=str(data["device"]),
            route_map=str(data["route_map"]),
            clause=_clause_from_dict(data["clause"]),
        )


@dataclass(frozen=True)
class RouteMapClauseDelete(Change):
    """Delete the clause with ``sequence`` from an existing route map."""

    device: str
    route_map: str
    sequence: int

    kind = "route-map-delete"

    def describe(self) -> str:
        return f"rm-delete({self.device}:{self.route_map}@{self.sequence})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        maps = editor.device(self.device).route_maps
        if self.route_map not in maps:
            return [f"{self.device} has no route-map {self.route_map!r}"]
        if not any(c.sequence == self.sequence for c in maps[self.route_map].clauses):
            return [f"{self.device}:{self.route_map} has no clause {self.sequence}"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        existing = editor.device(self.device).route_maps[self.route_map].clauses
        clauses = tuple(c for c in existing if c.sequence != self.sequence)
        _replace_route_map(editor, self.device, self.route_map, clauses)

    def payload(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "route_map": self.route_map,
            "sequence": self.sequence,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "RouteMapClauseDelete":
        return cls(
            device=str(data["device"]),
            route_map=str(data["route_map"]),
            sequence=int(data["sequence"]),
        )


@dataclass(frozen=True)
class LocalPrefOverride(Change):
    """Prefer routes learned from ``peer``: import local-preference override.

    Installs a single-clause route map assigning ``local_pref`` and points
    the session's import policy at it (replacing the previous import
    policy, as an operator's ``neighbor ... route-map ... in`` would).
    """

    device: str
    peer: str
    local_pref: int

    kind = "local-pref-override"

    def describe(self) -> str:
        return f"local-pref({self.device}<-{self.peer}={self.local_pref})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        if self.local_pref < 1:
            return ["local preference must be >= 1"]
        if self.peer not in editor.device(self.device).bgp_neighbors:
            return [f"{self.device} has no BGP session towards {self.peer}"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        device = editor.edit(self.device)
        map_name = f"DELTA-LP-{self.peer}-{self.local_pref}"
        device.route_maps[map_name] = RouteMap(
            name=map_name,
            clauses=(
                RouteMapClause(
                    sequence=10, action="permit", set_local_pref=self.local_pref
                ),
            ),
        )
        old = device.bgp_neighbors[self.peer]
        device.bgp_neighbors[self.peer] = BgpNeighborConfig(
            peer=self.peer,
            import_policy=map_name,
            export_policy=old.export_policy,
            ibgp=old.ibgp,
        )

    def payload(self) -> Dict[str, object]:
        return {"device": self.device, "peer": self.peer, "local_pref": self.local_pref}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "LocalPrefOverride":
        return cls(
            device=str(data["device"]),
            peer=str(data["peer"]),
            local_pref=int(data["local_pref"]),
        )


@dataclass(frozen=True)
class InterfaceAclSet(Change):
    """Install (or replace) a data-plane ACL on the interface towards ``peer``."""

    device: str
    peer: str
    name: str
    lines: Tuple[AclLine, ...] = ()
    default_action: str = "permit"

    kind = "acl-set"

    def describe(self) -> str:
        return f"acl({self.device}->{self.peer}:{self.name})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.has_device(self.device):
            return [f"device {self.device!r} does not exist"]
        if not editor.graph.has_edge(self.device, self.peer):
            return [f"{self.device} has no interface towards {self.peer}"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        device = editor.edit(self.device)
        device.acls[self.name] = Acl(
            name=self.name, lines=tuple(self.lines), default_action=self.default_action
        )
        device.interface_acls[self.peer] = self.name

    def payload(self) -> Dict[str, object]:
        return {
            "device": self.device,
            "peer": self.peer,
            "name": self.name,
            "lines": [
                {"action": line.action, "prefix": str(line.prefix)} for line in self.lines
            ],
            "default_action": self.default_action,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "InterfaceAclSet":
        return cls(
            device=str(data["device"]),
            peer=str(data["peer"]),
            name=str(data["name"]),
            lines=tuple(
                AclLine(action=str(raw["action"]), prefix=Prefix.parse(str(raw["prefix"])))
                for raw in data.get("lines", ())
            ),
            default_action=str(data.get("default_action", "permit")),
        )


@dataclass(frozen=True)
class DeviceAdd(Change):
    """Commission a new device with links (and cloned sessions) to neighbours."""

    name: str
    neighbours: Tuple[str, ...]
    originated: Optional[Prefix] = None

    kind = "device-add"

    def describe(self) -> str:
        return f"device-add({self.name})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        out = []
        if editor.graph.has_node(self.name):
            out.append(f"device {self.name!r} already exists")
        if not self.neighbours:
            out.append("a new device needs at least one neighbour")
        for peer in self.neighbours:
            if not editor.graph.has_node(peer):
                out.append(f"device-add neighbour {peer!r} is not in the topology")
        return out

    def apply_to(self, editor: NetworkEditor) -> None:
        config = DeviceConfig(name=self.name, asn=self.name)
        if self.originated is not None:
            config.originated_prefixes.append(self.originated)
        editor.add_device(self.name, config)
        for peer in sorted(set(self.neighbours)):
            editor.graph.add_undirected_edge(self.name, peer)
            config.bgp_neighbors[peer] = BgpNeighborConfig(peer=peer)
            neighbour = editor.edit(peer)
            neighbour.bgp_neighbors[self.name] = _clone_session(neighbour, self.name)

    def payload(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "neighbours": list(self.neighbours),
            "originated": None if self.originated is None else str(self.originated),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceAdd":
        originated = data.get("originated")
        return cls(
            name=str(data["name"]),
            neighbours=tuple(str(n) for n in data.get("neighbours", ())),
            originated=None if originated is None else Prefix.parse(str(originated)),
        )


@dataclass(frozen=True)
class DeviceRemove(Change):
    """Decommission a device: its links, and every session pointing at it."""

    name: str

    kind = "device-remove"

    def describe(self) -> str:
        return f"device-remove({self.name})"

    def problems(self, editor: NetworkEditor) -> List[str]:
        if not editor.graph.has_node(self.name):
            return [f"device {self.name!r} is not in the topology"]
        return []

    def apply_to(self, editor: NetworkEditor) -> None:
        neighbours = set(editor.graph.successors(self.name)) | set(
            editor.graph.predecessors(self.name)
        )
        for peer in sorted(neighbours, key=str):
            if not editor.has_device(peer):
                continue
            device = editor.edit(peer)
            device.bgp_neighbors.pop(self.name, None)
            device.ospf_links.pop(self.name, None)
            device.interface_acls.pop(self.name, None)
        editor.remove_device(self.name)

    def payload(self) -> Dict[str, object]:
        return {"name": self.name}

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "DeviceRemove":
        return cls(name=str(data["name"]))


#: ``kind`` discriminator -> change class, for the wire form.
CHANGE_KINDS: Dict[str, Type[Change]] = {
    cls.kind: cls
    for cls in (
        LinkAdd,
        LinkRemove,
        LinkCostSet,
        PrefixOriginate,
        PrefixWithdraw,
        PrefixListSet,
        RouteMapClauseInsert,
        RouteMapClauseEdit,
        RouteMapClauseDelete,
        LocalPrefOverride,
        InterfaceAclSet,
        DeviceAdd,
        DeviceRemove,
    )
}


def change_from_dict(data: Dict[str, object]) -> Change:
    """Deserialise one change from its wire form (``kind`` discriminated)."""
    kind = str(data.get("kind", ""))
    cls = CHANGE_KINDS.get(kind)
    if cls is None:
        known = ", ".join(sorted(CHANGE_KINDS))
        raise ChangeError(f"unknown change kind {kind!r}; expected one of: {known}")
    return cls.from_dict(data)


# ----------------------------------------------------------------------
# ChangeSet
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ChangeSet:
    """An ordered bundle of changes applied atomically to a network."""

    changes: Tuple[Change, ...]
    #: Optional human-readable name (defaults to the joined descriptions).
    name: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "changes", tuple(self.changes))
        if not self.name:
            object.__setattr__(self, "name", self.describe())

    def describe(self) -> str:
        return "+".join(change.describe() for change in self.changes) or "noop"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name or self.describe()

    def is_empty(self) -> bool:
        return not self.changes

    # ------------------------------------------------------------------
    # Validation and application
    # ------------------------------------------------------------------
    def validate(self, network: Network) -> List[str]:
        """Problems preventing this set from applying, in change order.

        Later changes are validated against the state earlier ones
        produce, so a script may add a device and then link to it.
        """
        editor = NetworkEditor(network)
        problems: List[str] = []
        for change in self.changes:
            found = change.problems(editor)
            if found:
                problems.extend(f"{change.describe()}: {p}" for p in found)
                continue  # do not apply a broken change; keep checking the rest
            change.apply_to(editor)
        return problems

    def assert_valid(self, network: Network) -> None:
        problems = self.validate(network)
        if problems:
            raise ChangeError("; ".join(problems))

    def apply(self, network: Network) -> Network:
        """The changed network: fresh graph, copy-on-write device configs.

        The original network is not mutated; devices no change touches are
        the *same* :class:`DeviceConfig` objects in both networks, so
        "unchanged" is pointer equality and the baseline's
        fingerprint-guarded memos stay valid.
        """
        editor = NetworkEditor(network)
        for change in self.changes:
            found = change.problems(editor)
            if found:
                raise ChangeError(
                    f"{change.describe()}: " + "; ".join(found)
                )
            change.apply_to(editor)
        return editor.build(f"{network.name}+{self.name}")

    # ------------------------------------------------------------------
    # Wire form
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "changes": [change.to_dict() for change in self.changes],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "ChangeSet":
        return cls(
            changes=tuple(change_from_dict(raw) for raw in data.get("changes", ())),
            name=str(data.get("name", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "ChangeSet":
        return cls.from_dict(json.loads(text))


def _changeset_entry(raw: object) -> ChangeSet:
    if not isinstance(raw, dict):
        raise ChangeError(f"each script entry must be a JSON object, got {raw!r}")
    if "changes" in raw:
        return ChangeSet.from_dict(raw)
    if "kind" in raw:
        # A bare change: wrap it in a single-change step.
        return ChangeSet(changes=(change_from_dict(raw),))
    raise ChangeError(
        "each script entry needs either 'changes' (a change set) or "
        "'kind' (a single change)"
    )


def load_change_script(text: str) -> List[ChangeSet]:
    """Parse a change script from JSON text.

    Accepts a list of change sets (or bare changes, each becoming a
    single-change step), a single change set, or an object with a
    ``"script"`` key holding the list -- the formats
    ``python -m repro.pipeline delta --changes <file>`` understands.
    """
    data = json.loads(text)
    if isinstance(data, dict) and "script" in data:
        data = data["script"]
    if isinstance(data, dict):
        data = [data]
    if not isinstance(data, list):
        raise ChangeError("a change script must be a JSON list of change sets")
    return [_changeset_entry(raw) for raw in data]
