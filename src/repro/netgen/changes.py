"""Change-scenario samplers: deterministic change scripts per family.

``python -m repro.pipeline delta`` needs realistic what-if scripts for
every generated topology family without the operator writing JSON by
hand.  This module derives them from the network itself, covering the
change classes an operator actually ships:

* a **compression-invariant** edit (an interface ACL that never matches
  the site's destination space): the control plane and every class
  signature are untouched, so a sweep must report *zero* re-compressed
  classes -- the abstraction-reuse showcase;
* a **route-map tightening** (a deny clause, guarded by a new prefix
  list, for one origin's /24 on a transit device's export map): breaks
  reachability for exactly that destination class and dirties only it;
* a **local-preference override** on the highest-degree device's first
  session;
* a **link decommission** of the busiest link (a topology change: every
  class re-compresses);
* an **anycast origination** of the first origin's prefix from a second
  device (an origin-set change: exercises the scratch path).

Scripts are deterministic for a fixed ``(network, seed)``; the ``seed``
rotates which devices and links are picked so sweeps can cover different
corners of the same topology.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional

from repro.config.acl import AclLine
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import PrefixListEntry, RouteMapClause
from repro.delta.changeset import (
    ChangeError,
    ChangeSet,
    InterfaceAclSet,
    LinkCostSet,
    LinkRemove,
    LocalPrefOverride,
    PrefixOriginate,
    PrefixListSet,
    RouteMapClauseInsert,
)

#: Address space the generators never allocate: ACLs and filters over it
#: are guaranteed destination-invariant for every generated class.
OFFSITE_PREFIX = "192.168.0.0/16"

#: The steps :func:`generated_change_script` emits when the caller does
#: not cap them (ordered: benign first, churn last).
DEFAULT_CHANGE_STEPS = 4


def _origin_devices(network: Network) -> List[str]:
    return sorted(
        str(name)
        for name, device in network.devices.items()
        if device.originated_prefixes and network.graph.has_node(name)
    )


def _hub(network: Network, rng: random.Random) -> Optional[str]:
    graph = network.graph
    candidates = sorted((str(n) for n in graph.nodes), key=lambda n: (-graph.degree(n), n))
    if not candidates:
        return None
    top = [n for n in candidates if graph.degree(n) == graph.degree(candidates[0])]
    return top[rng.randrange(len(top))]


def _busiest_link(network: Network, rng: random.Random) -> Optional[tuple]:
    graph = network.graph
    links = sorted({tuple(sorted((str(u), str(v)))) for u, v in graph.edges})
    if not links:
        return None
    links.sort(key=lambda link: (-(graph.degree(link[0]) + graph.degree(link[1])), link))
    best_score = graph.degree(links[0][0]) + graph.degree(links[0][1])
    top = [
        link
        for link in links
        if graph.degree(link[0]) + graph.degree(link[1]) == best_score
    ]
    return top[rng.randrange(len(top))]


def invariant_acl_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """An interface ACL over off-site space: compression-invariant."""
    hub = _hub(network, rng)
    if hub is None:
        return None
    neighbours = sorted(str(n) for n in network.graph.successors(hub))
    if not neighbours:
        return None
    peer = neighbours[rng.randrange(len(neighbours))]
    return ChangeSet(
        changes=(
            InterfaceAclSet(
                device=hub,
                peer=peer,
                name="DELTA-OFFSITE",
                lines=(AclLine(action="deny", prefix=Prefix.parse(OFFSITE_PREFIX)),),
                default_action="permit",
            ),
        ),
        name=f"invariant-acl({hub}->{peer})",
    )


def tighten_export_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """Deny one origin's /24 on a transit neighbour's export map.

    Dirties exactly that destination class (the deny clause specialises
    away for every other destination) and typically breaks reachability
    through the tightened device.
    """
    origins = _origin_devices(network)
    if not origins:
        return None
    origin = origins[rng.randrange(len(origins))]
    target = network.devices[origin].originated_prefixes[0]
    # Tighten a transit device next to the origin: the class's routes must
    # actually flow through it for the change to bite.
    neighbours = sorted(str(n) for n in network.graph.successors(origin))
    for candidate in neighbours:
        device = network.devices.get(candidate)
        if device is None:
            continue
        export_names = sorted(
            {
                session.export_policy
                for session in device.bgp_neighbors.values()
                if session.export_policy
            }
        )
        if not export_names:
            continue
        export_map = export_names[0]
        sequences = {
            clause.sequence for clause in device.route_maps[export_map].clauses
        }
        sequence = 1
        while sequence in sequences:
            sequence += 1
        return ChangeSet(
            changes=(
                PrefixListSet(
                    device=candidate,
                    name="DELTA-TIGHTEN",
                    entries=(
                        PrefixListEntry(prefix=target, action="permit"),
                    ),
                ),
                RouteMapClauseInsert(
                    device=candidate,
                    route_map=export_map,
                    clause=RouteMapClause(
                        sequence=sequence,
                        action="deny",
                        match_prefix_lists=("DELTA-TIGHTEN",),
                    ),
                ),
            ),
            name=f"tighten-export({candidate}:{export_map}!{target})",
        )
    return None


def prefer_neighbour_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """Raise the import local preference of the hub's first session."""
    hub = _hub(network, rng)
    if hub is None:
        return None
    sessions = sorted(network.devices[hub].bgp_neighbors)
    if not sessions:
        return None
    peer = sessions[rng.randrange(len(sessions))]
    return ChangeSet(
        changes=(LocalPrefOverride(device=hub, peer=peer, local_pref=300),),
        name=f"prefer-neighbour({hub}<-{peer})",
    )


def decommission_link_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """Decommission the busiest link (sessions removed with it)."""
    link = _busiest_link(network, rng)
    if link is None:
        return None
    return ChangeSet(
        changes=(LinkRemove(u=link[0], v=link[1]),),
        name=f"decommission({link[0]}|{link[1]})",
    )


def anycast_origin_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """Anycast the first origin's prefix from a second originating device."""
    origins = _origin_devices(network)
    if len(origins) < 2:
        return None
    first = origins[0]
    target = network.devices[first].originated_prefixes[0]
    others = [
        name
        for name in origins[1:]
        if target not in network.devices[name].originated_prefixes
    ]
    if not others:
        return None
    twin = others[rng.randrange(len(others))]
    return ChangeSet(
        changes=(PrefixOriginate(device=twin, prefix=target),),
        name=f"anycast({twin}:{target})",
    )


def reweigh_ospf_change(network: Network, rng: random.Random) -> Optional[ChangeSet]:
    """Double the OSPF cost of some adjacency (families that run OSPF)."""
    candidates = []
    for name, device in sorted(network.devices.items()):
        for peer, link in sorted(device.ospf_links.items()):
            if network.graph.has_edge(name, peer):
                other = network.devices.get(peer)
                if other is not None and name in other.ospf_links:
                    candidates.append((str(name), str(peer), link.cost))
    if not candidates:
        return None
    u, v, cost = candidates[rng.randrange(len(candidates))]
    return ChangeSet(
        changes=(LinkCostSet(u=u, v=v, cost=cost * 2),),
        name=f"ospf-reweigh({u}|{v})",
    )


#: Sampler order: benign, per-class, preference, topology, origin churn.
_SAMPLERS = (
    invariant_acl_change,
    tighten_export_change,
    prefer_neighbour_change,
    decommission_link_change,
    anycast_origin_change,
    reweigh_ospf_change,
)


def generated_change_script(
    network: Network,
    family: Optional[str] = None,
    steps: Optional[int] = None,
    seed: int = 0,
) -> List[ChangeSet]:
    """A deterministic what-if script derived from the network itself.

    ``family`` is advisory (kept for symmetry with the topology
    registry); the samplers introspect the network, so unsupported change
    classes -- OSPF reweighing on a pure-BGP fat-tree, say -- simply drop
    out.  ``steps`` caps the script length (default
    :data:`DEFAULT_CHANGE_STEPS`); ``seed`` rotates which devices and
    links the samplers pick.
    """
    rng = random.Random(f"{family or network.name}:{seed}")
    limit = DEFAULT_CHANGE_STEPS if steps is None else steps
    if limit < 1:
        raise ValueError("a change script needs at least one step")
    script: List[ChangeSet] = []
    for sampler in _SAMPLERS:
        if len(script) >= limit:
            break
        changeset = sampler(network, rng)
        if changeset is None:
            continue
        # Validate against the cumulative state so far; a sampler whose
        # pick no longer applies (e.g. the busiest link was already
        # removed) is skipped rather than emitted broken.  Only the
        # documented skip case is caught -- a crashing sampler or
        # apply() is a bug and must surface.
        current = network
        try:
            for prior in script:
                current = prior.apply(current)
            changeset.assert_valid(current)
        except ChangeError:
            continue
        script.append(changeset)
    if not script:
        raise ValueError(
            f"no applicable change scenario could be derived for {network.name}"
        )
    return script


#: family name -> steps the CLI defaults to (None = DEFAULT_CHANGE_STEPS).
DEFAULT_CHANGE_STEP_COUNTS: Dict[str, Optional[int]] = {
    "fattree": None,
    "mesh": 3,
    "ring": None,
    "datacenter": None,
    "wan": None,
}


def default_change_steps(family: str) -> int:
    """The default script length for a ``delta`` sweep of ``family``."""
    cap = DEFAULT_CHANGE_STEP_COUNTS.get(family)
    return DEFAULT_CHANGE_STEPS if cap is None else cap
