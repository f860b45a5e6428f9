"""Encode per-interface routing policy as BDDs (§5.1, Figure 10).

For each directed edge, Bonsai encodes the combined effect of the sender's
export route map, the receiver's import route map and the receiver's
outbound data-plane ACL as a single BDD relating *input* announcement state
to *output* announcement state.  Because BDDs are canonical and
hash-consed, two interfaces have semantically identical policies for a
destination iff their specialized BDD identifiers are equal -- an O(1)
check once the BDDs exist.

Variables
---------
* one input/output pair per community value that is *matched on* anywhere
  in the network (communities that are attached but never matched are
  irrelevant to behaviour and deliberately not encoded -- this is the
  attribute abstraction that reduced 112 roles to 26 in the paper's
  datacenter);
* one input variable per distinct prefix-list (semantically: "the
  destination prefix is permitted by this list"), restricted to a constant
  when the BDD is *specialized* to a destination;
* one input variable per distinct ACL ("the ACL permits the destination");
* a one-hot block of output variables for the local-preference value
  assigned (including "unchanged");
* a one-hot block for the number of extra AS-path prepends;
* an output variable for "announcement dropped" and one for "traffic
  dropped by ACL".
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Optional, Tuple

from repro.obs import metrics as _metrics
from repro.bdd.manager import FALSE, TRUE, BddManager
from repro.config.device import DeviceConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.routemap import PrefixList, RouteMap
from repro.config.transfer import CompiledEdge, compile_edges
from repro.topology.graph import Edge

#: Marker used in the local-preference one-hot block for "not modified".
UNCHANGED = "unchanged"

#: Default bound on an encoder manager's ``ite`` memo cache, serial or pooled.
#: It never binds on the shipped workloads (serial compression of every
#: class peaks at 49 entries on ``prefer_bottom`` k=10); it exists so
#: growth over thousands of destination classes cannot exhaust memory.
DEFAULT_BDD_CACHE_LIMIT = 1_000_000


@dataclass(frozen=True)
class _SymbolicState:
    """Symbolic announcement state during route-map evaluation.

    ``dropped`` is a BDD over input variables; ``communities`` maps each
    encoded community to the BDD of "the announcement currently carries
    it"; ``local_pref`` and ``prepends`` are case lists of (guard, value)
    pairs whose guards partition the non-dropped space.
    """

    dropped: int
    communities: Tuple[Tuple[str, int], ...]
    local_pref: Tuple[Tuple[int, object], ...]
    prepends: Tuple[Tuple[int, int], ...]


class PolicyBddEncoder:
    """Encodes and specializes per-edge policies for one network."""

    def __init__(
        self,
        network: Network,
        track_all_communities: bool = False,
        specialize_cache_limit: int = 4096,
        bdd_cache_limit: Optional[int] = DEFAULT_BDD_CACHE_LIMIT,
    ):
        """``track_all_communities`` also allocates variables for communities
        that are attached but never matched on.  Bonsai's default is to
        ignore them (they cannot influence behaviour); tracking them
        reproduces the paper's "112 roles before / 26 after" observation
        and is used by the role-count benchmark.

        ``specialize_cache_limit`` bounds the LRU cache of specialization
        results: many destination equivalence classes induce the *same*
        restriction assignment (every /24 of the site aggregate looks alike
        to the prefix lists), so caching ``(bdd, assignment) -> cofactor``
        makes repeated per-class specialization nearly free.  Set it to 0
        to disable the cache.

        ``bdd_cache_limit`` bounds the underlying manager's ``ite`` memo
        cache (see :class:`~repro.bdd.manager.BddManager`): an encoder that
        specializes policies to many destinations on one manager is exactly
        the workload where that cache can otherwise grow without bound."""
        self.network = network
        self.track_all_communities = track_all_communities
        self.manager = BddManager(cache_limit=bdd_cache_limit)
        self.specialize_cache_limit = specialize_cache_limit
        self._specialize_cache: "OrderedDict[Tuple[int, Tuple[Tuple[int, bool], ...]], int]" = (
            OrderedDict()
        )
        self._specialize_hits = 0
        self._specialize_misses = 0
        self._matched_communities = tuple(sorted(self._collect_matched_communities()))
        self._lp_values: Tuple[object, ...] = tuple(
            [UNCHANGED] + sorted(self._collect_local_prefs())
        )
        self._prepend_values = tuple(sorted(self._collect_prepends()))

        # --- variable allocation -------------------------------------
        self._prefix_list_vars: Dict[Hashable, int] = {}
        self._acl_vars: Dict[Hashable, int] = {}
        self._community_in: Dict[str, int] = {}
        self._community_out: Dict[str, int] = {}
        for community in self._matched_communities:
            self._community_in[community] = self.manager.add_var(f"c[{community}]")
            self._community_out[community] = self.manager.add_var(f"c'[{community}]")
        self._lp_vars: Dict[object, int] = {
            value: self.manager.add_var(f"lp'[{value}]") for value in self._lp_values
        }
        self._prepend_vars: Dict[int, int] = {
            value: self.manager.add_var(f"prepend'[{value}]") for value in self._prepend_values
        }
        self._drop_var = self.manager.add_var("drop'")
        self._acl_deny_var = self.manager.add_var("acl-deny'")
        self._no_bgp_var = self.manager.add_var("no-bgp-session")

        self._edge_cache: Dict[Hashable, int] = {}
        #: Edge -> BDD shortcut.  The encoded BDD depends only on the
        #: destination-invariant parts of a compiled edge (BGP session,
        #: route maps, interface ACL *names*), so once an edge is encoded
        #: the semantic-key construction (which sorts the referenced
        #: community/prefix lists on every call) can be skipped entirely
        #: for later destinations.  Like the encoder as a whole (whose
        #: variable universe is fixed at construction), this assumes the
        #: device configurations do not change under a live encoder.
        self._edge_bdd: Dict[Edge, int] = {}

    # ------------------------------------------------------------------
    # Universe discovery
    # ------------------------------------------------------------------
    def _collect_matched_communities(self) -> FrozenSet[str]:
        matched = set()
        for device in self.network.devices.values():
            matched |= device.matched_communities()
            if self.track_all_communities:
                matched |= device.set_communities()
        return frozenset(matched)

    def _collect_local_prefs(self) -> FrozenSet[int]:
        values = set()
        for device in self.network.devices.values():
            for route_map in device.route_maps.values():
                values |= route_map.local_pref_values()
        return frozenset(values)

    def _collect_prepends(self) -> FrozenSet[int]:
        values = {0}
        for device in self.network.devices.values():
            for route_map in device.route_maps.values():
                values |= {clause.prepend_as for clause in route_map.clauses}
        return frozenset(values)

    # ------------------------------------------------------------------
    # Structural variables for prefix lists and ACLs
    # ------------------------------------------------------------------
    def _prefix_list_var(self, prefix_list: PrefixList) -> int:
        key = (prefix_list.entries,)
        if key not in self._prefix_list_vars:
            self._prefix_list_vars[key] = self.manager.add_var(
                f"pl[{len(self._prefix_list_vars)}]"
            )
        return self._prefix_list_vars[key]

    def _acl_var(self, acl) -> int:
        key = (acl.lines, acl.default_action)
        if key not in self._acl_vars:
            self._acl_vars[key] = self.manager.add_var(f"acl[{len(self._acl_vars)}]")
        return self._acl_vars[key]

    # ------------------------------------------------------------------
    # Route-map symbolic evaluation
    # ------------------------------------------------------------------
    def _initial_state(self) -> _SymbolicState:
        communities = tuple(
            (community, self.manager.var(self._community_in[community]))
            for community in self._matched_communities
        )
        return _SymbolicState(
            dropped=FALSE,
            communities=communities,
            local_pref=((TRUE, UNCHANGED),),
            prepends=((TRUE, 0),),
        )

    def _clause_match_bdd(
        self, clause, device: DeviceConfig, state: _SymbolicState
    ) -> int:
        manager = self.manager
        match = TRUE
        if clause.match_community_lists:
            community_match = FALSE
            for name in clause.match_community_lists:
                community_list = device.community_lists.get(name)
                if community_list is None:
                    continue
                for value in community_list.communities:
                    current = dict(state.communities).get(value)
                    if current is None:
                        # A community that is never matched anywhere else in
                        # the network still matters *here*: model it as
                        # absent (the encoder only tracks matched ones, and
                        # by construction this value is in the matched set,
                        # so this branch is defensive).
                        continue
                    community_match = manager.apply_or(community_match, current)
            match = manager.apply_and(match, community_match)
        if clause.match_prefix_lists:
            prefix_match = FALSE
            for name in clause.match_prefix_lists:
                prefix_list = device.prefix_lists.get(name)
                if prefix_list is None:
                    continue
                prefix_match = manager.apply_or(
                    prefix_match, manager.var(self._prefix_list_var(prefix_list))
                )
            match = manager.apply_and(match, prefix_match)
        return match

    def _apply_route_map(
        self, route_map: Optional[RouteMap], device: DeviceConfig, state: _SymbolicState
    ) -> _SymbolicState:
        """Symbolically evaluate ``route_map`` on ``state``."""
        manager = self.manager
        if route_map is None:
            return state

        dropped = state.dropped
        communities = dict(state.communities)
        local_pref = list(state.local_pref)
        prepends = list(state.prepends)
        #: BDD of announcements not yet decided by an earlier clause.
        unmatched = manager.apply_not(dropped)

        for clause in route_map.clauses:
            clause_match = self._clause_match_bdd(clause, device, state)
            applies = manager.apply_and(unmatched, clause_match)
            if applies == FALSE:
                continue
            if clause.action == "deny":
                dropped = manager.apply_or(dropped, applies)
            else:
                if clause.set_local_pref is not None:
                    local_pref = [
                        (manager.apply_and(guard, manager.apply_not(applies)), value)
                        for guard, value in local_pref
                    ] + [(applies, clause.set_local_pref)]
                if clause.prepend_as:
                    prepends = [
                        (manager.apply_and(guard, manager.apply_not(applies)), value)
                        for guard, value in prepends
                    ] + [(applies, clause.prepend_as)]
                for community in clause.set_communities:
                    if community in communities:
                        communities[community] = manager.apply_or(
                            communities[community], applies
                        )
                for community in clause.delete_communities:
                    if community in communities:
                        communities[community] = manager.apply_and(
                            communities[community], manager.apply_not(applies)
                        )
            unmatched = manager.apply_and(unmatched, manager.apply_not(clause_match))

        # Announcements matching no clause are dropped (implicit deny).
        dropped = manager.apply_or(dropped, unmatched)
        return _SymbolicState(
            dropped=dropped,
            communities=tuple(sorted(communities.items())),
            local_pref=tuple(local_pref),
            prepends=tuple(prepends),
        )

    # ------------------------------------------------------------------
    # Edge encoding
    # ------------------------------------------------------------------
    def _edge_cache_key(self, info: CompiledEdge) -> Hashable:
        receiver = self.network.devices[info.receiver]
        sender = self.network.devices[info.sender]

        def map_signature(route_map: Optional[RouteMap], device: DeviceConfig) -> Hashable:
            if route_map is None:
                return None
            lists = tuple(
                sorted(
                    (name, device.community_lists[name].communities)
                    for name in route_map.referenced_community_lists()
                    if name in device.community_lists
                )
            )
            prefix_lists = tuple(
                sorted(
                    (name, device.prefix_lists[name].entries)
                    for name in route_map.referenced_prefix_lists()
                    if name in device.prefix_lists
                )
            )
            return (route_map.clauses, lists, prefix_lists)

        acl_name = receiver.interface_acls.get(info.sender)
        acl = receiver.acls.get(acl_name) if acl_name else None
        return (
            info.has_bgp,
            info.ibgp,
            map_signature(info.export_map, sender),
            map_signature(info.import_map, receiver),
            (acl.lines, acl.default_action) if acl is not None else None,
        )

    def encode_edge(self, info: CompiledEdge) -> int:
        """The (destination-generic) policy BDD for one compiled edge."""
        by_edge = self._edge_bdd.get(info.edge)
        if by_edge is not None:
            return by_edge
        key = self._edge_cache_key(info)
        cached = self._edge_cache.get(key)
        if cached is not None:
            self._edge_bdd[info.edge] = cached
            return cached
        manager = self.manager

        if not info.has_bgp:
            result = manager.var(self._no_bgp_var)
        else:
            receiver = self.network.devices[info.receiver]
            sender = self.network.devices[info.sender]
            state = self._initial_state()
            state = self._apply_route_map(info.export_map, sender, state)
            state = self._apply_route_map(info.import_map, receiver, state)

            conjuncts: List[int] = [manager.nvar(self._no_bgp_var)]
            conjuncts.append(
                manager.apply_iff(manager.var(self._drop_var), state.dropped)
            )
            for community, current in state.communities:
                conjuncts.append(
                    manager.apply_iff(
                        manager.var(self._community_out[community]), current
                    )
                )
            for value, var in self._lp_vars.items():
                guard = manager.disjoin(
                    g for g, assigned in state.local_pref if assigned == value
                )
                conjuncts.append(manager.apply_iff(manager.var(var), guard))
            for value, var in self._prepend_vars.items():
                guard = manager.disjoin(
                    g for g, assigned in state.prepends if assigned == value
                )
                conjuncts.append(manager.apply_iff(manager.var(var), guard))
            result = manager.conjoin(conjuncts)

        # The receiver's outbound ACL towards the sender is folded in via a
        # dedicated variable (restricted during specialization).
        receiver_cfg = self.network.devices[info.receiver]
        acl_name = receiver_cfg.interface_acls.get(info.sender)
        if acl_name and acl_name in receiver_cfg.acls:
            acl_var = self._acl_var(receiver_cfg.acls[acl_name])
            result = self.manager.apply_and(
                result,
                self.manager.apply_iff(
                    self.manager.var(self._acl_deny_var),
                    self.manager.nvar(acl_var),
                ),
            )
        else:
            result = self.manager.apply_and(
                result, self.manager.nvar(self._acl_deny_var)
            )
        self._edge_cache[key] = result
        self._edge_bdd[info.edge] = result
        return result

    def encode_all_edges(
        self, compiled: Optional[Dict[Edge, CompiledEdge]] = None,
        destination: Optional[Prefix] = None,
    ) -> Dict[Edge, int]:
        """Encode every edge of the network (``destination`` only picks the
        static/ACL context for compilation; the BDDs themselves are generic)."""
        if compiled is None:
            if destination is None:
                destination = Prefix.parse("0.0.0.0/0")
            compiled = compile_edges(self.network, destination)
        return {edge: self.encode_edge(info) for edge, info in compiled.items()}

    # ------------------------------------------------------------------
    # Specialization (Algorithm 1, line 2)
    # ------------------------------------------------------------------
    def specialization_assignment(self, destination: Prefix) -> Dict[int, bool]:
        """The variable assignment that plugs in a concrete destination."""
        assignment: Dict[int, bool] = {}
        for (entries,), var in self._prefix_list_vars.items():
            assignment[var] = PrefixList(name="_", entries=entries).permits(destination)
        for (lines, default_action), var in self._acl_vars.items():
            from repro.config.acl import Acl

            assignment[var] = Acl(
                name="_", lines=lines, default_action=default_action
            ).permits(destination)
        return assignment

    def assignment_key(self, destination: Prefix) -> Tuple[Tuple[int, bool], ...]:
        """:meth:`specialization_assignment` in canonical, hashable form:
        destinations with equal keys specialise every encoded BDD alike.
        Complete once every edge is encoded (encoding allocates variables)."""
        return tuple(sorted(self.specialization_assignment(destination).items()))

    def _restrict_cached(self, bdd: int, assignment_key: Tuple[Tuple[int, bool], ...]) -> int:
        """LRU-cached :meth:`BddManager.restrict`.

        The key pairs the BDD identity with the canonical assignment, so
        equivalence classes whose destinations restrict identically (the
        common case: every generated /24 satisfies the same prefix lists)
        reuse each other's cofactors instead of re-walking the BDD.
        """
        if self.specialize_cache_limit <= 0:
            return self.manager.restrict(bdd, dict(assignment_key))
        key = (bdd, assignment_key)
        cached = self._specialize_cache.get(key)
        if cached is not None:
            self._specialize_cache.move_to_end(key)
            self._specialize_hits += 1
            return cached
        self._specialize_misses += 1
        result = self.manager.restrict(bdd, dict(assignment_key))
        self._specialize_cache[key] = result
        if len(self._specialize_cache) > self.specialize_cache_limit:
            self._specialize_cache.popitem(last=False)
        return result

    def specialize(self, bdd: int, destination: Prefix) -> int:
        """Restrict a generic policy BDD to a concrete destination prefix."""
        return self._restrict_cached(bdd, self.assignment_key(destination))

    def specialized_policy_keys(
        self, destination: Prefix, compiled: Optional[Dict[Edge, CompiledEdge]] = None
    ) -> Dict[Edge, Hashable]:
        """Per-edge policy keys for one destination: the specialized BDD id
        plus the non-BGP parts of the edge policy (static routes, OSPF cost)."""
        if compiled is None:
            compiled = compile_edges(self.network, destination)
        # Encode every edge *before* computing the assignment: encoding may
        # allocate prefix-list/ACL variables, and the assignment must cover
        # all of them for the specialization to be complete.
        bdds = {edge: self.encode_edge(info) for edge, info in compiled.items()}
        assignment_key = self.assignment_key(destination)
        keys: Dict[Edge, Hashable] = {}
        # The per-edge loop keeps its fast local cache counters; their
        # delta is absorbed into the obs registry once per destination.
        hits0, misses0 = self._specialize_hits, self._specialize_misses
        for edge, info in compiled.items():
            bdd = bdds[edge]
            specialized = self._restrict_cached(bdd, assignment_key)
            keys[edge] = (
                specialized,
                info.has_static,
                info.has_ospf,
                info.ospf_cost if info.has_ospf else None,
            )
        _metrics.absorb_cache_info(
            "bdd.specialize_cache",
            {"hits": hits0, "misses": misses0},
            {"hits": self._specialize_hits, "misses": self._specialize_misses},
            keys=("hits", "misses"),
        )
        return keys

    # ------------------------------------------------------------------
    # Reporting helpers
    # ------------------------------------------------------------------
    def unique_role_count(
        self, destination: Optional[Prefix] = None, ignore_static_routes: bool = False
    ) -> int:
        """Number of distinct device "roles" (§8): devices grouped by the
        multiset of their outgoing interface policies.

        With ``destination=None`` the roles are computed from the
        *unspecialized* policy BDDs -- how the paper first examined its real
        networks ("we first computed the BDDs and see how many devices have
        identical transfer functions from their configurations") -- and the
        static-route component records whether the device points any static
        route at the interface.  ``ignore_static_routes`` drops that
        component before grouping, reproducing the paper's "without static
        routes there would only be 8 unique roles" observation.
        """
        if destination is None:
            compiled = compile_edges(self.network, Prefix.parse("0.0.0.0/0"))
            keys: Dict[Edge, Hashable] = {}
            for edge, info in compiled.items():
                receiver_cfg = self.network.devices[info.receiver]
                has_any_static = any(
                    static.next_hop == info.sender
                    for static in receiver_cfg.static_routes
                )
                keys[edge] = (
                    self.encode_edge(info),
                    has_any_static,
                    info.has_ospf,
                    info.ospf_cost if info.has_ospf else None,
                )
        else:
            compiled = compile_edges(self.network, destination)
            keys = self.specialized_policy_keys(destination, compiled)
        if ignore_static_routes:
            keys = {
                edge: (key[0],) + (False,) + key[2:] for edge, key in keys.items()
            }
        roles = set()
        for node in self.network.graph.nodes:
            # A device's role is determined by the policies it applies
            # itself: its import policies (carried by its outgoing SRP
            # edges) and its export policies (carried by the incoming ones).
            signature = (
                frozenset(keys[edge] for edge in self.network.graph.out_edges(node)),
                frozenset(keys[edge] for edge in self.network.graph.in_edges(node)),
            )
            roles.add(signature)
        return len(roles)

    def stats(self) -> Dict[str, int]:
        return {
            "bdd_nodes": self.manager.num_nodes(),
            "bdd_vars": self.manager.num_vars,
            "encoded_edges": len(self._edge_cache),
            "communities": len(self._matched_communities),
            "local_pref_values": len(self._lp_values),
        }
