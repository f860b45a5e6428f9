"""The Bonsai tool: end-to-end control plane compression (§5, §7).

:class:`Bonsai` wires the whole pipeline together for a configured
network:

1. partition the destination space into equivalence classes,
2. encode every interface's policy as a BDD (once, shared by all classes),
3. for each class, specialize the BDDs and run abstraction refinement,
   giving the node mapping; the checkers solve the abstract SRP derived
   from it (:func:`~repro.abstraction.equivalence.build_abstract_srp`), and
4. on request, emit a *smaller configured network* (abstract topology
   plus abstract device configurations) as output,

exactly mirroring the original tool, which consumes Batfish's
vendor-independent configurations and produces a smaller collection of
them for downstream analyses to use.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, FrozenSet, Hashable, List, Optional, Sequence, Tuple

from repro.abstraction.ec import EquivalenceClass, routable_equivalence_classes
from repro.abstraction.mapping import NetworkAbstraction
from repro.abstraction.refinement import ClassFamily, RefinementResult, compute_abstraction
from repro.bdd.policy import PolicyBddEncoder
from repro.obs import metrics as _metrics
from repro.config.device import BgpNeighborConfig, OspfLinkConfig, StaticRouteConfig
from repro.config.network import Network
from repro.config.prefix import Prefix
from repro.config.transfer import (
    VIRTUAL_DESTINATION,
    build_srp_from_network,
    compile_base_edges,
    specialize_compiled_edges,
)
from repro.srp.instance import SRP
from repro.topology.graph import Edge, Graph, Node


@dataclass
class CompressionResult:
    """The result of compressing one destination equivalence class."""

    equivalence_class: EquivalenceClass
    #: ``None`` only in transit from a process-pool worker (``repro.pipeline.core``).
    concrete_srp: SRP
    refinement: RefinementResult
    abstract_network: Optional[Network]
    compression_seconds: float

    @property
    def abstraction(self) -> NetworkAbstraction:
        return self.refinement.abstraction

    # The sizes of a compression: on both sides the virtual destination
    # a multi-origin class adds, and its edges, are left out.
    @property
    def concrete_nodes(self) -> int:
        graph = self.concrete_srp.graph
        return graph.num_nodes() - graph.has_node(VIRTUAL_DESTINATION)

    @property
    def concrete_edges(self) -> int:
        graph = self.concrete_srp.graph
        virtual = [VIRTUAL_DESTINATION] if graph.has_node(VIRTUAL_DESTINATION) else []
        return _edges_without(graph, virtual)

    @property
    def abstract_nodes(self) -> int:
        return self.abstraction.abstract_graph.num_nodes() - len(self._virtual_abstract())

    @property
    def abstract_edges(self) -> int:
        return _edges_without(self.abstraction.abstract_graph, self._virtual_abstract())

    def _virtual_abstract(self) -> List[Node]:
        abstraction = self.abstraction
        return [
            node
            for node in abstraction.abstract_graph.nodes
            if abstraction.concrete_nodes(node) == frozenset({VIRTUAL_DESTINATION})
        ]

    def node_compression_ratio(self) -> float:
        return self.concrete_nodes / max(1, self.abstract_nodes)

    def edge_compression_ratio(self) -> float:
        return self.concrete_edges / max(1, self.abstract_edges)


def _edges_without(graph: Graph, virtual: Sequence[Node]) -> int:
    """Undirected edge count of ``graph`` minus the edges at ``virtual``."""
    touching = {
        frozenset((node, other))
        for node in virtual
        for other in graph.successors(node) | graph.predecessors(node)
    }
    return graph.num_undirected_edges() - len(touching)


@dataclass
class CompressionSummary:
    """Aggregate statistics over many equivalence classes (Table 1 rows)."""

    network_name: str
    concrete_nodes: int
    concrete_edges: int
    num_classes: int
    classes_compressed: int
    mean_abstract_nodes: float
    mean_abstract_edges: float
    node_ratio: float
    edge_ratio: float
    bdd_seconds: float
    mean_compression_seconds: float

    def as_row(self) -> Dict[str, object]:
        """A flat dictionary suitable for tabular display."""
        return {
            "topology": self.network_name,
            "nodes": self.concrete_nodes,
            "edges": self.concrete_edges,
            "abs_nodes": round(self.mean_abstract_nodes, 1),
            "abs_edges": round(self.mean_abstract_edges, 1),
            "node_ratio": round(self.node_ratio, 2),
            "edge_ratio": round(self.edge_ratio, 2),
            "num_ecs": self.num_classes,
            "bdd_time_s": round(self.bdd_seconds, 3),
            "compression_time_per_ec_s": round(self.mean_compression_seconds, 4),
        }


class Bonsai:
    """Compress a configured network, one destination class at a time.

    One at a time, but not from scratch: classes whose policy keys
    specialise to the same map form a *class family*
    (:class:`~repro.abstraction.refinement.ClassFamily`) and share that
    map, the refinement inputs built from it and the destination-free
    base partition their refinements start from.  A class's own
    ``RefinementResult`` (a full node map) is not kept: only a class
    with the same origin set could read it, and no two classes of a
    generated network share one.  ``REFINEMENT_CACHE_LIMIT`` bounds the
    families retained (cleared wholesale on overflow, like the BDD
    manager's ``ite`` memo): pipeline workers keep one ``Bonsai`` alive
    for thousands of classes.

    A ``Bonsai`` assumes the network configuration does not change while
    it is alive: the policy-BDD encoder collects its variable universe at
    construction, and the compiled-edge and family memos are keyed
    accordingly.  After mutating device configurations, build a fresh
    ``Bonsai`` (the ``Network``-level memos
    -- equivalence classes, local-pref sets -- are fingerprint-guarded
    and safe under mutation).

    Parameters
    ----------
    network:
        The concrete configured network.
    encoder:
        An optional pre-built :class:`PolicyBddEncoder` for ``network``.
        The parallel pipeline encodes the network once, ships the encoder
        to each worker, and rebuilds a ``Bonsai`` around the copy so the
        one-time encoding cost is not paid per worker.
    """

    #: Maximum retained class families (clear-on-overflow).
    REFINEMENT_CACHE_LIMIT = 1024

    def __init__(
        self,
        network: Network,
        encoder: Optional[PolicyBddEncoder] = None,
    ):
        self.network = network
        self._encoder: Optional[PolicyBddEncoder] = encoder
        self.bdd_seconds = 0.0
        #: The aggregated report of the most recent :meth:`compress_all`.
        self.last_report = None
        #: The cross-class memo: specialisation signature (see
        #: :meth:`policy_keys`) -> the family's interned key map.
        self._families: Dict[Hashable, ClassFamily] = {}
        #: Single-entry memo of the last compiled edge map (and which edges
        #: differ from the base): several stages of a per-class task
        #: (concrete simulation, compression) compile the same destination
        #: back to back.  The base compilation is built once.
        self._compile_memo: Optional[Tuple[Prefix, Dict, FrozenSet]] = None
        self._base_compiled: Optional[Dict] = None
        #: Likewise its class family (:meth:`derive` asks once per scenario).
        self._family_memo: Optional[Tuple[Prefix, ClassFamily]] = None
        #: The class orbits (:mod:`repro.abstraction.partition_orbit`) of the
        #: fan-out running on this ``Bonsai``, cleared when the run ends.
        self.orbits: Dict = {}

    # ------------------------------------------------------------------
    # Pipeline stages
    # ------------------------------------------------------------------
    @property
    def encoder(self) -> PolicyBddEncoder:
        """The shared policy-BDD encoder (built lazily, timed once)."""
        if self._encoder is None:
            start = time.perf_counter()
            self._encoder = PolicyBddEncoder(self.network)
            self._encoder.encode_all_edges()
            self.bdd_seconds = time.perf_counter() - start
        return self._encoder

    def equivalence_classes(self) -> List[EquivalenceClass]:
        """All routable destination equivalence classes of the network."""
        return routable_equivalence_classes(self.network)

    def compile_for(self, prefix: Prefix) -> Dict[Edge, "CompiledEdge"]:
        """Compile the network's edges for ``prefix`` (single-entry memo).

        The per-class verify task simulates the concrete network and then
        compresses the very same destination; sharing the compiled edges
        halves the per-class compilation work.  The memo assumes the
        network configuration does not change under a live ``Bonsai``
        (the policy-BDD encoder already requires that).
        """
        cached = self._compile_memo
        if cached is not None and cached[0] == prefix:
            return cached[1]
        if self._base_compiled is None:
            self._base_compiled = compile_base_edges(self.network)
            _metrics.counter("config.base_edge_compiles").inc()
        base = self._base_compiled
        # Classes no static route or ACL singles out share the base itself.
        compiled = specialize_compiled_edges(self.network, prefix, base)
        changed = frozenset() if compiled is base else frozenset(
            (edge, info.has_static, info.acl_permits)
            for edge, info in compiled.items()
            if info is not base[edge]
        )
        self._compile_memo = (prefix, compiled, changed)
        return compiled

    @cached_property
    def _class_invariants(self) -> Tuple[FrozenSet[str], Dict]:
        """The network's unused communities and per-device local-preference
        values, the same for every class: taken once, on first use."""
        return self.network.unused_communities(), self.network.local_pref_values_by_device()

    def policy_keys(self, prefix: Prefix) -> ClassFamily:
        """Per-edge policy keys specialized to one destination.

        The map is interned: destinations with the same specialisation
        signature get the *same* (read-only) object, their class family.
        BDD keys are a function of the destination's restriction
        assignment and of the edges compilation singled out for it, so a
        family's later classes never rebuild the map.
        """
        memo = self._family_memo
        if memo is not None and memo[0] == prefix:
            return memo[1]
        compiled = self.compile_for(prefix)
        signature: Hashable = (self._compile_memo[2], self.encoder.assignment_key(prefix))
        family = self._families.get(signature)
        if family is None:
            keys = self.encoder.specialized_policy_keys(prefix, compiled)
            # Encoding may just have allocated variables: the signature
            # is the assignment over all of them, taken after the build.
            signature = (signature[0], self.encoder.assignment_key(prefix))
            if len(self._families) >= self.REFINEMENT_CACHE_LIMIT:
                # Clear-on-overflow: the memo is an optimisation only.
                self._families.clear()
                _metrics.counter("abstraction.refinement_cache.overflows").inc()
            family = self._families[signature] = ClassFamily(keys)
            _metrics.counter("abstraction.class_families").inc()
        self._family_memo = (prefix, family)
        return family

    def derive(self, network: Network, removed: FrozenSet[Edge], prefix: Prefix) -> "Bonsai":
        """A ``Bonsai`` for a failure view -- :attr:`network` less the
        ``removed`` directed edges and any failed device, surviving configs
        shared by identity -- handed what this one holds.  A surviving edge
        keeps its ``CompiledEdge`` and, the encoder being shared, its policy
        key for ``prefix``: both are filters.  The class invariants carry
        over unless a device failed (that can change the unused communities).
        Refinement is not seeded: the baseline partition is not the coarsest
        one once edges are gone."""
        child = Bonsai(network, self._encoder)
        if self._base_compiled is not None:
            child._base_compiled = {
                edge: info for edge, info in self._base_compiled.items() if edge not in removed
            }
        if len(network.devices) == len(self.network.devices):
            child._class_invariants = self._class_invariants
        child._family_memo = (prefix, self.policy_keys(prefix).without(removed))
        return child

    # ------------------------------------------------------------------
    # Compression
    # ------------------------------------------------------------------
    def concrete_srp(self, equivalence_class: EquivalenceClass) -> SRP:
        """The concrete SRP :meth:`compress` refines for one class."""
        prefix = equivalence_class.prefix
        # Compile the edges once and share the result between the SRP
        # build and the policy-key specialization (each used to recompile).
        compiled = self.compile_for(prefix)
        unused_communities, local_prefs = self._class_invariants
        return build_srp_from_network(
            self.network,
            prefix,
            set(equivalence_class.origins),
            ignore_communities=unused_communities,
            compiled=compiled,
            # Refinement runs on the explicit BDD keys; the SRP's own
            # syntactic keys would only be recomputed to be ignored.
            # Virtual-destination edges keep their key.
            include_syntactic_keys=False,
            local_prefs=local_prefs,
        )

    def compress(
        self,
        equivalence_class: EquivalenceClass,
        build_network: bool = True,
        srp: Optional[SRP] = None,
    ) -> CompressionResult:
        """Compress the network for one destination equivalence class
        (``srp``: its :meth:`concrete_srp`, when the caller already built it).
        ``build_network`` also emits the configured abstract network, as
        output (:meth:`build_abstract_network`); no checker reads it."""
        start = time.perf_counter()
        if srp is None:
            srp = self.concrete_srp(equivalence_class)
        family = self.policy_keys(equivalence_class.prefix)
        refinement = self._refine(srp, family)
        abstract_network = (
            self.build_abstract_network(refinement.abstraction, equivalence_class)
            if build_network
            else None
        )
        elapsed = time.perf_counter() - start
        return CompressionResult(
            equivalence_class=equivalence_class,
            concrete_srp=srp,
            refinement=refinement,
            abstract_network=abstract_network,
            compression_seconds=elapsed,
        )

    def _refine(self, srp: SRP, family: ClassFamily) -> RefinementResult:
        """Run abstraction refinement from what the class's family has.

        A family's later classes reuse its inputs and base partition: a
        hit of the cross-class memo; its first class is the miss.
        """
        if family.refinements:
            _metrics.counter("abstraction.refinement_cache.hits").inc()
        else:
            _metrics.counter("abstraction.refinement_cache.misses").inc()
        keys: Dict[Edge, Hashable] = family
        virtual_edges = srp.transfer.virtual_edges
        if virtual_edges:
            # Edges to the virtual destination need a key too; the family
            # is shared, so they go into a copy (a family of one).
            keys = {**family, **{edge: srp.policy_key(edge) for edge in virtual_edges}}
        return compute_abstraction(srp, policy_keys=keys)

    def compress_all(
        self,
        limit: Optional[int] = None,
        workers: Optional[int] = None,
        executor: Optional[str] = None,
    ) -> List[CompressionResult]:
        """Compress every equivalence class (optionally only the first few).

        The classes are independent (§5.1), so the work is delegated to the
        :mod:`repro.pipeline` subsystem.  By default it starts inline on
        this instance's encoder and forks only when the measured per-class
        cost says a pool pays (the ``"auto"`` executor); passing ``workers``
        or ``executor="process"`` asks for a process pool outright, with
        the one-time BDD encoding shared via a pickled artifact;
        ``executor="serial"`` never forks.  The aggregated
        :class:`~repro.pipeline.report.PipelineReport` of the last run is
        kept on ``self.last_report``.
        """
        from repro.pipeline.core import CompressionPipeline

        if executor is None:
            executor = "process" if workers else "auto"
        pipeline = CompressionPipeline.from_bonsai(
            self,
            executor=executor,
            workers=workers,
            limit=limit,
        )
        run = pipeline.run()
        self.last_report = run.report
        return run.results

    # ------------------------------------------------------------------
    # Abstract network construction
    # ------------------------------------------------------------------
    def build_abstract_network(
        self, abstraction: NetworkAbstraction, equivalence_class: EquivalenceClass
    ) -> Network:
        """Emit the compressed configured network for one class: Bonsai's
        output for downstream tools (the checkers never read it).

        Every abstract node receives the configuration of a representative
        concrete member, with neighbour references rewritten to abstract
        names (:func:`~repro.abstraction.equivalence.representative_view`).
        Transfer-equivalence guarantees any representative yields the same
        behaviour.
        """
        # Output only: the runs that never emit never load the builder.
        from repro.abstraction.equivalence import representative_view

        prefix = equivalence_class.prefix
        origins = set(equivalence_class.origins)
        network, sessions = representative_view(abstraction, self.network, prefix)
        for abstract_node, (source, witnesses) in sessions.items():
            concrete = self.network.devices[source]
            device = network.devices[abstract_node]
            # Originate the class prefix exactly where the *class* says it
            # originates.  A containment check against the representative's
            # own network statements would be wrong for trie-refined
            # classes: a device originating a covering aggregate (say a
            # /24) does not originate the /32 class carved out of it, and
            # marking it as such would make the abstract network deliver
            # at the wrong node.
            if origins & set(abstraction.concrete_nodes(abstract_node)):
                device.originated_prefixes.append(prefix)

            static = concrete.static_route_for(prefix)
            for abstract_neighbour, witness in witnesses.items():
                session = concrete.bgp_neighbors.get(witness)
                if session is not None:
                    device.bgp_neighbors[abstract_neighbour] = BgpNeighborConfig(
                        peer=abstract_neighbour,
                        import_policy=session.import_policy,
                        export_policy=session.export_policy,
                        ibgp=session.ibgp,
                    )
                ospf = concrete.ospf_links.get(witness)
                if ospf is not None:
                    device.ospf_links[abstract_neighbour] = OspfLinkConfig(
                        peer=abstract_neighbour, cost=ospf.cost, area=ospf.area
                    )
                if static is not None and static.next_hop == witness:
                    device.static_routes.append(
                        StaticRouteConfig(prefix=prefix, next_hop=abstract_neighbour)
                    )
                acl_name = concrete.interface_acls.get(witness)
                if acl_name is not None:
                    device.interface_acls[abstract_neighbour] = acl_name
        return network

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def summarize(
        self, results: Sequence[CompressionResult], name: Optional[str] = None
    ) -> CompressionSummary:
        """Aggregate per-class results into one Table-1 style row."""
        if not results:
            raise ValueError("no compression results to summarise")
        concrete_nodes = self.network.graph.num_nodes()
        concrete_edges = self.network.graph.num_undirected_edges()
        mean_nodes = sum(result.abstract_nodes for result in results) / len(results)
        mean_edges = sum(result.abstract_edges for result in results) / len(results)
        mean_seconds = sum(result.compression_seconds for result in results) / len(results)
        return CompressionSummary(
            network_name=name or self.network.name,
            concrete_nodes=concrete_nodes,
            concrete_edges=concrete_edges,
            num_classes=len(self.equivalence_classes()),
            classes_compressed=len(results),
            mean_abstract_nodes=mean_nodes,
            mean_abstract_edges=mean_edges,
            node_ratio=concrete_nodes / max(1.0, mean_nodes),
            edge_ratio=concrete_edges / max(1.0, mean_edges),
            bdd_seconds=self.bdd_seconds,
            mean_compression_seconds=mean_seconds,
        )

    def unique_roles(
        self,
        prefix: Optional[Prefix] = None,
        include_unused_communities: bool = False,
        ignore_static_routes: bool = False,
    ) -> int:
        """The number of distinct device roles (§8's role counts).

        ``include_unused_communities`` counts roles *without* the BGP
        attribute abstraction that strips never-matched tags (the paper's
        112-role figure); ``ignore_static_routes`` additionally ignores
        static-route differences (the paper's 8-role figure).
        """
        if include_unused_communities:
            encoder = PolicyBddEncoder(self.network, track_all_communities=True)
            encoder.encode_all_edges()
            return encoder.unique_role_count(prefix, ignore_static_routes)
        return self.encoder.unique_role_count(prefix, ignore_static_routes)
