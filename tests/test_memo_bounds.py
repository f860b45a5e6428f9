"""Memo-bound satellites: bounded caches with counters, fingerprint
invalidation of the ``Network``-level memos under topology mutation, and
per-class memos that die with their class."""

from __future__ import annotations

import gc
import json
import weakref

import pytest

from repro import fattree_network
from repro.abstraction import orbit
from repro.abstraction.refinement import RefinementResult
from repro.abstraction.ec import routable_equivalence_classes
from repro.analysis.batch import BatchVerifier
from repro.api import Session
from repro.config.transfer import build_srp_from_network
from repro.delta import sweep as delta_sweep
from repro.delta.sweep import DeltaSweep
from repro.failures import FailureSweep
from repro.failures.incremental import BaselineIndex, tainted_nodes
from repro.failures.scenario import link_scenario, undirected_links
from repro.netgen.changes import generated_change_script
from repro.netgen.families import build_topology
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.core import CompressionPipeline
from repro.pipeline.encoded import EncodedNetwork
from repro.srp.solver import TransferCache, solve
from repro.topology.graph import Graph


# ----------------------------------------------------------------------
# Solver transfer memo
# ----------------------------------------------------------------------
def _bounded(limit: int) -> TransferCache:
    cache = TransferCache()
    cache.LIMIT = limit  # instance-level override
    return cache


class TestTransferCache:
    def test_counters_and_bound(self):
        cache = TransferCache()
        assert (len(cache), cache.hits, cache.misses, cache.overflows) == (0, 0, 0, 0)
        # An instance override leaves the class's bound alone.
        assert _bounded(4).LIMIT == 4 and cache.LIMIT == TransferCache.LIMIT == 1_000_000

    def test_solve_fills_cache_and_counts(self):
        network = build_topology("ring", 6)
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        solution = solve(srp)
        cache = solution.transfer_cache
        assert isinstance(cache, TransferCache)
        assert cache.misses > 0 and len(cache) > 0
        # Re-solving with the warmed cache is almost all hits.
        warmed = solve(srp, transfer_cache=cache)
        assert warmed.transfer_cache is cache
        assert cache.hits > 0

    def test_clear_on_overflow(self):
        network = build_topology("ring", 6)
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        small = _bounded(8)
        solve(srp, transfer_cache=small)
        assert small.overflows > 0
        assert len(small) <= 8

    def test_overflowing_result_is_still_correct(self):
        network = build_topology("fattree", 4)
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        bounded = solve(srp, transfer_cache=_bounded(5))
        assert bounded.labeling == solve(srp).labeling

    def test_seeded_from_respects_limit(self):
        donor = TransferCache()
        for i in range(10):
            donor[i] = i
        assert len(_bounded(5).seeded_from(donor)) == 0
        assert len(_bounded(100).seeded_from(donor)) == 10


# ----------------------------------------------------------------------
# NetworkTransfer route-map evaluation memo
# ----------------------------------------------------------------------
class TestNetworkTransferEvalCache:
    def _transfer(self, network):
        ec = routable_equivalence_classes(network)[0]
        srp = build_srp_from_network(network, ec.prefix, set(ec.origins))
        return srp, ec

    def test_counters_exposed(self):
        network = build_topology("ring", 5)
        srp, _ = self._transfer(network)
        info = srp.transfer.eval_cache_info()
        assert info == {
            "size": 0,
            "limit": srp.transfer.EVAL_CACHE_LIMIT,
            "overflows": 0,
            "sender": {"hits": 0, "misses": 0},
        }
        solve(srp)
        info = srp.transfer.eval_cache_info()
        # The ring's export filters run in the sender halves.
        assert info["sender"]["misses"] > 0
        assert info["size"] <= info["limit"]

    def test_clear_on_overflow_keeps_answers_correct(self):
        network = build_topology("ring", 5)
        reference_srp, _ = self._transfer(network)
        reference = solve(reference_srp)

        bounded_srp, _ = self._transfer(network)
        bounded_srp.transfer.EVAL_CACHE_LIMIT = 2  # instance-level override
        bounded = solve(bounded_srp)
        info = bounded_srp.transfer.eval_cache_info()
        assert info["overflows"] > 0
        assert info["size"] <= 2
        assert bounded.labeling == reference.labeling

    def test_eval_cache_not_pickled(self):
        import pickle

        network = build_topology("ring", 4)
        srp, _ = self._transfer(network)
        solve(srp)
        assert srp.transfer.eval_cache_info()["size"] > 0
        revived = pickle.loads(pickle.dumps(srp.transfer))
        assert revived.eval_cache_info()["size"] == 0

    def test_memo_distinguishes_attributes(self):
        network = build_topology("wan", 2)
        srp, _ = self._transfer(network)
        solve(srp)
        # A warmed memo must answer exactly like an uncached transfer.
        fresh_srp, _ = self._transfer(network)
        for edge in list(srp.graph.edges)[:10]:
            assert srp.transfer(edge, None) == fresh_srp.transfer(edge, None)


# ----------------------------------------------------------------------
# BaselineIndex: one read-only index answers every taint query
# ----------------------------------------------------------------------
class TestBaselineIndexTaintCache:
    def test_cached_results_match_fresh_computation(self):
        network = build_topology("fattree", 4)
        ec = routable_equivalence_classes(network)[0]
        baseline = solve(build_srp_from_network(network, ec.prefix, set(ec.origins)))
        index = BaselineIndex.from_solution(baseline)
        for link in undirected_links(network)[:6]:
            removed = link_scenario(*link).directed_edges(network.graph)
            indexed = tainted_nodes(baseline, removed, index=index)
            again = tainted_nodes(baseline, removed, index=index)
            fresh = tainted_nodes(baseline, removed)  # no index
            assert indexed == again == fresh


# ----------------------------------------------------------------------
# Every memo a run counts is read by that run
# ----------------------------------------------------------------------
#: One small serial run per kind.  A cold ``verify`` is left out: its
#: solves miss the solver's transfer memo, which the re-solves of the
#: failure, delta and store runs seed from.
MEMO_RUNS = {
    "compress": ["compress", "--topo", "fattree", "--size", "4"],
    "failures": ["failures", "--topo", "fattree", "--size", "4", "--k", "1"],
    "delta": ["delta", "--topo", "wan", "--size", "4"],
}


@pytest.mark.parametrize("kind", sorted(MEMO_RUNS))
def test_no_memo_only_misses(kind, tmp_path):
    """A memo that misses on a run and never hits is state without use:
    every ``<memo>.misses`` above 0 in the report has ``<memo>.hits``
    above 0 beside it."""
    output = tmp_path / "report.json"
    argv = MEMO_RUNS[kind] + ["--executor", "serial", "--output", str(output)]
    assert pipeline_main(argv) == 0
    counters = json.loads(output.read_text())["obs_metrics"]["counters"]
    missed = {
        name[: -len(".misses")]
        for name, count in counters.items()
        if name.endswith(".misses") and count > 0
    }
    assert "abstraction.refinement_cache" in missed
    assert {memo for memo in missed if not counters.get(memo + ".hits")} == set()


# ----------------------------------------------------------------------
# Session-kept perturbation baselines (classes x distinct suites)
# ----------------------------------------------------------------------
class TestWarmBaselines:
    def test_one_entry_per_class_and_suite_cleared_on_overflow(self):
        network = build_topology("ring", 5)
        session = Session(network)
        kept = session._warm._kept
        assert kept == {}  # nothing is built before the first query
        sample = dict(k=1, sample=2, oracle=False, soundness=False)
        session.failures(**sample)
        assert len(kept) == 5
        first = dict(kept)
        session.failures(**sample)
        assert kept == first  # the same objects, not rebuilt
        session.failures(properties=["reachability"], **sample)
        assert len(kept) == 10

        session._warm.LIMIT = 12  # instance-level override
        report = session.failures(properties=["black-hole-freedom"], **sample)
        # Two more fit, the third clears the memo, the last two refill it.
        assert len(kept) == 3
        assert report.canonical_records() == session.failures(
            properties=["black-hole-freedom"], **sample
        ).canonical_records()

    def test_a_labeling_that_does_not_validate_is_solved_but_not_kept(self):
        network = build_topology("ring", 5)
        session = Session(network)
        expected = session.failures(k=1, sample=2).canonical_records()
        # Corrupt one stored labeling: every node claims the origin's label.
        stale = session.baseline.baselines[str(session.classes[0].prefix)]
        origin_label = stale.labeling[stale.origins[0]]
        stale.labeling = {node: origin_label for node in stale.labeling}
        fresh = Session(baseline=session.baseline)
        assert fresh.failures(k=1, sample=2).canonical_records() == expected
        assert len(fresh._warm._kept) == 4
        # Reported as what it is, on the first request and on the next.
        script = generated_change_script(network, "ring", steps=1, seed=0)
        for _ in range(2):
            from_store = {
                record.prefix: record.baseline_from_store
                for record in fresh.delta(script).records
            }
            assert from_store.pop(stale.prefix) is False and all(from_store.values())


# ----------------------------------------------------------------------
# Network memo invalidation under topology mutation (the regression the
# failure views rely on: stale caches must never survive an edge removal)
# ----------------------------------------------------------------------
class TestNetworkMemoInvalidation:
    def test_graph_version_counts_mutations(self):
        g = Graph()
        v0 = g.version
        g.add_undirected_edge("a", "b")
        assert g.version > v0
        v1 = g.version
        g.remove_edge("a", "b")
        assert g.version > v1
        g.add_node("c")
        v2 = g.version
        g.remove_node("c")
        assert g.version > v2

    def test_removing_an_edge_changes_the_destination_fingerprint(self):
        network = build_topology("ring", 5)
        before = network._destination_fingerprint()
        classes_before = network.destination_equivalence_classes()
        network.graph.remove_edge("r0", "r1")
        after = network._destination_fingerprint()
        assert before != after
        # The memo is invalidated: a fresh (equal-content) result is
        # computed rather than the stale cached object being returned.
        cached_fingerprint = network._dec_cache[0]
        network.destination_equivalence_classes()
        assert network._dec_cache[0] != cached_fingerprint or before != after
        assert network._dec_cache[0] == network._destination_fingerprint()
        # Destination classes do not depend on edges, so contents agree.
        assert network.destination_equivalence_classes() == classes_before

    def test_removing_an_edge_invalidates_the_local_pref_cache(self):
        network = build_topology("wan", 2)
        values = network.local_pref_values_by_device()
        fingerprint = network._lp_cache[0]
        edge = network.graph.edges[0]
        network.graph.remove_edge(*edge)
        assert network.local_pref_values_by_device() == values
        assert network._lp_cache[0] != fingerprint

    def test_removing_a_node_also_invalidates(self):
        network = build_topology("ring", 5)
        network.destination_equivalence_classes()
        fingerprint = network._dec_cache[0]
        network.graph.remove_node("r0")
        network.destination_equivalence_classes()
        assert network._dec_cache[0] != fingerprint

    def test_unchanged_network_still_hits_the_memo(self):
        network = build_topology("ring", 5)
        network.destination_equivalence_classes()
        cached = network._dec_cache
        network.destination_equivalence_classes()
        assert network._dec_cache is cached


# ----------------------------------------------------------------------
# Per-class state dies with its class
# ----------------------------------------------------------------------
@pytest.fixture
def kept_bonsais(monkeypatch):
    """Every ``Bonsai`` a run's executor makes, kept alive after the run:
    what a class left in one would still be there to see."""
    kept = []
    make = EncodedNetwork.make_bonsai

    def keeping(artifact):
        kept.append(make(artifact))
        return kept[-1]

    monkeypatch.setattr(EncodedNetwork, "make_bonsai", keeping)
    return kept


def _reachable_ids(root) -> set:
    """The ids of the objects reachable from ``root`` through containers
    and ``repro`` objects (not through types, functions or modules)."""
    seen, todo = set(), [root]
    while todo:
        obj = todo.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        todo.extend(
            ref
            for ref in gc.get_referents(obj)
            if isinstance(ref, (dict, list, tuple, set, frozenset))
            or type(ref).__module__.startswith("repro")
        )
    return seen


class TestClassStateDiesWithItsClass:
    @pytest.mark.parametrize(
        "run",
        [
            lambda network: CompressionPipeline(network, executor="serial").run_streaming(
                spill=False
            ),
            # Soundness re-compresses on failure views made by ``derive``.
            lambda network: FailureSweep(network, k=1, limit=4, executor="serial").run(),
        ],
        ids=["compress", "failures"],
    )
    def test_no_refinement_outlives_its_class(self, run, kept_bonsais, monkeypatch):
        """No ``Bonsai`` keeps a class's ``RefinementResult`` past its class:
        neither a refined one nor one mapped from its class orbit."""
        refinements = []
        init = RefinementResult.__init__

        def tracking(self, *args, **kwargs):
            init(self, *args, **kwargs)
            refinements.append(weakref.ref(self))

        monkeypatch.setattr(RefinementResult, "__init__", tracking)
        assert run(build_topology("fattree", 4)).ok()
        gc.collect()
        assert len(refinements) > 1 and kept_bonsais
        assert [ref for ref in refinements if ref() is not None] == []

    def test_no_representative_outlives_a_cold_verify(self, kept_bonsais, monkeypatch):
        """A serial cold verify keeps its class orbits' representatives
        (partition and logged solves on one record) on the run's
        ``Bonsai`` while it runs; none is reachable once it ends."""
        representatives = []
        make = orbit.PartitionOrbit

        def tracking(*args, **kwargs):
            representatives.append(make(*args, **kwargs))
            return representatives[-1]

        monkeypatch.setattr(orbit, "PartitionOrbit", tracking)
        network = fattree_network(4, policy="prefer_bottom")
        assert BatchVerifier(network, executor="serial").run().orbit_counts() == (7, 7)
        assert representatives and kept_bonsais
        assert all(r.concrete is not None and r.abstract is not None for r in representatives)
        reachable = set().union(*map(_reachable_ids, kept_bonsais))
        assert [r for r in representatives if id(r) in reachable] == []

    def test_no_specialisation_memo_outlives_its_class(self, kept_bonsais, monkeypatch):
        """A class task's route-map specialisation memos are shared by its
        steps and gone with it: the script state, which every class of the
        worker shares, holds none of them."""
        memos = []
        keys = delta_sweep.syntactic_policy_keys

        def tracking(*args, specialize_cache=None, **kwargs):
            memos.append(specialize_cache)
            return keys(*args, specialize_cache=specialize_cache, **kwargs)

        monkeypatch.setattr(delta_sweep, "syntactic_policy_keys", tracking)
        network = build_topology("wan", 4)
        script = generated_change_script(network, "wan", steps=3, seed=0)
        assert DeltaSweep(network, script=script, executor="serial").run().ok()
        states = [b._delta_script_state for b in kept_bonsais if hasattr(b, "_delta_script_state")]
        assert states and memos
        # One memo per class (the classes of wan-4 have distinct prefixes),
        # shared across its steps.
        assert len({id(memo) for memo in memos}) < len(memos)
        reachable = set().union(*map(_reachable_ids, states))
        assert [memo for memo in memos if id(memo) in reachable] == []
