"""Tests for the persistent baseline artifact store (`repro.store`)."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.netgen.families import build_topology
from repro.srp.solver import COUNTERS
from repro.store import (
    ARTIFACT_SCHEMA_VERSION,
    STORE_SCHEMA_VERSION,
    ArtifactStore,
    BaselineArtifact,
    StoreError,
    canonical_form,
    network_fingerprint,
)

#: Small instances of every generated family (round-trip coverage).
FAMILY_SIZES = (
    ("datacenter", 2),
    ("fattree", 4),
    ("mesh", 4),
    ("ring", 5),
    ("wan", 2),
)


@pytest.fixture(scope="module")
def ring_network():
    return build_topology("ring", 5)


@pytest.fixture(scope="module")
def ring_artifact(ring_network):
    return BaselineArtifact.build(ring_network)


# ----------------------------------------------------------------------
# Content fingerprints
# ----------------------------------------------------------------------
class TestFingerprint:
    def test_deterministic_across_rebuilds(self):
        a = network_fingerprint(build_topology("ring", 5))
        b = network_fingerprint(build_topology("ring", 5))
        assert a == b
        assert len(a) == 64  # sha256 hex

    def test_distinguishes_networks(self):
        assert network_fingerprint(build_topology("ring", 5)) != network_fingerprint(
            build_topology("ring", 6)
        )
        assert network_fingerprint(build_topology("ring", 5)) != network_fingerprint(
            build_topology("mesh", 5)
        )

    def test_name_is_not_content(self, ring_network):
        """Renaming a network must not change its content fingerprint."""
        other = build_topology("ring", 5)
        other.name = "renamed"
        assert network_fingerprint(other) == network_fingerprint(ring_network)

    def test_canonical_form_sorts_unordered_collections(self):
        assert canonical_form({"b": 1, "a": 2}) == canonical_form({"a": 2, "b": 1})
        assert canonical_form({3, 1, 2}) == canonical_form({2, 1, 3})


# ----------------------------------------------------------------------
# Artifact build
# ----------------------------------------------------------------------
class TestBaselineArtifact:
    def test_build_covers_every_class(self, ring_network, ring_artifact):
        assert ring_artifact.fingerprint == network_fingerprint(ring_network)
        assert len(ring_artifact.baselines) == len(ring_artifact.encoded.classes)
        for baseline in ring_artifact.baselines.values():
            assert baseline.labeling
            assert baseline.transfer_memo
            assert baseline.signature
            assert baseline.partition
            assert baseline.compression is not None
            assert baseline.table is not None

    def test_matches(self, ring_network, ring_artifact):
        assert ring_artifact.matches(ring_network)
        assert not ring_artifact.matches(build_topology("mesh", 4))

    def test_no_compress_build(self, ring_network):
        artifact = BaselineArtifact.build(ring_network, compress=False, limit=2)
        assert len(artifact.baselines) == 2
        for baseline in artifact.baselines.values():
            assert baseline.compression is None
            assert baseline.labeling

    def test_stats(self, ring_artifact):
        stats = ring_artifact.stats()
        assert stats["num_classes"] == len(ring_artifact.baselines)
        assert stats["compressed_classes"] == len(ring_artifact.baselines)
        assert stats["schema_version"] == ARTIFACT_SCHEMA_VERSION


# ----------------------------------------------------------------------
# Store round trips
# ----------------------------------------------------------------------
class TestStoreRoundTrip:
    def test_save_load_identity(self, tmp_path, ring_artifact):
        store = ArtifactStore(tmp_path)
        entry = store.save(ring_artifact)
        assert (entry / "meta.json").is_file()
        assert (entry / "payload.pkl").is_file()

        loaded = store.load(ring_artifact.fingerprint)
        assert loaded.fingerprint == ring_artifact.fingerprint
        assert set(loaded.baselines) == set(ring_artifact.baselines)
        for prefix, original in ring_artifact.baselines.items():
            copy = loaded.baselines[prefix]
            assert copy.labeling == original.labeling
            assert copy.transfer_memo == original.transfer_memo
            assert copy.signature == original.signature
            assert copy.partition == original.partition
            assert copy.origins == original.origins

    @pytest.mark.parametrize("family,size", FAMILY_SIZES)
    def test_every_family_round_trips(self, tmp_path, family, size):
        network = build_topology(family, size)
        artifact = BaselineArtifact.build(network, limit=2)
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load_for(network)
        assert loaded.fingerprint == network_fingerprint(network)
        assert set(loaded.baselines) == set(artifact.baselines)
        for prefix, original in artifact.baselines.items():
            assert loaded.baselines[prefix].labeling == original.labeling
            assert loaded.baselines[prefix].signature == original.signature
            assert loaded.baselines[prefix].partition == original.partition

    def test_the_memo_holds_no_evaluation_of_a_missing_route(self, tmp_path):
        """A scratch solve calls the transfer on a ``None`` label only where
        a static route can answer, so half the memo -- and 8 % of the
        payload -- is gone: fat-tree k=6 saved 483 576 bytes before."""
        from repro.netgen.fattree import fattree_network

        artifact = BaselineArtifact.build(fattree_network(6))
        assert not any(
            label is None
            for stored in artifact.baselines.values()
            for _, label in stored.transfer_memo
        )
        entry = ArtifactStore(tmp_path).save(artifact)
        meta = json.loads((entry / "meta.json").read_text())
        assert meta["payload_bytes"] <= 450_000 < 483_576

    def test_a_cached_hash_never_crosses_a_pickle(self, tmp_path):
        """Attributes cache their hash, string hashes are seeded per process
        and stored artifacts are loaded by other processes: a labeling
        pickled under one hash seed must look up and compare under another."""
        import os
        import subprocess
        import sys

        solved = (
            "from repro.netgen.families import build_topology\n"
            "from repro.abstraction.bonsai import Bonsai\n"
            "from repro.srp.solver import solve\n"
            "bonsai = Bonsai(build_topology('wan', 2))\n"
            "labeling = solve(bonsai.concrete_srp(bonsai.equivalence_classes()[0])).labeling\n"
            "labels = [label for label in labeling.values() if label is not None]\n"
        )
        dump = solved + (
            "import pickle, sys\n"
            "assert len({hash(label) for label in labels}) > 1\n"
            "assert all('_hash' in vars(label) and '_hash' in vars(label.bgp) for label in labels)\n"
            "pickle.dump(labeling, open(sys.argv[1], 'wb'))\n"
        )
        load = solved + (
            "import pickle, sys\n"
            "loaded = pickle.load(open(sys.argv[1], 'rb'))\n"
            "stored = [label for label in loaded.values() if label is not None]\n"
            "assert not any('_hash' in vars(label) or '_hash' in vars(label.bgp) for label in stored)\n"
            "assert loaded == labeling\n"
            "index = {label: node for node, label in labeling.items() if label is not None}\n"
            "assert all(index[label] is not None for label in stored)\n"
            "assert set(stored) == set(labels) and all(label in set(labels) for label in stored)\n"
        )
        path = str(tmp_path / "labeling.pickle")
        src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
        for seed, script in (("1", dump), ("2", load)):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            done = subprocess.run(
                [sys.executable, "-c", script, path], env=env, capture_output=True, text=True
            )
            assert done.returncode == 0, done.stderr

    def test_list_and_meta(self, tmp_path, ring_artifact):
        store = ArtifactStore(tmp_path)
        assert store.list() == []
        store.save(ring_artifact)
        entries = store.list()
        assert len(entries) == 1
        assert entries[0]["fingerprint"] == ring_artifact.fingerprint
        assert entries[0]["num_classes"] == len(ring_artifact.baselines)
        meta = store.meta(ring_artifact.fingerprint)
        assert meta["store_schema_version"] == STORE_SCHEMA_VERSION
        assert meta["artifact_schema_version"] == ARTIFACT_SCHEMA_VERSION

    def test_delete(self, tmp_path, ring_artifact):
        store = ArtifactStore(tmp_path)
        store.save(ring_artifact)
        assert store.has(ring_artifact.fingerprint)
        assert store.delete(ring_artifact.fingerprint)
        assert not store.has(ring_artifact.fingerprint)
        assert not store.delete(ring_artifact.fingerprint)

    def test_a_stale_costs_sidecar_is_ignored_then_deleted(
        self, tmp_path, ring_artifact, capsys
    ):
        """Older stores wrote a ``costs.json`` beside every entry: reads
        ignore it, and ``delete`` removes the entry with it."""
        from repro.pipeline.cli import main as pipeline_main

        store = ArtifactStore(tmp_path)
        fingerprint = ring_artifact.fingerprint
        entry = store.save(ring_artifact)
        (entry / "costs.json").write_text(json.dumps({
            "costs_schema_version": 1,
            "fingerprint": fingerprint,
            "tasks": {"repro.pipeline.core:compress_class_task": {
                "unit_seconds": {"10.0.0.0/24": 0.5}, "num_units": 1,
            }},
        }))
        assert store.load(fingerprint).fingerprint == fingerprint
        assert [meta["fingerprint"] for meta in store.list()] == [fingerprint]
        code = pipeline_main(
            ["store", "info", "--fingerprint", fingerprint, "--store", str(tmp_path)]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "entry verifies" in out and "costs" not in out
        assert store.delete(fingerprint)
        assert list(tmp_path.iterdir()) == []

    def test_delete_stays_inside_the_root(self, tmp_path, ring_artifact):
        root = tmp_path / "store"
        store = ArtifactStore(root)
        store.save(ring_artifact)
        for name in ("", ".", "..", "../store"):
            assert not store.delete(name)
        assert store.has(ring_artifact.fingerprint)


# ----------------------------------------------------------------------
# Corruption: every failure refuses with a diagnostic, never serves junk
# ----------------------------------------------------------------------
class TestStoreCorruption:
    @pytest.fixture()
    def saved(self, tmp_path, ring_artifact):
        store = ArtifactStore(tmp_path)
        entry = store.save(ring_artifact)
        return store, entry, ring_artifact.fingerprint

    def test_missing_entry(self, tmp_path):
        with pytest.raises(StoreError, match="no artifact"):
            ArtifactStore(tmp_path).load("0" * 64)

    def test_truncated_payload(self, saved):
        store, entry, fingerprint = saved
        payload = entry / "payload.pkl"
        payload.write_bytes(payload.read_bytes()[:-20])
        with pytest.raises(StoreError, match="checksum mismatch"):
            store.load(fingerprint)

    def test_bit_flipped_payload(self, saved):
        store, entry, fingerprint = saved
        payload = entry / "payload.pkl"
        raw = bytearray(payload.read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        payload.write_bytes(bytes(raw))
        with pytest.raises(StoreError, match="checksum mismatch"):
            store.load(fingerprint)

    def test_unparseable_meta(self, saved):
        store, entry, fingerprint = saved
        (entry / "meta.json").write_text("{not json")
        with pytest.raises(StoreError, match="unreadable meta"):
            store.load(fingerprint)

    def test_store_schema_mismatch(self, saved):
        store, entry, fingerprint = saved
        meta = json.loads((entry / "meta.json").read_text())
        meta["store_schema_version"] = STORE_SCHEMA_VERSION + 1
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="store schema mismatch"):
            store.load(fingerprint)

    def test_artifact_schema_mismatch(self, saved):
        store, entry, fingerprint = saved
        meta = json.loads((entry / "meta.json").read_text())
        meta["artifact_schema_version"] = ARTIFACT_SCHEMA_VERSION + 1
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="artifact schema mismatch"):
            store.load(fingerprint)

    def test_foreign_fingerprint_in_meta(self, saved):
        store, entry, fingerprint = saved
        meta = json.loads((entry / "meta.json").read_text())
        meta["fingerprint"] = "f" * 64
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="foreign entry"):
            store.load(fingerprint)

    def test_relocated_entry_refused(self, saved):
        """Moving an entry directory under another fingerprint is foreign."""
        store, entry, fingerprint = saved
        stolen = entry.parent / ("a" * 64)
        entry.rename(stolen)
        with pytest.raises(StoreError, match="foreign"):
            store.load("a" * 64)

    def test_payload_is_not_an_artifact(self, saved):
        store, entry, fingerprint = saved
        payload = pickle.dumps({"not": "an artifact"})
        (entry / "payload.pkl").write_bytes(payload)
        meta = json.loads((entry / "meta.json").read_text())
        import hashlib

        meta["payload_sha256"] = hashlib.sha256(payload).hexdigest()
        (entry / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(StoreError, match="not a BaselineArtifact"):
            store.load(fingerprint)

    def test_load_or_build_rebuilds_after_corruption(
        self, saved, ring_network
    ):
        store, entry, fingerprint = saved
        payload = entry / "payload.pkl"
        payload.write_bytes(payload.read_bytes()[:-20])
        artifact, rebuilt, reason = store.load_or_build(ring_network, limit=2)
        assert rebuilt
        assert "checksum mismatch" in reason
        assert artifact.fingerprint == fingerprint
        # The rebuild replaced the corrupt entry: a fresh load verifies.
        again, rebuilt_again, _ = store.load_or_build(ring_network)
        assert not rebuilt_again
        assert again.fingerprint == fingerprint

    def test_load_or_build_clean_load(self, saved, ring_network):
        store, _, fingerprint = saved
        artifact, rebuilt, reason = store.load_or_build(ring_network)
        assert not rebuilt
        assert reason == ""
        assert artifact.fingerprint == fingerprint


# ----------------------------------------------------------------------
# The headline guarantee: delta against a stored baseline never re-solves
# ----------------------------------------------------------------------
class TestZeroBaselineResolves:
    def test_delta_from_store_has_zero_scratch_solves(self, ring_network, ring_artifact):
        from repro.delta import ChangeSet, DeltaSweep, LocalPrefOverride

        device = sorted(ring_network.devices)[0]
        peer = next(iter(ring_network.graph.successors(device)))
        script = [
            ChangeSet(
                name="prefer-peer",
                changes=[
                    LocalPrefOverride(
                        device=str(device), peer=str(peer), local_pref=320
                    )
                ],
            )
        ]
        kwargs = dict(
            script=script,
            oracle=False,
            revalidate=False,
            rebuild_oracle=False,
            executor="serial",
        )

        COUNTERS.reset()
        warm = DeltaSweep(ring_network, baseline=ring_artifact, **kwargs).run()
        counters = COUNTERS.snapshot()
        assert counters["scratch_solves"] == 0
        assert counters["seeded_solves"] > 0
        assert warm.baseline_fingerprint == ring_artifact.fingerprint
        assert all(record.baseline_from_store for record in warm.records)

        # Verdict parity with a from-scratch sweep of the same script.
        COUNTERS.reset()
        cold = DeltaSweep(ring_network, **kwargs).run()
        assert COUNTERS.snapshot()["scratch_solves"] > 0
        assert cold.baseline_fingerprint is None
        warm_canon = {r.prefix: r.canonical() for r in warm.records}
        cold_canon = {r.prefix: r.canonical() for r in cold.records}
        assert warm_canon == cold_canon

    def test_an_artifact_saved_before_the_lean_memo_still_validates(self, tmp_path):
        """What the previous format stored is a superset: the memo also
        held every ``(edge, None)`` evaluation, and the pickled tables
        carried their walk caches as instance attributes."""
        from repro.abstraction.bonsai import Bonsai
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        network = build_topology("wan", 2)  # static routes: some (edge, None) offers are routes
        artifact = BaselineArtifact.build(network)
        bonsai = Bonsai(network)
        for ec in bonsai.equivalence_classes():
            stored = artifact.baselines[str(ec.prefix)]
            srp = bonsai.concrete_srp(ec)
            assert all(  # today's memo: no-route inputs on the static-route edges only
                srp.transfer.offers_without_route(edge)
                for edge, label in stored.transfer_memo
                if label is None
            )
            for edge in srp.graph.edges:
                stored.transfer_memo[(edge, None)] = srp.transfer(edge, None)
            vars(stored.table).update(
                _outcome_cache={}, _paths_cache={}, _sorted_hops_cache={}, truncated_sources=set()
            )
        store = ArtifactStore(tmp_path)
        store.save(artifact)
        loaded = store.load_for(network)

        COUNTERS.reset()
        script = generated_change_script(network, "wan", steps=2, seed=1)
        warm = DeltaSweep(network, baseline=loaded, script=script, executor="serial").run()
        assert all(record.baseline_from_store for record in warm.records)
        cold = DeltaSweep(network, script=script, executor="serial").run()
        assert {r.prefix: r.canonical() for r in warm.records} == {
            r.prefix: r.canonical() for r in cold.records
        }

    def test_mismatched_baseline_is_refused(self, ring_artifact):
        from repro.delta import DeltaSweep
        from repro.netgen.changes import generated_change_script

        other = build_topology("mesh", 4)
        script = generated_change_script(other, "mesh", steps=1, seed=0)
        with pytest.raises(ValueError, match="fingerprints differ"):
            DeltaSweep(other, script=script, baseline=ring_artifact)
