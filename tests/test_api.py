"""Tests for the `repro.api` Session facade."""

from __future__ import annotations

from dataclasses import asdict

import pytest
from test_golden_reports import scrub

from repro import fattree_network
from repro.analysis.batch import BatchVerifier, PropertySuite
from repro.api import Session
from repro.netgen.changes import generated_change_script
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.store import ArtifactStore, StoreError


@pytest.fixture(scope="module")
def ring_session():
    return Session(build_topology("ring", 5))


def _records(report):
    """Every record field but the timings: verdicts, counterexamples,
    ``comparable`` and ``note`` included."""
    return [scrub(asdict(record)) for record in report.records]


def _cold(network, names=None, **params):
    """The batch verifier's serial records, with no stored baseline."""
    suite = PropertySuite.from_names(names, **params) if names else PropertySuite.default(**params)
    return _records(BatchVerifier(network, suite=suite, executor="serial").run())


class TestSessionConstruction:
    def test_needs_network_or_baseline(self):
        with pytest.raises(ValueError, match="needs a network"):
            Session()

    def test_builds_baseline_from_network(self, ring_session):
        assert len(ring_session.classes) == 5
        assert ring_session.fingerprint == ring_session.baseline.fingerprint
        assert not ring_session.rebuilt

    def test_rejects_foreign_baseline(self, ring_session):
        other = build_topology("mesh", 4)
        with pytest.raises(ValueError, match="fingerprints differ"):
            Session(other, baseline=ring_session.baseline)

    def test_class_for(self, ring_session):
        prefix = str(ring_session.classes[0].prefix)
        assert ring_session.class_for(prefix) is not None
        assert ring_session.class_for("203.0.113.0/24") is None


class TestWarmVerify:
    """``Session.verify`` is the batch verifier run on the session's kept
    baselines: warm and cold records are equal."""

    @pytest.mark.parametrize(
        "family, size, policy",
        [(family, None, None) for family in sorted(TOPOLOGY_FAMILIES)]
        + [("fattree", 6, "prefer_bottom")],
    )
    def test_warm_equals_cold(self, family, size, policy):
        if policy is None:
            network = build_topology(family, size)
        else:
            network = fattree_network(size, policy=policy)
        warm = Session(network).verify()
        assert warm.executor == "serial"
        assert warm.verdicts_agree()
        assert _records(warm) == _cold(network)

    def test_explicit_waypoints(self, ring_session):
        network = ring_session.network
        waypoints = tuple(sorted(map(str, network.graph.nodes))[:2])
        warm = ring_session.verify(["waypointing"], waypoints=waypoints)
        assert any(not verdict.comparable for record in warm.records for verdict in record.verdicts)
        assert _records(warm) == _cold(network, ["waypointing"], waypoints=waypoints)

    def test_per_prefix(self, ring_session):
        prefix = str(ring_session.classes[0].prefix)
        report = ring_session.verify(prefix=prefix)
        assert report.num_classes == 1
        assert _records(report) == _cold(ring_session.network)[:1]
        with pytest.raises(ValueError, match="no destination class"):
            ring_session.verify(prefix="203.0.113.0/24")

    def test_warm_never_resolves_the_concrete_baseline(self, counter_delta):
        """Each class's stored labeling is validated once per session (a
        zero-dirty seeded solve) and kept: the only scratch solves are the
        per-class *abstract* networks (compressed instances -- the cheap
        side of the paper's asymmetry), and a later verify or delta
        validates nothing again."""
        network = build_topology("ring", 5)
        session = Session(network)
        classes = len(session.classes)
        with counter_delta("srp.") as solves:
            session.verify()
        assert (solves["srp.seeded_solves"], solves["srp.scratch_solves"]) == (classes, classes)
        assert len(session._warm._kept) == classes

        with counter_delta("srp.") as solves:
            session.verify()
            # The generated one-step script changes no class: carried, unsolved.
            session.delta(
                generated_change_script(network, "ring", steps=1, seed=0), revalidate=False
            )
        assert (solves["srp.seeded_solves"], solves["srp.scratch_solves"]) == (0, classes)
        assert len(session._warm._kept) == classes

    def test_selected_properties(self, ring_session):
        report = ring_session.verify(["reachability"])
        assert report.properties == ["reachability"]


class TestSessionAnalyses:
    def test_failures(self, ring_session):
        report = ring_session.failures(k=1, sample=4, oracle=False, soundness=False)
        assert report.kind == "failures"
        assert report.num_classes == 5

    def test_k_resilience(self, ring_session):
        result = ring_session.k_resilience(
            max_k=1, sample=4, oracle=False, soundness=False
        )
        assert result["property"] == "reachability"
        assert "k=1" in result
        assert "breaking_k" in result

    def test_delta_uses_stored_baseline(self, ring_session, counter_delta):
        from repro.delta import ChangeSet, LocalPrefOverride

        device = sorted(ring_session.network.devices)[0]
        peer = next(iter(ring_session.network.graph.successors(device)))
        script = [
            ChangeSet(
                name="prefer-peer",
                changes=[
                    LocalPrefOverride(
                        device=str(device), peer=str(peer), local_pref=260
                    )
                ],
            )
        ]
        with counter_delta("srp.") as solves:
            report = ring_session.delta(script, revalidate=False)
        assert report.kind == "delta"
        assert report.baseline_fingerprint == ring_session.fingerprint
        assert solves["srp.scratch_solves"] == 0
        assert all(record.baseline_from_store for record in report.records)


class TestSessionPersistence:
    def test_save_and_load_round_trip(self, tmp_path, ring_session):
        entry = ring_session.save(tmp_path)
        assert entry.is_dir()
        loaded = Session.load(tmp_path, network=build_topology("ring", 5))
        assert loaded.fingerprint == ring_session.fingerprint
        assert _records(loaded.verify()) == _records(ring_session.verify())

    def test_load_by_fingerprint(self, tmp_path, ring_session):
        ring_session.save(tmp_path)
        loaded = Session.load(tmp_path, fingerprint=ring_session.fingerprint)
        assert loaded.fingerprint == ring_session.fingerprint

    def test_load_missing_is_strict(self, tmp_path):
        with pytest.raises(StoreError):
            Session.load(tmp_path, network=build_topology("ring", 5))
        with pytest.raises(ValueError, match="needs a network or a fingerprint"):
            Session.load(tmp_path)

    def test_save_needs_a_root(self, ring_session):
        with pytest.raises(ValueError, match="no store root"):
            Session(baseline=ring_session.baseline).save()

    def test_constructor_load_or_build(self, tmp_path):
        network = build_topology("ring", 5)
        first = Session(network, store=tmp_path)
        assert first.rebuilt  # nothing stored yet: built and saved
        assert ArtifactStore(tmp_path).has(first.fingerprint)
        second = Session(build_topology("ring", 5), store=tmp_path)
        assert not second.rebuilt  # warm load, no re-solve
        assert second.fingerprint == first.fingerprint


class TestReportEnvelope:
    def test_load_report_round_trips_every_kind(self, ring_session, tmp_path):
        from repro.reporting import load_report, registered_report_kinds

        assert set(registered_report_kinds()) >= {
            "compression",
            "verification",
            "failures",
            "delta",
        }
        verification = ring_session.verify()
        loaded = load_report(verification.to_json())
        assert type(loaded) is type(verification)
        assert loaded.kind == "verification"
        data = verification.to_dict()
        assert data["schema_version"] == 2
        assert data["kind"] == "verification"
        assert data["ok"] is True
        assert data["generated_by"].startswith("repro-bonsai")

    def test_load_report_rejects_unknown_kind(self):
        from repro.reporting import load_report

        with pytest.raises(ValueError, match="unknown report kind"):
            load_report({"kind": "bogus"})
        with pytest.raises(ValueError, match="no 'kind'"):
            load_report({"records": []})

    def test_every_kind_names_its_report_class(self):
        from repro.reporting import REPORT_KINDS, report_class_for

        for kind in REPORT_KINDS:
            assert report_class_for(kind).kind == kind

    def test_compression_report_envelope(self):
        from repro.pipeline.core import CompressionPipeline
        from repro.reporting import load_report

        report = CompressionPipeline(
            build_topology("ring", 5), executor="serial"
        ).run().report
        loaded = load_report(report.to_dict())
        assert loaded.kind == "compression"
        assert loaded.num_classes == report.num_classes
