"""Tests for the change-impact analysis subsystem (`repro.delta`)."""

from __future__ import annotations

import json
import random

import pytest
from hypothesis import given, settings, strategies as st
from test_change_wire import CHANGES

from repro.abstraction.bonsai import Bonsai
from repro.abstraction.ec import routable_equivalence_classes
from repro.abstraction.orbit import ClassOrbit
from repro.config.acl import AclLine
from repro.config.prefix import Prefix
from repro.config.routemap import RouteMapClause
from repro.config.transfer import build_srp_from_network, syntactic_policy_keys
from repro.delta import (
    CHANGE_KINDS,
    ChangeError,
    ChangeSet,
    DeltaReport,
    DeltaSweep,
    DeviceAdd,
    DeviceRemove,
    InterfaceAclSet,
    LinkAdd,
    LinkRemove,
    LocalPrefOverride,
    PrefixOriginate,
    PrefixWithdraw,
    RouteMapClauseDelete,
    RouteMapClauseEdit,
    RouteMapClauseInsert,
    change_from_dict,
    delta_resolve,
    diff_network_edges,
    load_change_script,
    sweep_changes,
)
from repro.delta.revalidate import class_signature, signature_matches
from repro.delta.sweep import _script_state
from repro.netgen.base import uniform_bgp_network
from repro.netgen.changes import (
    anycast_origin_change,
    decommission_link_change,
    default_change_steps,
    generated_change_script,
    invariant_acl_change,
    prefer_neighbour_change,
    tighten_export_change,
)
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology, default_size
from repro.obs import events
from repro.pipeline.cli import main as pipeline_main
from repro.pipeline.encoded import EncodedNetwork
from repro.reporting import load_report
from repro.srp.solver import solve

from topologies import chain_topology


#: One change of every kind, its optional fields set where it has any
#: (the wire fixture's cases list each kind's fullest variant last).
WIRE_EXAMPLES = {change.kind: change for change in CHANGES.values()}


def chain_network(length: int = 5):
    graph, _ = chain_topology(length)
    return uniform_bgp_network(
        graph, f"chain-{length}", originators=[f"r{length - 1}"]
    )


# ----------------------------------------------------------------------
# ChangeSet model
# ----------------------------------------------------------------------
class TestChangeSet:
    def test_apply_does_not_mutate_and_shares_untouched_devices(self):
        network = build_topology("ring", 5)
        version_before = network.graph.version
        changeset = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=300),)
        )
        changed = changeset.apply(network)
        assert network.graph.version == version_before
        assert "DELTA-LP-r1-300" not in network.devices["r0"].route_maps
        # Touched device copied, untouched devices shared by identity.
        assert changed.devices["r0"] is not network.devices["r0"]
        assert changed.devices["r2"] is network.devices["r2"]
        assert "DELTA-LP-r1-300" in changed.devices["r0"].route_maps

    def test_validation_reports_problems_in_order(self):
        network = build_topology("ring", 4)
        changeset = ChangeSet(
            changes=(
                LinkRemove(u="r0", v="r2"),  # not adjacent
                PrefixWithdraw(device="r9", prefix=Prefix.parse("10.0.0.0/24")),
            )
        )
        problems = changeset.validate(network)
        assert len(problems) == 2
        assert "not in the topology" in problems[0]
        with pytest.raises(ChangeError):
            changeset.apply(network)

    def test_sequential_validation_sees_earlier_changes(self):
        network = build_topology("ring", 4)
        changeset = ChangeSet(
            changes=(
                DeviceAdd(name="new0", neighbours=("r0",)),
                LinkAdd(u="new0", v="r2"),
            )
        )
        assert changeset.validate(network) == []
        changed = changeset.apply(network)
        assert changed.graph.has_edge("new0", "r2")
        assert "new0" in changed.devices

    def test_link_remove_drops_sessions(self):
        network = build_topology("ring", 4)
        changed = ChangeSet(changes=(LinkRemove(u="r0", v="r1"),)).apply(network)
        assert not changed.graph.has_edge("r0", "r1")
        assert "r1" not in changed.devices["r0"].bgp_neighbors
        assert "r0" not in changed.devices["r1"].bgp_neighbors
        assert changed.validate() == []

    def test_device_remove_cleans_neighbour_sessions(self):
        network = build_topology("ring", 5)
        changed = ChangeSet(changes=(DeviceRemove(name="r2"),)).apply(network)
        assert "r2" not in changed.devices
        assert "r2" not in changed.devices["r1"].bgp_neighbors
        assert "r2" not in changed.devices["r3"].bgp_neighbors
        assert changed.validate() == []

    def test_route_map_clause_lifecycle(self):
        network = build_topology("ring", 4)
        clause = RouteMapClause(sequence=5, action="deny")
        insert = ChangeSet(
            changes=(
                RouteMapClauseInsert(
                    device="r0", route_map="EXPORT-FILTER", clause=clause
                ),
            )
        )
        changed = insert.apply(network)
        clauses = changed.devices["r0"].route_maps["EXPORT-FILTER"].clauses
        assert clauses[0].sequence == 5 and clauses[0].action == "deny"
        # Re-inserting the same sequence is rejected; editing works.
        assert insert.validate(changed)
        edited = ChangeSet(
            changes=(
                RouteMapClauseEdit(
                    device="r0",
                    route_map="EXPORT-FILTER",
                    clause=RouteMapClause(sequence=5, action="permit"),
                ),
            )
        ).apply(changed)
        assert edited.devices["r0"].route_maps["EXPORT-FILTER"].clauses[0].action == "permit"
        deleted = ChangeSet(
            changes=(
                RouteMapClauseDelete(
                    device="r0", route_map="EXPORT-FILTER", sequence=5
                ),
            )
        ).apply(edited)
        assert all(
            c.sequence != 5
            for c in deleted.devices["r0"].route_maps["EXPORT-FILTER"].clauses
        )

    def test_originate_and_withdraw(self):
        network = chain_network(4)
        prefix = network.devices["r3"].originated_prefixes[0]
        anycast = ChangeSet(
            changes=(PrefixOriginate(device="r0", prefix=prefix),)
        ).apply(network)
        assert prefix in anycast.devices["r0"].originated_prefixes
        gone = ChangeSet(
            changes=(PrefixWithdraw(device="r3", prefix=prefix),)
        ).apply(network)
        assert prefix not in gone.devices["r3"].originated_prefixes

    @pytest.mark.parametrize("kind", sorted(CHANGE_KINDS))
    def test_json_roundtrip_every_kind(self, kind):
        change = WIRE_EXAMPLES[kind]
        changeset = ChangeSet(changes=(change,), name="churn")
        restored = ChangeSet.from_json(changeset.to_json())
        assert restored == changeset
        assert restored.name == changeset.name
        assert change_from_dict(change.to_dict()) == change

    def test_unknown_kind_rejected(self):
        with pytest.raises(ChangeError):
            change_from_dict({"kind": "teleport-router"})

    def test_load_change_script_formats(self):
        changeset = ChangeSet(changes=(LinkRemove(u="a", v="b"),), name="x")
        single = changeset.to_json()
        assert [cs.name for cs in load_change_script(single)] == ["x"]
        as_list = f"[{single}]"
        assert len(load_change_script(as_list)) == 1
        wrapped = f'{{"script": [{single}]}}'
        assert len(load_change_script(wrapped)) == 1
        assert load_change_script(json.loads(wrapped)) == load_change_script(wrapped)
        with pytest.raises(ChangeError):
            load_change_script('"not-a-script"')


# ----------------------------------------------------------------------
# Incremental re-solve == scratch rebuild
# ----------------------------------------------------------------------
def _first_class(network):
    return routable_equivalence_classes(network)[0]


def _resolve_pair(network, changed, prefix, origins):
    """(incremental solution, scratch solution) for one changed network."""
    baseline = solve(build_srp_from_network(network, prefix, set(origins)))
    diff = diff_network_edges(network, changed, prefix)
    result = delta_resolve(
        build_srp_from_network(changed, prefix, set(origins)), baseline, diff
    )
    scratch = solve(build_srp_from_network(changed, prefix, set(origins)))
    return result, scratch


class TestDeltaResolve:
    def test_route_map_tightening_matches_scratch(self):
        network = build_topology("fattree", 4)
        changeset = tighten_export_change(network, random.Random(0))
        changed = changeset.apply(network)
        ec = _first_class(network)
        result, scratch = _resolve_pair(network, changed, ec.prefix, ec.origins)
        assert result.incremental_used
        assert result.solution.labeling == scratch.labeling

    def test_invariant_change_has_empty_diff(self):
        network = build_topology("fattree", 4)
        changeset = invariant_acl_change(network, random.Random(0))
        changed = changeset.apply(network)
        ec = _first_class(network)
        diff = diff_network_edges(network, changed, ec.prefix)
        assert diff.is_empty()
        result, scratch = _resolve_pair(network, changed, ec.prefix, ec.origins)
        assert result.tainted == frozenset() and result.solution.labeling == scratch.labeling

    def test_link_and_device_churn_matches_scratch(self):
        network = build_topology("ring", 6)
        changeset = ChangeSet(
            changes=(
                LinkRemove(u="r1", v="r2"),
                DeviceAdd(name="newdev", neighbours=("r0", "r3")),
            )
        )
        changed = changeset.apply(network)
        ec = _first_class(network)
        result, scratch = _resolve_pair(network, changed, ec.prefix, ec.origins)
        assert result.solution.labeling == scratch.labeling
        assert result.solution.labeling.get("newdev") is not None

    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_generated_scripts_label_identical_to_scratch(self, family):
        """The sweep's oracle comparison across every netgen family."""
        network = build_topology(family, default_size(family))
        script = generated_change_script(network, family)
        report = DeltaSweep(
            network,
            script=script,
            executor="serial",
            revalidate=False,
            oracle=True,
            limit=3,
        ).run()
        assert report.incremental_all_match(), report.incremental_divergences()
        used = [
            o.incremental_used
            for r in report.records
            for o in r.steps
            if not (o.unroutable or o.origins_changed)
        ]
        assert used and all(used)

    @settings(max_examples=20, deadline=None)
    @given(
        family=st.sampled_from(sorted(TOPOLOGY_FAMILIES)),
        data=st.data(),
    )
    def test_random_changes_label_identical_to_scratch(self, family, data):
        """Hypothesis parity: ChangeSet.apply + incremental re-solve is
        label-identical to rebuilding the mutated network from scratch."""
        network = build_topology(family, default_size(family))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        samplers = [
            invariant_acl_change,
            tighten_export_change,
            prefer_neighbour_change,
            decommission_link_change,
            anycast_origin_change,
        ]
        picked = data.draw(st.sampled_from(samplers))
        changeset = picked(network, rng)
        if changeset is None:
            return
        changed = changeset.apply(network)
        for ec in routable_equivalence_classes(network)[:2]:
            origins = set(ec.origins)
            changed_origins = {
                candidate.origins
                for candidate in routable_equivalence_classes(changed)
                if candidate.prefix == ec.prefix
            }
            if changed_origins != {frozenset(origins)}:
                continue  # origin set changed; the sweep scratch-solves
            result, scratch = _resolve_pair(network, changed, ec.prefix, origins)
            assert result.solution.labeling == scratch.labeling


# ----------------------------------------------------------------------
# A step's key map, derived from the step before's
# ----------------------------------------------------------------------
def _state_for(network, script):
    bonsai = EncodedNetwork.build(network).make_bonsai()
    state = _script_state(bonsai, script)
    state.owner = bonsai  # the state refers to the Bonsai it hangs off weakly
    return state


def _assert_localised_keys_are_the_full_keys(network, script):
    """Chain every class through the script the way the task does; the
    map derived from the step before must equal the one computed in full."""
    state = _state_for(network, script)
    for ec in routable_equivalence_classes(network):
        before = state.policy_keys(-1, ec.prefix)
        assert before == syntactic_policy_keys(network, ec.prefix)
        for step, (_, changed) in enumerate(state.steps):
            keys = state.policy_keys(step, ec.prefix, before)
            assert keys == syntactic_policy_keys(changed, ec.prefix), (step, str(ec.prefix))
            before = keys
    return state


class TestLocalisedKeys:
    @pytest.mark.parametrize("seed", [0, 1])
    @pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
    def test_generated_scripts(self, family, seed):
        network = build_topology(family, default_size(family))
        script = generated_change_script(network, family, seed=seed)
        state = _assert_localised_keys_are_the_full_keys(network, script)
        # The invariant ACL is localised; a decommissioned link is not.
        assert state.touched_edges(0) is not None
        assert any(state.touched_edges(step) is None for step in range(1, len(script)))

    @settings(max_examples=25, deadline=None)
    @given(family=st.sampled_from(sorted(TOPOLOGY_FAMILIES)), data=st.data())
    def test_random_changes(self, family, data):
        network = build_topology(family, default_size(family))
        rng = random.Random(data.draw(st.integers(min_value=0, max_value=2**16)))
        samplers = [
            invariant_acl_change,
            tighten_export_change,
            prefer_neighbour_change,
            decommission_link_change,
            anycast_origin_change,
        ]
        script = []
        for sampler in data.draw(st.lists(st.sampled_from(samplers), min_size=1, max_size=3)):
            changeset = sampler(network, rng)
            current = network
            try:
                for earlier in script:
                    current = earlier.apply(current)
                if changeset is not None:
                    changeset.assert_valid(current)
                    script.append(changeset)
            except ChangeError:
                continue
        if script:
            _assert_localised_keys_are_the_full_keys(network, script)

    def test_an_unchanged_class_gets_the_very_map_it_gave(self):
        network = build_topology("fattree", 4)
        state = _state_for(network, [invariant_acl_change(network, random.Random(0))])
        for ec in routable_equivalence_classes(network):
            before = state.policy_keys(-1, ec.prefix)
            assert state.policy_keys(0, ec.prefix, before) is before
            assert diff_network_edges(
                network, state.steps[0][1], ec.prefix, before, before
            ).is_empty()

    def test_an_acl_that_bites_changes_only_the_class_it_denies(self):
        network = build_topology("fattree", 4)
        target, other = routable_equivalence_classes(network)[:2]
        hub = sorted(str(n) for n in network.graph.nodes if str(n) not in target.origins)[0]
        peer = sorted(str(n) for n in network.graph.successors(hub))[0]
        bite = ChangeSet(changes=(InterfaceAclSet(
            device=hub, peer=peer, name="BITE",
            lines=(AclLine(action="deny", prefix=target.prefix),), default_action="permit",
        ),))
        state = _assert_localised_keys_are_the_full_keys(network, [bite])
        before = state.policy_keys(-1, other.prefix)
        assert state.policy_keys(0, other.prefix, before) is before
        before = state.policy_keys(-1, target.prefix)
        after = state.policy_keys(0, target.prefix, before)
        assert [e for e in after if after[e] != before[e]] == [(hub, peer)]

    @pytest.mark.parametrize(
        "change",
        [
            # Attaches a community nothing matches: the unused set grows.
            RouteMapClauseInsert(
                device="r1", route_map="EXPORT-FILTER",
                clause=RouteMapClause(sequence=1, action="permit", set_communities=("65000:77",)),
            ),
            LinkAdd(u="r0", v="r2"),
            LinkRemove(u="r1", v="r2"),
            DeviceAdd(name="extra", neighbours=("r0",)),
            DeviceRemove(name="r0"),
        ],
        ids=lambda change: type(change).__name__,
    )
    def test_fall_back_when_more_than_device_configs_changed(self, change):
        network = chain_network(5)
        state = _assert_localised_keys_are_the_full_keys(network, [ChangeSet(changes=(change,))])
        assert state.touched_edges(0) is None

    def test_fall_back_after_an_unroutable_step(self):
        """Withdrawn then re-originated: the second step has no previous
        key map to start from, and is keyed in full."""
        network = chain_network(5)
        prefix = network.devices["r4"].originated_prefixes[0]
        script = [
            ChangeSet(changes=(PrefixWithdraw(device="r4", prefix=prefix),)),
            ChangeSet(changes=(PrefixOriginate(device="r4", prefix=prefix),)),
        ]
        report = DeltaSweep(network, script=script, executor="serial", revalidate=False).run()
        gone, back = report.records[0].steps
        assert gone.unroutable and back.origins_changed and not back.newly_failing
        counters = report.envelope_dict()["obs_metrics"]["counters"]
        assert counters["delta.keys.full"] == 1 and "delta.keys.localised" not in counters
        assert report.ok()


# ----------------------------------------------------------------------
# Abstraction revalidation
# ----------------------------------------------------------------------
class TestRevalidation:
    def test_invariant_change_reuses_every_class(self):
        """The acceptance showcase: a compression-invariant change reuses
        the baseline abstraction with zero re-compressed classes."""
        network = build_topology("fattree", 4)
        changeset = invariant_acl_change(network, random.Random(0))
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        counts = report.abstraction_counts()
        assert counts["recompressed"] == 0
        assert counts["reused"] == counts["checked"] > 0
        assert counts["disagreed"] == 0
        assert report.ok()

    def test_reused_abstraction_compresses_nothing(self, monkeypatch):
        """A step that reuses the baseline abstraction compresses nothing:
        the only compressions are the per-class baselines, one class orbit
        compression each, and ``Bonsai.compress`` runs only inside those."""
        network = build_topology("fattree", 4)
        changeset = invariant_acl_change(network, random.Random(0))
        baselines, inside, outside = [], [], []
        orbit_compress, compress = ClassOrbit.compress, Bonsai.compress

        def counted_orbit(self, *args, **kwargs):
            baselines.append(1)
            inside.append(1)
            try:
                return orbit_compress(self, *args, **kwargs)
            finally:
                inside.pop()

        def counted(self, *args, **kwargs):
            if not inside:
                outside.append(1)
            return compress(self, *args, **kwargs)

        monkeypatch.setattr(ClassOrbit, "compress", counted_orbit)
        monkeypatch.setattr(Bonsai, "compress", counted)
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        outcomes = [o for r in report.records for o in r.steps]
        assert outcomes and all(o.reused and not o.recompressed for o in outcomes)
        assert len(baselines) == report.num_classes == len(report.records)
        assert outside == []

    def test_tightening_dirties_only_the_target_class(self):
        network = build_topology("fattree", 4)
        changeset = tighten_export_change(network, random.Random(0))
        target = str(changeset.changes[0].entries[0].prefix)
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        for record in report.records:
            outcome = record.steps[0]
            assert outcome.abstract_agrees() is True
            if record.prefix == target:
                assert outcome.recompressed and not outcome.reused
            else:
                assert outcome.reused and not outcome.recompressed

    def test_topology_change_recompresses_and_agrees(self):
        network = build_topology("ring", 5)
        changeset = decommission_link_change(network, random.Random(0))
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        outcomes = [o for r in report.records for o in r.steps]
        assert outcomes and all(o.recompressed for o in outcomes)
        assert all(o.abstract_agrees() is True for o in outcomes)
        assert "topology changed" in outcomes[0].revalidation["reason"]

    def test_signature_reports_reasons(self):
        network = build_topology("ring", 4)
        ec = _first_class(network)
        base = class_signature(network, ec.prefix, ec.origins)
        assert signature_matches(base, base) == ""
        changed = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=250),)
        ).apply(network)
        reason = signature_matches(
            base, class_signature(changed, ec.prefix, ec.origins)
        )
        assert reason  # keys and local-pref sets both change; any reason works


# ----------------------------------------------------------------------
# Sweep driver and report
# ----------------------------------------------------------------------
class TestDeltaSweep:
    def test_report_json_roundtrip(self):
        network = build_topology("ring", 4)
        script = generated_change_script(network, "ring")
        report = DeltaSweep(network, script=script, executor="serial").run()
        restored = DeltaReport.from_json(report.to_json())
        assert restored.canonical_records() == report.canonical_records()
        assert restored.num_steps == report.num_steps
        assert restored.ok() == report.ok()
        data = report.to_dict()
        assert "aggregate" in data
        assert data["aggregate"]["incremental_all_match"] is True

    def test_version_1_report_refused(self):
        """A version 1 report (which carries a header field this build no
        longer has) is refused by its version, not by a ``TypeError`` on
        the field."""
        network = build_topology("ring", 4)
        script = generated_change_script(network, "ring")
        data = DeltaSweep(network, script=script, executor="serial").run().to_dict()
        data.update(version=1, retired_header_field=True)
        with pytest.raises(ValueError, match="version 1: this build reads version 2"):
            load_report(data)

    def test_first_breaking_change_and_witnesses(self):
        network = chain_network(5)
        prefix = network.devices["r4"].originated_prefixes[0]
        script = [
            ChangeSet(
                changes=(LocalPrefOverride(device="r1", peer="r2", local_pref=300),),
                name="benign",
            ),
            ChangeSet(
                changes=(PrefixWithdraw(device="r4", prefix=prefix),),
                name="withdraw",
            ),
        ]
        report = DeltaSweep(network, script=script, executor="serial").run()
        first = report.first_break()
        assert first["reachability"] == "withdraw"
        prop, step = report.first_property_broken()
        assert step == "withdraw"
        outcome = report.records[0].steps[1]
        assert outcome.unroutable
        assert set(outcome.newly_failing["reachability"]) >= {"r0", "r1"}

    def test_anycast_origin_change_uses_scratch(self):
        network = build_topology("ring", 5)
        changeset = anycast_origin_change(network, random.Random(0))
        assert changeset is not None
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        target = str(changeset.changes[0].prefix)
        for record in report.records:
            outcome = record.steps[0]
            if record.prefix == target:
                assert outcome.origins_changed and not outcome.incremental_used
            else:
                assert outcome.incremental_used
        assert report.ok()

    def test_added_device_verdicts_reach_the_report(self):
        """A device commissioned broken must show up as newly failing."""
        network = build_topology("ring", 4)
        changeset = ChangeSet(
            changes=(
                DeviceAdd(name="stranded", neighbours=("r0",)),
                LinkRemove(u="stranded", v="r0"),  # commissioned isolated
            ),
            name="strand",
        )
        report = DeltaSweep(network, script=[changeset], executor="serial").run()
        assert report.incremental_all_match()
        failing = {
            node
            for record in report.records
            for node in record.steps[0].newly_failing.get("reachability", [])
        }
        assert "stranded" in failing
        assert report.first_break()["reachability"] == "strand"

    def test_unchanged_step_carries_the_step_before_not_the_baseline(self):
        """Step 1 breaks a class, step 2 (an ACL over off-site space) changes
        no edge of it: step 2 reports step 1's breakage and witnesses."""
        network = build_topology("wan")
        script = [
            tighten_export_change(network, random.Random(0)),
            invariant_acl_change(network, random.Random(0)),
        ]
        report = DeltaSweep(network, script=script, executor="serial").run()
        broken = [r for r in report.records if r.steps[0].newly_failing]
        assert len(broken) == 1
        first, second = broken[0].steps
        assert (second.edges_changed, second.tainted, second.dirty) == (0, 0, 0)
        assert second.newly_failing == first.newly_failing != {}
        assert second.witnesses == first.witnesses != {}
        assert second.witnesses is not first.witnesses
        assert second.incremental_matches_scratch is True
        assert (second.reused, second.recompressed) == (first.reused, first.recompressed)
        assert second.revalidation["agrees"] is True
        assert report.ok()

    def test_report_and_telemetry_say_which_path_ran(self):
        network = build_topology("wan")
        script = generated_change_script(network, "wan", seed=1)
        seen = []
        events.subscribe(seen.append)
        try:
            report = DeltaSweep(network, script=script, executor="serial").run()
        finally:
            events.unsubscribe(seen.append)
        pairs = report.pairs_by_diff()
        assert sum(pairs.values()) == report.num_classes * report.num_steps
        # Step 1 touches no class, step 2 exactly one.
        assert pairs["unchanged"] == 2 * report.num_classes - 1
        line = (
            f"unchanged by the edge diff: {pairs['unchanged']}/{sum(pairs.values())} "
            "(class, step) pairs carried forward"
        )
        assert line in report.summary_lines()
        counters = report.envelope_dict()["obs_metrics"]["counters"]
        assert counters["delta.class_steps.carried"] == pairs["unchanged"]
        assert (
            counters["delta.class_steps.carried"] + counters["delta.class_steps.resolved"]
            == sum(pairs.values())
        )
        assert counters["delta.keys.localised"] > 0 and counters["delta.keys.full"] > 0
        (event,) = [e for e in seen if e["type"] == "delta.carried"]
        assert event["carried"] == pairs["unchanged"]
        assert {k: event[k] for k in ("diff_nonempty", "origins_changed", "unroutable")} == {
            k: pairs[k] for k in ("diff_nonempty", "origins_changed", "unroutable")
        }
        # The wire format has no key for any of it.
        assert DeltaReport.from_json(report.to_json()).pairs_by_diff() == pairs

    def test_process_executor_matches_serial(self):
        network = build_topology("ring", 4)
        script = generated_change_script(network, "ring", steps=2)
        serial = DeltaSweep(network, script=script, executor="serial").run()
        process = DeltaSweep(
            network, script=script, executor="process", workers=2
        ).run()
        assert serial.canonical_records() == process.canonical_records()

    def test_sweep_changes_convenience(self):
        network = chain_network(4)
        changeset = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=200),)
        )
        report = sweep_changes(network, [changeset], properties=["reachability"])
        assert report.properties == ["reachability"]
        assert report.ok()

    def test_invalid_script_rejected_up_front(self):
        network = build_topology("ring", 4)
        with pytest.raises(ChangeError):
            DeltaSweep(
                network,
                script=[ChangeSet(changes=(LinkRemove(u="r0", v="r2"),))],
            )
        with pytest.raises(ValueError):
            DeltaSweep(network, script=[])

    def test_no_oracle_skips_scratch(self):
        network = chain_network(4)
        changeset = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=200),)
        )
        report = DeltaSweep(
            network, script=[changeset], executor="serial", oracle=False,
            revalidate=False,
        ).run()
        outcomes = [o for r in report.records for o in r.steps]
        assert all(o.incremental_matches_scratch is None for o in outcomes)
        assert report.scratch_seconds == 0
        assert report.ok()

    def test_speedup_needs_both_arms(self):
        """Delta's speedup is the failure kind's: scratch over incremental
        re-solve seconds of the units that ran both."""
        network = build_topology("fattree", 4)
        changeset = invariant_acl_change(network, random.Random(0))
        with_arms = DeltaSweep(
            network, script=[changeset], executor="serial"
        ).run()
        compared = [o for r in with_arms.records for o in r.steps if o.incremental_used]
        assert compared and all(o.scratch_seconds > 0 for o in compared)
        assert with_arms.incremental_speedup == pytest.approx(
            sum(o.scratch_seconds for o in compared)
            / sum(o.incremental_seconds for o in compared)
        )
        without = DeltaSweep(
            network, script=[changeset], executor="serial", oracle=False
        ).run()
        assert without.incremental_speedup is None

    def test_default_change_steps(self):
        assert default_change_steps("fattree") == 4
        assert default_change_steps("mesh") == 3


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestDeltaCli:
    def test_delta_smoke_generated(self, tmp_path, capsys):
        out = tmp_path / "delta.json"
        status = pipeline_main(
            [
                "delta",
                "--family",
                "ring",
                "--size",
                "5",
                "--executor",
                "serial",
                "--output",
                str(out),
            ]
        )
        assert status == 0
        report = DeltaReport.from_json(out.read_text())
        assert report.num_steps >= 1
        assert "change-impact sweep: ring(5)" in capsys.readouterr().out

    def test_delta_with_script_file(self, tmp_path):
        network = build_topology("ring", 4)
        changeset = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=300),),
            name="scripted",
        )
        script_file = tmp_path / "changes.json"
        script_file.write_text(f"[{changeset.to_json()}]")
        out = tmp_path / "delta.json"
        status = pipeline_main(
            [
                "delta",
                "--family",
                "ring",
                "--size",
                "4",
                "--executor",
                "serial",
                "--changes",
                str(script_file),
                "--output",
                str(out),
            ]
        )
        assert status == 0
        report = DeltaReport.from_json(out.read_text())
        assert report.step_names == ["scripted"]

    @pytest.mark.parametrize(
        "script, expected",
        [
            ('[{"kind": "link-remove", "u": "r0"}]', "link-remove: field 'v' is missing"),
            (
                '[{"kind": "link-cost", "u": "r0", "v": "r1", "cost": "x"}]',
                "link-cost: field 'cost': expected int, got 'x'",
            ),
            ('[{"kind": "teleport-router"}]', "unknown change kind 'teleport-router'"),
            ("42", "a change script must be a JSON list of change sets, got int"),
        ],
        ids=["missing-field", "ill-typed-field", "unknown-kind", "not-a-list"],
    )
    def test_delta_rejects_broken_script_file(self, tmp_path, capsys, script, expected):
        """A bad script is a usage error naming the change kind and field,
        not a traceback."""
        script_file = tmp_path / "changes.json"
        script_file.write_text(script)
        status = pipeline_main(
            ["delta", "--family", "ring", "--size", "4", "--changes", str(script_file)]
        )
        assert status == 2
        err = capsys.readouterr().err
        assert f"error: cannot load change script {script_file}: {expected}" in err

    def test_delta_flags_require_mode(self, capsys):
        assert pipeline_main(["compress", "--topo", "ring", "--changes", "generated"]) == 2
        assert "unrecognized arguments: --changes" in capsys.readouterr().err
        assert pipeline_main(["failures", "--topo", "ring", "--no-revalidate"]) == 2
        assert "unrecognized arguments: --no-revalidate" in capsys.readouterr().err

    def test_cross_mode_flags_rejected(self, capsys):
        """A mode must reject the other modes' flags, not drop them."""
        assert (
            pipeline_main(["failures", "--topo", "ring", "--changes", "x.json"])
            == 2
        )
        assert "--changes" in capsys.readouterr().err
        assert pipeline_main(["delta", "--topo", "ring", "--k", "2"]) == 2
        assert "--k" in capsys.readouterr().err
        assert pipeline_main(["verify", "--topo", "ring", "--sample", "3"]) == 2
        assert "--sample" in capsys.readouterr().err

    def test_steps_and_seed_rejected_with_script_file(self, tmp_path, capsys):
        network = build_topology("ring", 4)
        changeset = ChangeSet(
            changes=(LocalPrefOverride(device="r0", peer="r1", local_pref=300),)
        )
        script_file = tmp_path / "changes.json"
        script_file.write_text(f"[{changeset.to_json()}]")
        assert (
            pipeline_main(
                [
                    "delta",
                    "--topo",
                    "ring",
                    "--changes",
                    str(script_file),
                    "--steps",
                    "2",
                ]
            )
            == 2
        )
        assert "--steps" in capsys.readouterr().err

    def test_modes_are_exclusive(self, capsys):
        assert pipeline_main(["delta", "--failures", "--topo", "ring"]) == 2
        assert "unrecognized arguments: --failures" in capsys.readouterr().err
