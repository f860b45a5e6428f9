"""A failure is a change: the two perturbation kinds agree where they should.

``FailureSweep`` and ``DeltaSweep`` are two kinds on one engine
(:mod:`repro.pipeline.perturb`).  Failing links/nodes and removing them
with a one-step change script must give every destination class the same
verdict delta -- except where a node failure kills a class's *every*
origin, the one place the kinds differ on purpose (pinned below).

Where the baseline comes from must not matter either: solved in the run,
validated from a stored artifact, or kept by a ``Session`` since an
earlier request, the report is the same.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings, strategies as st
from test_golden_reports import scrub

from repro.api import Session
from repro.delta import ChangeSet, DeltaSweep, DeviceRemove, LinkRemove
from repro.delta.incremental import EdgeDiff
from repro.failures import FailureScenario, FailureSweep
from repro.failures.scenario import undirected_links
from repro.netgen.changes import default_change_steps, generated_change_script
from repro.netgen.families import TOPOLOGY_FAMILIES, build_topology
from repro.pipeline.encoded import EncodedNetwork
from repro.store import BaselineArtifact


@functools.lru_cache(maxsize=None)
def _family(name: str):
    """``(artifact, [("link", (u, v)) | ("node", name), ...])`` of a family."""
    artifact = EncodedNetwork.build(build_topology(name))
    network = artifact.network
    elements = [("link", link) for link in undirected_links(network)]
    elements += [("node", str(node)) for node in sorted(network.graph.nodes, key=str)]
    return artifact, elements


def _as_change(scenario: FailureScenario) -> ChangeSet:
    # Links first: removing a device also removes its links, and a
    # LinkRemove of an already-gone link does not validate.
    return ChangeSet(
        [LinkRemove(u, v) for u, v in sorted(scenario.links)]
        + [DeviceRemove(node) for node in sorted(scenario.nodes)]
    )


def _sweep_both(artifact, scenario: FailureScenario, checked: bool = False):
    """Both kinds on one perturbation; ``checked`` runs their abstraction
    checks (soundness, revalidation)."""
    failed = FailureSweep(
        artifact=artifact, scenarios=[scenario], oracle=False, soundness=checked
    ).run()
    changed = DeltaSweep(
        artifact=artifact, script=[_as_change(scenario)], oracle=False, revalidate=checked
    ).run()
    assert [r.prefix for r in failed.records] == [r.prefix for r in changed.records]
    return [
        (record.prefix, record.origins, record.scenarios[0], twin.steps[0])
        for record, twin in zip(failed.records, changed.records)
    ]


@given(data=st.data(), family=st.sampled_from(sorted(TOPOLOGY_FAMILIES)))
@settings(max_examples=30, deadline=None)
def test_failure_equals_one_step_removal_where_origins_survive(data, family):
    artifact, elements = _family(family)
    picked = data.draw(
        st.lists(st.sampled_from(elements), min_size=1, max_size=2, unique=True)
    )
    scenario = FailureScenario(
        links=frozenset(value for kind, value in picked if kind == "link"),
        nodes=frozenset(value for kind, value in picked if kind == "node"),
    )
    compared = 0
    for prefix, origins, outcome, step in _sweep_both(artifact, scenario):
        if not set(origins) - scenario.nodes:
            continue  # every origin failed: see the pinned divergence below
        compared += 1
        assert outcome.unroutable == step.unroutable, (family, scenario.name, prefix)
        assert outcome.newly_failing == step.newly_failing, (family, scenario.name, prefix)
        assert outcome.newly_passing == step.newly_passing, (family, scenario.name, prefix)
    assert compared  # two failed elements never kill every class's origins


#: The exact keys of each kind's abstraction-check wire dict.
_CHECK_KEYS = {
    "soundness": {
        "sound_under_failure", "reason", "abstract_scenario", "recompressed",
        "agrees", "mismatched", "abstract_nodes",
    },
    "revalidation": {
        "reused", "reason", "recompressed", "agrees", "mismatched", "abstract_nodes",
        "seconds", "recompress_seconds",
    },
}


@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_both_kinds_check_one_link_failure_and_agree(family):
    """One checker answers both kinds: on a failed link and the change
    removing it, each kind's check agrees with the concrete verdicts and
    writes its wire dict with exactly its own keys (the goldens scrub the
    timings and the benchmark defaults a missing ``agrees`` to true, so
    nothing else notices a lost key)."""
    artifact, elements = _family(family)
    link = next(value for kind, value in elements if kind == "link")
    scenario = FailureScenario(links=frozenset({link}))
    compared = 0
    for prefix, origins, outcome, step in _sweep_both(artifact, scenario, checked=True):
        if not set(origins) - scenario.nodes:
            continue
        compared += 1
        assert outcome.abstract_agrees() is True, (family, prefix, outcome.soundness)
        assert step.abstract_agrees() is True, (family, prefix, step.revalidation)
        assert set(outcome.soundness) == _CHECK_KEYS["soundness"]
        assert set(step.revalidation) == _CHECK_KEYS["revalidation"]
        assert outcome.soundness["recompressed"] is not outcome.sound_under_failure
        assert step.revalidation["recompressed"] is not step.reused
    assert compared


def test_origin_killing_node_failure_is_where_the_kinds_differ():
    """Recorded decision, not an accident: when a node failure takes out a
    class's only origin, the failure kind calls the class unroutable (its
    destination is gone), while the change kind re-partitions -- the hub's
    /24 is still covered by a less specific routable class, which stands
    in, so the destination keeps getting verdicts."""
    artifact, _ = _family("wan")
    hub_class = next(
        ec for ec in artifact.classes if set(map(str, ec.origins)) == {"hub0"}
    )
    scenario = FailureScenario(nodes=frozenset({"hub0"}))
    by_prefix = {
        prefix: (outcome, step)
        for prefix, _, outcome, step in _sweep_both(artifact, scenario)
    }
    outcome, step = by_prefix[str(hub_class.prefix)]
    assert outcome.unroutable is True
    assert outcome.incremental_used is False
    assert step.unroutable is False
    assert step.partition_changed is True
    assert step.origins_changed is True
    # Unroutable fails reachability on every surviving node; the covering
    # class still delivers somewhere, so the change kind reports fewer.
    surviving = sorted(set(map(str, artifact.network.graph.nodes)) - {"hub0"})
    assert outcome.newly_failing["reachability"] == surviving
    assert set(step.newly_failing.get("reachability", [])) < set(surviving)


# ----------------------------------------------------------------------
# Scratch, stored and session-kept baselines give one report
# ----------------------------------------------------------------------
#: The two report fields that say where the baseline came from.
_PROVENANCE = ("baseline_fingerprint", "baseline_from_store")


@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_delta_warm_equals_cold_equals_scratch(family):
    """One script answered as a fresh session's first request, as a used
    session's third, and by a sweep with no stored baseline at all."""
    network = build_topology(family)
    artifact = BaselineArtifact.build(network)
    target, *others = (
        generated_change_script(
            network, family, steps=default_change_steps(family), seed=seed
        )
        for seed in (0, 1, 2)
    )
    scratch = DeltaSweep(
        network, script=target, oracle=False, executor="serial"
    ).run()
    assert not any(record.baseline_from_store for record in scratch.records)
    cold = Session(baseline=artifact).delta(target)
    used = Session(baseline=artifact)
    for script in others:
        used.delta(script)
    warm = used.delta(target)
    assert all(record.baseline_from_store for record in cold.records + warm.records)
    expected = scrub(scratch.to_dict(), _PROVENANCE)
    assert scrub(cold.to_dict(), _PROVENANCE) == expected
    assert scrub(warm.to_dict(), _PROVENANCE) == expected


@pytest.mark.parametrize("family", ["ring", "fattree", "wan"])
def test_failures_over_a_stored_baseline_equal_failures_without(family, counter_delta):
    network = build_topology(family)
    session = Session(network)
    sample = dict(k=2, sample=6, seed=1)
    expected = scrub(FailureSweep(network, executor="serial", **sample).run().to_dict())
    assert scrub(session.failures(**sample).to_dict()) == expected
    # Again, now against the baselines the session kept.
    assert scrub(session.failures(**sample).to_dict()) == expected

    # Link failures never reshape a class: with the oracle and the
    # (abstract-network-solving) soundness check off, nothing is solved
    # from scratch -- not the baseline either.
    with counter_delta("srp.") as solves:
        session.failures(oracle=False, soundness=False, **sample)
    assert solves["srp.scratch_solves"] == 0 and solves["srp.seeded_solves"] > 0


# ----------------------------------------------------------------------
# A step the edge diff leaves unchanged: carried forward == re-solved
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("family", sorted(TOPOLOGY_FAMILIES))
def test_delta_carried_equals_the_long_path(family, seed, monkeypatch):
    """Every (class, step) whose edge diff is empty takes its seed's answer
    by reference; forced through the seeded re-solve, table extraction,
    property evaluation and revalidation instead (an ``EdgeDiff`` that is
    never empty -- there is no option to ask for it), the report is the
    same, audit arms on or off, stored baseline or none."""
    network = build_topology(family)
    script = generated_change_script(
        network, family, steps=default_change_steps(family), seed=seed
    )
    variants = [
        dict(oracle=oracle, revalidate=revalidate, **source)
        for oracle in (True, False)
        for revalidate in (True, False)
        for source in (dict(network=network), dict(baseline=BaselineArtifact.build(network)))
    ]

    def reports():
        return [
            scrub(DeltaSweep(script=script, executor="serial", **variant).run().to_dict())
            for variant in variants
        ]

    carried = reports()
    monkeypatch.setattr(EdgeDiff, "is_empty", lambda self: False)
    assert reports() == carried


def _count_calls(monkeypatch, *names):
    """Wrap every ``repro`` module's binding of the named functions;
    returns the live ``name -> calls`` tally."""
    import sys

    calls = dict.fromkeys(names, 0)
    for name in names:
        for module in list(sys.modules.values()):
            original = getattr(module, "__dict__", {}).get(name)
            if not getattr(module, "__name__", "").startswith("repro") or not callable(original):
                continue

            def counted(*args, _original=original, _name=name, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


_PER_UNIT_WORK = ("forwarding_table_from_solution", "evaluate_suite", "abstract_arm")


def test_session_delta_of_an_invariant_step_solves_and_evaluates_nothing(
    monkeypatch, counter_delta
):
    """From a session's second request on, a script no class's edge diff
    notices costs no solve, no table, no property evaluation, no lifting:
    all 18 classes carry the kept baseline's answer."""
    network = build_topology("fattree", 6)
    session = Session(network)
    script = generated_change_script(network, "fattree", steps=1, seed=3)
    first = session.delta(script)
    calls = _count_calls(monkeypatch, *_PER_UNIT_WORK)
    with counter_delta("srp.") as solves:
        again = session.delta(script)
    assert (solves["srp.seeded_solves"], solves["srp.scratch_solves"]) == (0, 0)
    assert calls == dict.fromkeys(_PER_UNIT_WORK, 0)
    assert again.num_classes == 18
    counters = again.envelope_dict()["obs_metrics"]["counters"]
    assert counters["delta.class_steps.carried"] == 18
    assert "delta.class_steps.resolved" not in counters
    assert again.canonical_records() == first.canonical_records()
    assert "unchanged by the edge diff: 18/18" in "\n".join(again.summary_lines())

    # The audit arm is not carried: one cold scratch solve per class-step
    # (after one per class for the baseline), each agreeing with the answer.
    with counter_delta("srp.") as solves:
        audited = DeltaSweep(
            network, script=script, oracle=True, revalidate=False, executor="serial",
        ).run()
    assert (solves["srp.seeded_solves"], solves["srp.scratch_solves"]) == (0, 2 * 18)
    assert [o.incremental_matches_scratch for r in audited.records for o in r.steps] == [True] * 18


# ----------------------------------------------------------------------
# The work the abstraction check must not repeat
# ----------------------------------------------------------------------
@pytest.mark.parametrize("family", ["fattree", "wan"])
def test_failure_checks_build_the_class_abstract_srp_once(family, monkeypatch):
    """A representable scenario filters the class's abstract SRP, built
    once per class; only a re-compression builds one of its own."""
    network = build_topology(family)
    calls = _count_calls(monkeypatch, "build_abstract_srp")
    report = FailureSweep(network, k=1, oracle=False, executor="serial").run()
    counts = report.abstraction_counts()
    assert counts["checked"] == report.num_classes * report.num_scenarios
    assert calls["build_abstract_srp"] == report.num_classes + counts["recompressed"]


@pytest.mark.parametrize("long_path", [False, True])
def test_delta_lifts_a_reused_abstraction_once_per_class(long_path, monkeypatch):
    """Three steps that each keep every class's abstraction lift each
    class's abstract verdicts once: a carried step takes the previous
    step's check, and (edge diff forced non-empty, so nothing is carried)
    a re-checked step the reuse side's lifted verdicts."""
    network = build_topology("fattree", 4)
    script = [
        generated_change_script(network, "fattree", steps=1, seed=seed)[0]
        for seed in (0, 1, 2)
    ]
    if long_path:
        monkeypatch.setattr(EdgeDiff, "is_empty", lambda self: False)
    calls = _count_calls(monkeypatch, "abstract_arm")
    report = DeltaSweep(network, script=script, oracle=False, executor="serial").run()
    outcomes = [outcome for record in report.records for outcome in record.steps]
    assert len(outcomes) == 3 * report.num_classes
    assert all(outcome.reused and outcome.abstract_agrees() for outcome in outcomes)
    assert calls["abstract_arm"] == report.num_classes
