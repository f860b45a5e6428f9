"""Property verdicts from the forwarding-graph facts == path enumeration.

The seven registered properties are decided per node from one O(V + E)
analysis of the table (:class:`repro.analysis.dataplane.ForwardingFacts`)
and their witnesses come from a pruned walk.  The oracle below is the
enumerating implementation they replaced -- every path from the source,
then a scan -- kept here over the public, bounded ``all_paths()``; the two
must agree on every verdict and every counterexample wherever the
enumeration completes.  Where it does not (wide ECMP), the facts are the
only exact answer: the regression class at the bottom pins that.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path
from typing import List

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.analysis import BatchVerifier, ForwardingTable
from repro.analysis.dataplane import PathLimitExceeded
from repro.analysis.properties import (
    Counterexample,
    PropertyContext,
    PropertyResult,
    check_all_paths_reach,
    check_black_hole,
    check_multipath_consistency,
    evaluate_suite,
    get_property,
)
from repro.config import Prefix, parse_network
from repro.delta import ChangeSet, DeltaSweep, LinkRemove
from repro.failures import FailureScenario, FailureSweep

DEST = Prefix.parse("10.0.1.0/24")
CATALOGUE = (
    "reachability",
    "all-paths-reach",
    "black-hole-freedom",
    "routing-loop-freedom",
    "bounded-path-length",
    "waypointing",
    "multipath-consistency",
)


# ----------------------------------------------------------------------
# The oracle: the enumerating checks, as they were before the facts
# ----------------------------------------------------------------------
def _walk_outcome(table, source):
    path = [source]
    node = source
    while True:
        if table.delivers(node):
            return "delivered", path
        hops = sorted(table.next_hops.get(node, ()), key=str)
        if not hops:
            return "blackhole", path
        node = hops[0]
        if node in path:
            path.append(node)
            return "loop", path
        path.append(node)


def _cycle(path):
    return tuple(path[list(path).index(path[-1]):])


def _fails(kind, node, path, detail, cycle=()):
    return PropertyResult(
        False,
        tuple(path),
        counterexample=Counterexample(
            kind=kind, node=node, path=tuple(path), cycle=tuple(cycle), detail=detail
        ),
    )


HOLDS = PropertyResult(True)


def oracle(name: str, table, paths: List[List[str]], source, waypoints, bound) -> PropertyResult:
    """``holds`` and counterexample of property ``name`` at ``source`` by
    scanning ``paths`` (``table.all_paths(source)``, complete)."""
    delivered = [path for path in paths if table.delivers(path[-1])]
    dropped = [path for path in paths if not table.delivers(path[-1])]
    if name in ("reachability", "routing-loop-freedom"):
        outcome, path = _walk_outcome(table, source)
        if name == "reachability" and outcome != "delivered":
            return _fails(
                outcome,
                path[-1] if outcome == "blackhole" else source,
                path,
                f"traffic from {source!r} is {outcome}",
                _cycle(path) if outcome == "loop" else (),
            )
        if name == "routing-loop-freedom" and outcome == "loop":
            cycle = _cycle(path)
            return _fails(
                "loop", source, path,
                f"cycle {'>'.join(map(str, cycle))} reachable from {source!r}", cycle,
            )
    elif name == "all-paths-reach":
        if dropped:
            last = dropped[0][-1]
            return _fails(
                "blackhole", last, dropped[0],
                f"path from {source!r} ends undelivered at {last!r}",
            )
    elif name == "black-hole-freedom":
        for path in dropped:
            if len(set(path)) == len(path):
                return _fails(
                    "blackhole", path[-1], path, f"{path[-1]!r} drops traffic from {source!r}"
                )
    elif name == "bounded-path-length":
        for path in delivered:
            if len(path) - 1 > bound:
                return _fails(
                    "too-long", source, path, f"{len(path) - 1} hops exceeds bound {bound}"
                )
    elif name == "waypointing":
        for path in delivered:
            if not set(waypoints) & set(path):
                return _fails(
                    "bypass", source, path,
                    f"delivered path from {source!r} avoids every waypoint",
                )
    elif name == "multipath-consistency":
        if delivered and dropped:
            return _fails(
                "divergence", source, dropped[0],
                f"{source!r} delivers via {'>'.join(map(str, delivered[0]))} "
                f"but drops via {'>'.join(map(str, dropped[0]))}",
            )
    return HOLDS


def assert_facts_match_enumerator(next_hops, origins, waypoints, bound, max_paths=5000):
    table = ForwardingTable(destination=DEST, origins=set(origins), next_hops=next_hops)
    mentioned = set(next_hops) | set(origins) | {h for hops in next_hops.values() for h in hops}
    sources = sorted(mentioned) + ["ghost"]  # a source the table never mentions
    specs = [get_property(name) for name in CATALOGUE]
    context = PropertyContext(table=table, waypoints=frozenset(waypoints), path_bound=bound)
    verdicts = evaluate_suite(specs, table, sources, waypoints, bound)
    assert list(verdicts) == list(CATALOGUE)
    compared = 0
    for source in sources:
        try:
            paths = table.all_paths(source, max_paths)
        except PathLimitExceeded:
            continue
        compared += 1
        for spec in specs:
            expected = oracle(spec.name, table, paths, source, waypoints, context.bound)
            got = spec.evaluate(context, source)
            where = (spec.name, source, next_hops, origins, waypoints, bound)
            assert verdicts[spec.name][source] is expected.holds, where
            assert got.holds is expected.holds, where
            assert got.counterexample == expected.counterexample, where
            if not expected.holds:
                assert got.witness == expected.witness, where
    return compared


NODES = [f"n{i}" for i in range(9)]
node_sets = st.frozensets(st.sampled_from(NODES), max_size=3)


@st.composite
def forwarding_cases(draw):
    keys = draw(st.lists(st.sampled_from(NODES), unique=True, max_size=9))
    next_hops = {key: set(draw(node_sets)) for key in keys}
    origins = draw(st.frozensets(st.sampled_from(NODES), max_size=2))
    waypoints = draw(st.frozensets(st.sampled_from(NODES), max_size=3))
    bound = draw(st.one_of(st.none(), st.integers(min_value=0, max_value=9)))
    return next_hops, origins, waypoints, bound


# The shapes the strategy has to cover, pinned so every run exercises them.
SHAPES = {
    "self-loop": ({"n0": {"n0", "n1"}, "n1": {"n2"}}, {"n2"}, {"n2"}, None),
    # routing-loop-freedom follows the smallest hop only: n0 -> n1 delivers.
    "cycle-behind-a-non-first-hop": (
        {"n0": {"n1", "n5"}, "n1": set(), "n5": {"n6"}, "n6": {"n5"}}, {"n1"}, {"n1"}, None,
    ),
    "origin-with-next-hops-is-a-sink": (
        {"n0": {"n1"}, "n1": {"n2"}, "n2": {"n0"}}, {"n1"}, {"n1"}, None,
    ),
    "hop-target-only-node-is-a-black-hole": (
        {"n0": {"n1", "n2"}, "n1": {"n3"}}, {"n3"}, {"n3"}, 1,
    ),
    "origin-absent-from-next-hops": ({"n0": {"n1"}}, {"n1", "n7"}, set(), 0),
    "waypoint-that-is-an-origin": (
        {"n0": {"n1", "n2"}, "n1": {"n3"}, "n2": {"n4"}}, {"n3", "n4"}, {"n3"}, None,
    ),
    "cyclic-source-with-a-small-bound": (
        {"n0": {"n1", "n2"}, "n1": {"n0", "n2"}, "n2": {"n3"}, "n3": {"n4"}}, {"n4"}, set(), 2,
    ),
    "black-hole-only-through-the-walked-prefix": (
        # from n0 the walk n0>n1>n2 cannot reach the drop at n3 without
        # repeating n1: the pruned walk has to backtrack to n0>n3.
        {"n0": {"n1", "n3"}, "n1": {"n2"}, "n2": {"n1"}, "n3": set()}, set(), set(), None,
    ),
}


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_named_shapes(shape):
    next_hops, origins, waypoints, bound = SHAPES[shape]
    assert assert_facts_match_enumerator(next_hops, origins, waypoints, bound) > 0


def test_a_source_the_table_never_mentions_is_a_black_hole():
    table = ForwardingTable(destination=DEST, origins={"d"}, next_hops={"a": {"d"}})
    specs = [get_property(name) for name in CATALOGUE]
    verdicts = evaluate_suite(specs, table, ["ghost"], {"d"}, None)
    assert {name for name in CATALOGUE if not verdicts[name]["ghost"]} == {
        "reachability", "all-paths-reach", "black-hole-freedom",
    }


@settings(max_examples=300, deadline=None)
@given(forwarding_cases())
@example(SHAPES["cyclic-source-with-a-small-bound"])
@example(SHAPES["cycle-behind-a-non-first-hop"])
def test_facts_equal_the_enumerator_on_random_tables(case):
    assert_facts_match_enumerator(*case)


# ----------------------------------------------------------------------
# Wide ECMP: exact where the enumeration used to be cut off
# ----------------------------------------------------------------------
LAYERS = 11
#: What breaks at ``n00`` -> the nodes it breaks at (``b00`` and ``z``
#: drop everything, which is consistent).
BROKEN = {
    "all-paths-reach": ["b00", "n00", "z"],
    "black-hole-freedom": ["b00", "n00", "z"],
    "multipath-consistency": ["n00"],
}


def _example():
    """``examples/wide_ecmp_properties.py``: 11 layers of 2-way ECMP below
    ``n00`` (2 048 paths were both branches sound); ``b00`` forwards into
    ``z``, which drops.  In name order the 1 024 delivered paths through
    ``a00`` come first, so an enumeration capped at 1 000 never sees it."""
    path = Path(__file__).resolve().parents[1] / "examples" / "wide_ecmp_properties.py"
    spec = importlib.util.spec_from_file_location("wide_ecmp_properties", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


wide_ecmp_table = _example().wide_ecmp_table


def wide_ecmp_network(z_blocks=("a01",)):
    """A BGP network whose forwarding is :func:`wide_ecmp_table`'s shape:
    ``n00`` splits over ``a00 > y`` and ``b00 > z``, and ``y``/``z`` fan out
    into ten 2-way layers above ``d``.  ``z`` carries a data-plane ACL
    towards the ``z_blocks`` interfaces."""
    links = [("n00", "a00"), ("n00", "b00"), ("a00", "y"), ("b00", "z")]
    for upper in ("y", "z"):
        links += [(upper, "a01"), (upper, "b01")]
    for layer in range(1, LAYERS - 1):
        links += [
            (f"{u}{layer:02d}", f"{v}{layer + 1:02d}") for u in "ab" for v in "ab"
        ]
    links += [(f"a{LAYERS - 1:02d}", "d"), (f"b{LAYERS - 1:02d}", "d")]
    neighbours = {}
    for u, v in links:
        neighbours.setdefault(u, []).append(v)
        neighbours.setdefault(v, []).append(u)
    lines = []
    for device in sorted(neighbours):
        lines.append(f"device {device}")
        if device == "d":
            lines.append(f"  network {DEST}")
        lines += [f"  bgp-neighbor {peer}" for peer in neighbours[device]]
        if device == "z":
            lines.append(f"  acl DROP deny {DEST} default permit")
            lines += [f"  interface-acl {peer} DROP" for peer in z_blocks]
    lines += [f"link {u} {v}" for u, v in links]
    return parse_network("\n".join(lines))


class TestWideEcmpIsExact:
    def test_the_example_runs_clean(self, capsys):
        assert _example().main() == 0
        assert "all-paths-reach         FAILS  via n00 > b00 > z" in capsys.readouterr().out

    def test_the_enumeration_is_past_its_bound(self):
        with pytest.raises(PathLimitExceeded, match="1000 .* 'n00'"):
            wide_ecmp_table().all_paths("n00")

    def test_evaluate_suite_sees_the_black_hole_behind_1024_delivered_paths(self):
        table = wide_ecmp_table()
        specs = [get_property(name) for name in CATALOGUE]
        verdicts = evaluate_suite(specs, table, sorted(table.next_hops), {"d"}, None)
        assert {name for name in CATALOGUE if not verdicts[name]["n00"]} == set(BROKEN)
        assert all(verdicts[name]["a00"] for name in CATALOGUE)
        for check in (check_all_paths_reach, check_black_hole, check_multipath_consistency):
            assert check(table, "n00").counterexample.path == ("n00", "b00", "z")

    def test_verify_reports_it_with_the_witness_and_no_enumeration_caveat(self):
        network = wide_ecmp_network(z_blocks=("a01", "b01"))
        report = BatchVerifier(network, executor="serial").run()
        (record,) = report.records
        by_name = {verdict.property: verdict for verdict in record.verdicts}
        for name, failing in BROKEN.items():
            verdict = by_name[name]
            assert verdict.concrete_failing == verdict.abstract_failing == failing
            witness = next(c for c in verdict.counterexamples if c["node"] == "n00")
            assert witness["concrete"]["path"] == ["n00", "b00", "z"]
        assert all(verdict.comparable for verdict in record.verdicts)
        assert not any("exhaustive" in v.note or "enumerat" in v.note for v in record.verdicts)
        assert report.verdicts_agree()

    def test_a_failure_and_its_change_twin_report_the_source_newly_failing(self):
        """Losing ``z|b01`` leaves ``z`` its ACL-blocked hop only: it drops,
        ``b00`` still forwards into it, and ``n00`` -- 1 024 sound paths
        first -- must be reported beside them."""
        network = wide_ecmp_network()
        scenario = FailureScenario(links=frozenset({("b01", "z")}))
        failed = FailureSweep(
            network, scenarios=[scenario], executor="serial", soundness=False
        ).run()
        changed = DeltaSweep(
            network, script=[ChangeSet([LinkRemove("z", "b01")])], executor="serial",
            revalidate=False,
        ).run()
        for outcome in (failed.records[0].scenarios[0], changed.records[0].steps[0]):
            assert outcome.incremental_matches_scratch
            for name, failing in BROKEN.items():
                assert outcome.newly_failing[name] == failing
            assert not outcome.newly_passing
